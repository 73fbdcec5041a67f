//===----------------------------------------------------------------------===//
///
/// \file
/// The measured run: one closed loop with one caller, tracing off, for
/// the given number of seconds after an untimed warm-up.
///
///   suite-engines  passes over the 65 (client, engine) calls in the
///                  seed's order, one certifySource call at a time.
///   corpus-*       shard::runSharded batches over the whole corpus at
///                  the shard count, one after another. corpus-cold
///                  empties its store before every batch (untimed);
///                  corpus-warm fills it once, before the run.
///
/// Timings from windows under a second do not repeat on a shared host,
/// so every reported time is a median over the whole run: per-pass or
/// per-batch throughput, per-call or per-client verdict times, and
/// set-up, which is re-sampled about every 100 ms of the run. Each
/// pass or batch is followed by a calibration sample (see HostSpeed.h).
/// Set-up is reported at the reference host speed on every workload,
/// and so are the passes and batches of the CPU-bound workloads,
/// suite-engines and corpus-storeless. A store workload's batch time
/// is mostly file I/O and lock waits, which the kernel does not follow,
/// so its batches are reported as measured.
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "HostSpeed.h"
#include "Inputs.h"
#include "Stats.h"
#include "StreamClock.h"
#include "Suite.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include <unistd.h>

using namespace canvas;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// One run's samples, as reported; set-up and throughput are also kept
/// as measured.
struct Run : Outcome {
  const bool CalibratedBlocks; ///< Blocks at the reference host speed.
  std::vector<double> KernelUs; ///< Calibration samples, in order.
  std::vector<double> SetupSec, RawSetupSec;
  std::vector<double> BlockRate, RawBlockRate; ///< Clients/s per block.
  std::vector<double> VerdictMs;

  /// Samples the kernel after a measured block and returns the block's
  /// scale: with CalibratedBlocks, the reference kernel time over the
  /// mean of the samples taken just before and just after the block;
  /// otherwise 1.
  double closeBlock() {
    const double Before = KernelUs.back();
    KernelUs.push_back(timeCalibrationKernel());
    return CalibratedBlocks
               ? ReferenceKernelMicros / ((Before + KernelUs.back()) / 2)
               : 1;
  }

  void addBlock(double Clients, double Seconds, double Scale) {
    RawBlockRate.push_back(Clients / Seconds);
    BlockRate.push_back(Clients / Seconds / Scale);
  }
  void addVerdict(double Ms, double Scale) { VerdictMs.push_back(Ms * Scale); }

  /// Allocates and touches the sample buffers up front, so that their
  /// growth is not what peak_rss_mb measures.
  Run(double Seconds, bool CalibratedBlocks)
      : CalibratedBlocks(CalibratedBlocks) {
    for (std::vector<double> *V :
         {&KernelUs, &SetupSec, &RawSetupSec, &BlockRate, &RawBlockRate})
      reserveTouched(*V, static_cast<size_t>(Seconds * 200) + 100);
    reserveTouched(VerdictMs, static_cast<size_t>(Seconds * 8000) + 1000);
  }
  static void reserveTouched(std::vector<double> &V, size_t N) {
    V.assign(N, 0);
    V.clear();
  }
};

/// Runs the program's set-up, timed, and scales it by the latest
/// calibration sample.
bool timedSetup(const Config &C, Setup &S, Run &R, std::string &Error) {
  const auto T0 = Clock::now();
  if (!runSetup(C, S, Error))
    return false;
  const double Sec = secondsSince(T0);
  if (R.KernelUs.empty())
    R.KernelUs.push_back(timeCalibrationKernel());
  R.RawSetupSec.push_back(Sec);
  R.SetupSec.push_back(Sec * ReferenceKernelMicros / R.KernelUs.back());
  return true;
}

/// Takes set-up samples until there is one per 100 ms of the run.
bool sampleSetup(const Config &C, Clock::time_point Start, Run &R,
                 std::string &Error) {
  while (R.SetupSec.size() < 1 + secondsSince(Start) / 0.1) {
    Setup Discard;
    if (!timedSetup(C, Discard, R, Error))
      return false;
  }
  return true;
}

bool runSuite(const Config &C, const Reference &Ref, Run &R,
              std::string &Error) {
  Setup S;
  if (!timedSetup(C, S, R, Error))
    return false;
  const std::vector<SuiteCall> Order = suiteOrder(C.Seed);
  std::vector<double> PassMs;
  auto Pass = [&](bool Timed) {
    PassMs.clear();
    for (const SuiteCall &Call : Order) {
      const std::string Key = pairKey(Call);
      DiagnosticEngine Diags;
      const auto T0 = Clock::now();
      core::CertificationReport Rep = S.Certifiers[Call.Engine]->certifySource(
          bench::cmpSuite()[Call.Client].Source, Diags);
      PassMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
      if (!Timed)
        continue;
      ++R.Attempted;
      if (Diags.hasErrors())
        R.fail(1, Key + ": client does not parse");
      else if (Rep.Degraded)
        R.fail(1, Key + ": degraded to " + Rep.EffectiveEngine);
      else if (digest(Rep.str()) != Ref.PairDigest.at(Key))
        R.fail(1, Key + ": report differs from the reference");
      else if (Ref.Truth.at(Key).Missed)
        R.fail(1, Key + ": misses a ground-truth violation");
    }
  };
  Pass(/*Timed=*/false);
  R.KernelUs.push_back(timeCalibrationKernel());
  const auto Start = Clock::now();
  while (secondsSince(Start) < C.Seconds) {
    Pass(/*Timed=*/true);
    const double Scale = R.closeBlock();
    double Sum = 0;
    for (double Ms : PassMs) {
      R.addVerdict(Ms, Scale);
      Sum += Ms;
    }
    R.addBlock(Order.size(), Sum / 1000, Scale);
    if (!sampleSetup(C, Start, R, Error))
      return false;
  }
  return true;
}

bool runCorpus(const Config &C, const Reference &Ref, Run &R,
               std::string &Error) {
  Setup S;
  if (!timedSetup(C, S, R, Error))
    return false;
  const std::string StorePath =
      usesStore(C.W)
          ? C.WorkDir + "/store-" + std::to_string(::getpid())
          : std::string();
  std::error_code EC;
  if (!StorePath.empty())
    std::filesystem::remove_all(StorePath, EC);
  const shard::DriverOptions DO = driverOptions(C, StorePath);
  const size_t N = S.Corpus.size();
  unsigned MissedClients = 0;
  for (const shard::CorpusClient &CC : S.Corpus)
    MissedClients += Ref.Truth.at(CC.Name).Missed > 0;

  StreamClock Sink;
  std::ostream StreamOut(&Sink);
  auto Batch = [&](bool Timed) {
    if (C.W == Workload::CorpusCold)
      std::filesystem::remove_all(StorePath, EC);
    std::ostringstream Merged;
    shard::ShardRunStats Stats;
    std::string BatchError;
    Sink.start();
    const auto T0 = Clock::now();
    const bool Ok =
        shard::runSharded(S.Corpus, DO, Merged, StreamOut, Stats, BatchError);
    const double Wall = secondsSince(T0);
    if (!Timed)
      return;
    const double Scale = R.closeBlock();
    R.Attempted += N;
    if (!Ok) {
      R.fail(N, "batch failed: " + BatchError);
      return;
    }
    if (digest(Merged.str()) != Ref.MergedDigest) {
      R.fail(N, "merged report differs from the shard::runSerial reference");
      return;
    }
    R.fail(MissedClients, "client misses a ground-truth violation");
    checkBatch(C.W, Stats, N, R);
    R.fail(N - std::min(N, Sink.verdictMicros().size()),
           "client verdict missing from the stream");
    R.addBlock(N, Wall, Scale);
    for (double Us : Sink.verdictMicros())
      R.addVerdict(Us / 1000, Scale);
  };
  // corpus-warm's warm-up batch is the one that fills its store.
  Batch(/*Timed=*/false);
  R.KernelUs.push_back(timeCalibrationKernel());
  const auto Start = Clock::now();
  while (secondsSince(Start) < C.Seconds) {
    Batch(/*Timed=*/true);
    if (!sampleSetup(C, Start, R, Error))
      return false;
  }
  if (!StorePath.empty())
    std::filesystem::remove_all(StorePath, EC);
  return true;
}

} // namespace

int perfbench::measureMain(const Config &C) {
  std::string Error;
  Reference Ref;
  if (!readReference(C.RefPath, Ref, Error)) {
    std::fprintf(stderr, "perfbench measure: %s\n", Error.c_str());
    return 2;
  }
  Run R(C.Seconds, /*CalibratedBlocks=*/!usesStore(C.W));
  const bool Ok = isCorpus(C.W) ? runCorpus(C, Ref, R, Error)
                                : runSuite(C, Ref, R, Error);
  if (!Ok) {
    std::fprintf(stderr, "perfbench measure: %s\n", Error.c_str());
    return 2;
  }
  // Before the statistics below copy the samples.
  const double PeakRss = peakRssMb();
  const Quartiles Rate = quartiles(R.BlockRate);
  const SiteCounts Truth = Ref.total();
  std::printf("calibration kernel: median %.1f us over %zu samples; %s at "
              "the reference %.0f us\n",
              median(R.KernelUs), R.KernelUs.size(),
              R.CalibratedBlocks ? "times below are" : "setup_s below is",
              ReferenceKernelMicros);
  std::printf("as measured: setup_s %.6g, clients_per_s %.6g\n",
              median(R.RawSetupSec), median(R.RawBlockRate));
  std::printf("clients_per_s over %zu blocks: q1 %.6g, median %.6g, q3 %.6g\n",
              R.BlockRate.size(), Rate.Q1, Rate.Q2, Rate.Q3);
  std::printf("ground truth: %u flagged site(s), %u false alarm(s), %u "
              "missed, over %zu report(s)\n",
              Truth.Flagged, Truth.FalseAlarms, Truth.Missed, Ref.Truth.size());

  printResult("PERFBENCH_RESULT", C, Ref, R,
              {{"setup_s", median(R.SetupSec), "s", R.SetupSec.size()},
               {"clients_per_s", Rate.Q2, "1/s", R.BlockRate.size()},
               {"verdict_p50_ms", percentile(R.VerdictMs, 50), "ms",
                R.VerdictMs.size()},
               {"verdict_p90_ms", percentile(R.VerdictMs, 90), "ms",
                R.VerdictMs.size()},
               {"peak_rss_mb", PeakRss, "MB", 1},
               {"flagged_sites", static_cast<double>(Truth.Flagged), "count",
                Ref.Truth.size()}});
  return 0;
}
