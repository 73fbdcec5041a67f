//===----------------------------------------------------------------------===//
//
// canvas_shard: multi-process certification of a corpus of CJ clients.
//
//   Generate a synthetic corpus (deterministic in the seed):
//     canvas_shard --generate=DIR --count=200 [--seed=7]
//
//   Certify a corpus across N worker processes:
//     canvas_shard --corpus=DIR --shards=4 [--out=FILE] [--no-stream]
//                  [--spec=cmp|grp|imp|aop|FILE] [--engine=NAME]
//                  [--store=DIR] [--store-mode=rw|ro]
//                  [--budget-*=N] [--bench-label=NAME]
//
//   Serial reference (same merged report, one process):
//     canvas_shard --corpus=DIR --serial
//
// While running, one SHARD_JSONL line streams per method verdict record
// (plus a per-client summary line) in completion order; the merged
// report — byte-identical at every shard count, and to --serial — goes
// to --out (default: stdout after the run). Worker processes are this
// same binary re-executed with --worker.
//
// Exit codes: 0 run completed, 2 bad usage/configuration, 3 driver
// failure (spawn failure, respawn budget exhausted, protocol violation).
//
//===----------------------------------------------------------------------===//

#include "easl/Parser.h"
#include "shard/Corpus.h"
#include "shard/Driver.h"
#include "shard/Worker.h"
#include "support/Subprocess.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace canvas;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: canvas_shard --generate=DIR --count=N [--seed=S]\n"
      "       canvas_shard --corpus=DIR [--shards=N] [--serial] [--out=FILE]\n"
      "                    [--no-stream] [--bench-label=NAME] [worker flags]\n"
      "       canvas_shard --worker [worker flags]\n"
      "worker flags: --spec=cmp|grp|imp|aop|FILE --engine=NAME --store=DIR\n"
      "              --store-mode=rw|ro --budget-deadline-us=N\n"
      "              --budget-iterations=N --budget-structures=N\n"
      "              --budget-alloc-bytes=N\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  // Worker mode first: the driver spawns us as `canvas_shard --worker
  // <flags>` and speaks the pipe protocol on stdin/stdout.
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    shard::WorkerOptions WO;
    for (int I = 2; I < argc; ++I)
      if (!shard::parseWorkerFlag(argv[I], WO)) {
        std::fprintf(stderr, "canvas_shard --worker: unknown flag '%s'\n",
                     argv[I]);
        return 2;
      }
    return shard::workerMain(WO);
  }

  std::string GenerateDir, CorpusDir, OutPath, BenchLabel;
  unsigned Count = 0, Shards = 1;
  uint64_t Seed = 1;
  bool Serial = false, Stream = true;
  shard::WorkerOptions WO;

  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    auto Value = [&Arg](const char *Prefix, std::string &Out) {
      const size_t N = std::strlen(Prefix);
      if (Arg.compare(0, N, Prefix) != 0)
        return false;
      Out = Arg.substr(N);
      return true;
    };
    std::string V;
    if (Value("--generate=", GenerateDir) || Value("--corpus=", CorpusDir) ||
        Value("--out=", OutPath) || Value("--bench-label=", BenchLabel))
      continue;
    if (Value("--count=", V)) {
      Count = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
      continue;
    }
    if (Value("--seed=", V)) {
      Seed = std::strtoull(V.c_str(), nullptr, 10);
      continue;
    }
    if (Value("--shards=", V)) {
      Shards = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
      continue;
    }
    if (Arg == "--serial") {
      Serial = true;
      continue;
    }
    if (Arg == "--no-stream") {
      Stream = false;
      continue;
    }
    if (shard::parseWorkerFlag(Arg, WO))
      continue;
    std::fprintf(stderr, "canvas_shard: unknown flag '%s'\n", Arg.c_str());
    return usage();
  }

  std::string Error;
  if (!GenerateDir.empty()) {
    if (!Count) {
      std::fprintf(stderr, "canvas_shard: --generate needs --count=N\n");
      return 2;
    }
    if (!shard::generateCorpus(GenerateDir, Count, Seed, Error)) {
      std::fprintf(stderr, "canvas_shard: %s\n", Error.c_str());
      return 3;
    }
    std::printf("generated %u client(s) under %s (seed %llu)\n", Count,
                GenerateDir.c_str(), static_cast<unsigned long long>(Seed));
    return 0;
  }
  if (CorpusDir.empty())
    return usage();
  if (Shards < 1) {
    std::fprintf(stderr, "canvas_shard: --shards must be >= 1\n");
    return 2;
  }

  // Set-up is everything before the first task: corpus load (which
  // sets each client's scheduling cost), the spec check and the driver
  // options.
  const auto SetupStart = std::chrono::steady_clock::now();
  std::vector<shard::CorpusClient> Corpus;
  if (!shard::loadCorpus(CorpusDir, Corpus, Error)) {
    std::fprintf(stderr, "canvas_shard: %s\n", Error.c_str());
    return 2;
  }

  // Parse and check the spec once here, so a bad spec is a usage error
  // (exit 2) rather than a failure in every worker.
  {
    std::string SpecSource;
    if (!shard::resolveSpec(WO.SpecArg, SpecSource, Error)) {
      std::fprintf(stderr, "canvas_shard: %s\n", Error.c_str());
      return 2;
    }
    DiagnosticEngine Diags;
    easl::Spec S = easl::parseSpec(SpecSource, Diags);
    if (!Diags.hasErrors())
      easl::checkSpec(S, Diags);
    if (Diags.hasErrors()) {
      std::fprintf(stderr, "canvas_shard: bad spec:\n%s", Diags.str().c_str());
      return 2;
    }
  }

  shard::DriverOptions DO;
  DO.Shards = Shards;
  DO.WorkerExe = support::selfExecutablePath();
  DO.Worker = WO;
  DO.Stream = Stream;
  if (DO.WorkerExe.empty() && !Serial) {
    std::fprintf(stderr, "canvas_shard: cannot resolve own executable path\n");
    return 3;
  }

  std::ostringstream Merged;
  shard::ShardRunStats Stats;
  auto MicrosSince = [](std::chrono::steady_clock::time_point T) {
    return static_cast<uint64_t>(std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - T)
                                     .count());
  };
  const uint64_t SetupMicros = MicrosSince(SetupStart);
  const auto T0 = std::chrono::steady_clock::now();
  const bool Ok =
      Serial ? shard::runSerial(Corpus, DO, Merged, std::cout, Stats, Error)
             : shard::runSharded(Corpus, DO, Merged, std::cout, Stats, Error);
  const uint64_t WallMicros = MicrosSince(T0);
  if (!Ok) {
    std::fprintf(stderr, "canvas_shard: %s\n", Error.c_str());
    return 3;
  }

  if (!OutPath.empty()) {
    std::ofstream OutF(OutPath, std::ios::binary | std::ios::trunc);
    OutF << Merged.str();
    if (!OutF) {
      std::fprintf(stderr, "canvas_shard: cannot write '%s'\n",
                   OutPath.c_str());
      return 3;
    }
  } else {
    std::cout << Merged.str();
  }

  const std::string Label = BenchLabel.empty() ? CorpusDir : BenchLabel;
  std::printf("BENCH_JSON {\"bench\":\"shard-scaling\",\"corpus\":\"%s\","
              "\"shards\":%u,\"clients\":%u,\"micros\":%llu,"
              "\"setup_micros\":%llu,"
              "\"worker_micros\":%llu,\"flagged\":%u,\"parse_failed\":%u,"
              "\"degraded\":%u,\"requeues\":%u,\"crashed\":%u,"
              "\"respawns\":%u}\n",
              Label.c_str(), Serial ? 0 : Shards, Stats.Clients,
              static_cast<unsigned long long>(WallMicros),
              static_cast<unsigned long long>(SetupMicros),
              static_cast<unsigned long long>(Stats.WorkerMicros),
              Stats.Flagged, Stats.ParseFailed, Stats.DegradedClients,
              Stats.Requeues, Stats.CrashedClients, Stats.WorkerRespawns);
  if (!WO.StorePath.empty())
    std::printf("BENCH_JSON {\"bench\":\"shard-store\",\"corpus\":\"%s\","
                "\"shards\":%u,\"hits\":%llu,\"misses\":%llu,"
                "\"writes\":%llu,\"rejected\":%llu,\"quarantined\":%llu,"
                "\"hit_pids\":%zu}\n",
                Label.c_str(), Serial ? 0 : Shards,
                static_cast<unsigned long long>(Stats.StoreHits),
                static_cast<unsigned long long>(Stats.StoreMisses),
                static_cast<unsigned long long>(Stats.StoreWrites),
                static_cast<unsigned long long>(Stats.StoreRejected),
                static_cast<unsigned long long>(Stats.StoreQuarantined),
                Stats.HitsByPid.size());
  return 0;
}
