//===----------------------------------------------------------------------===//
//
// The Section 7 evaluation table: for every benchmark client and every
// engine configuration, the number of requires checks, flagged checks,
// false alarms (relative to the concrete reference executor), and the
// analysis time. Reproduces the paper's headline findings:
//
//   - the staged certifiers produce (nearly) zero false alarms,
//   - the relational TVLA configuration has no precision advantage over
//     the independent-attribute configuration on these clients,
//   - the specialized certifiers dominate the generic baseline.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "core/Certifier.h"
#include "core/Evaluation.h"
#include "dataflow/PreAnalysis.h"
#include "easl/Builtins.h"

#include <algorithm>
#include <benchmark/benchmark.h>
#include <cstdio>

using namespace canvas;
using namespace canvas::core;

namespace {

/// Renders Report.Stages as a JSON array: the per-rung resource spend
/// (time, fixpoint iterations, peak resident structures) the budgeted
/// supervisor accounted for this run.
std::string stagesJson(const CertificationReport &R) {
  std::string Out = "[";
  for (size_t I = 0; I != R.Stages.size(); ++I) {
    const StageAttempt &A = R.Stages[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"engine\":\"%s\",\"completed\":%s,\"us\":%.1f,"
                  "\"iterations\":%llu,\"peak_structures\":%llu}",
                  I ? "," : "", A.Engine.c_str(),
                  A.Completed ? "true" : "false", A.Spend.Micros,
                  static_cast<unsigned long long>(A.Spend.Iterations),
                  static_cast<unsigned long long>(A.Spend.PeakStructures));
    Out += Buf;
  }
  return Out + "]";
}

const EngineKind AllEngines[] = {
    EngineKind::SCMPIntra, EngineKind::SCMPInterproc,
    EngineKind::TVLAIndependent, EngineKind::TVLARelational,
    EngineKind::GenericAllocSite};

struct Cell {
  size_t Checks = 0;
  unsigned Flagged = 0;
  unsigned FalseAlarms = 0;
  unsigned Missed = 0;
  double Micros = 0;
};

Cell runOne(const Certifier &C, const bench::BenchClient &Client) {
  Cell Out;
  DiagnosticEngine Diags;
  cj::Program P = cj::parseProgram(Client.Source, Diags);
  CertificationReport R;
  Out.Micros = bench::minOfN(
      [&] {
        DiagnosticEngine D2;
        R = C.certify(P, D2);
      },
      /*Warmup=*/1, /*Reps=*/3);
  Out.Checks = R.numChecks();
  Out.Flagged = R.numFlagged();
  SiteComparison Cmp = compareWithGroundTruth(R, C.spec(), P);
  Out.FalseAlarms = Cmp.FalseAlarms;
  Out.Missed = Cmp.Missed;
  return Out;
}

void printTable() {
  std::printf("=== Section 7 reproduction: precision and time per engine "
              "===\n");
  std::printf("%-20s", "client");
  for (EngineKind K : AllEngines)
    std::printf(" | %-24s", engineName(K));
  std::printf("\n%-20s", "");
  for (size_t I = 0; I != std::size(AllEngines); ++I)
    std::printf(" | %-24s", "chk flag FA miss  us");
  std::printf("\n");

  unsigned TotalFA[std::size(AllEngines)] = {};
  unsigned TotalMissed[std::size(AllEngines)] = {};
  for (const bench::BenchClient &Client : bench::cmpSuite()) {
    std::printf("%-20s", Client.Name);
    size_t EIdx = 0;
    for (EngineKind K : AllEngines) {
      DiagnosticEngine Diags;
      Certifier C(easl::cmpSpecSource(), K, Diags);
      Cell Cl = runOne(C, Client);
      TotalFA[EIdx] += Cl.FalseAlarms;
      TotalMissed[EIdx] += Cl.Missed;
      std::printf(" | %3zu %4u %2u %4u %5.0f", Cl.Checks, Cl.Flagged,
                  Cl.FalseAlarms, Cl.Missed, Cl.Micros);
      ++EIdx;
    }
    std::printf("\n");
  }
  std::printf("%-20s", "TOTAL false alarms");
  for (size_t I = 0; I != std::size(AllEngines); ++I)
    std::printf(" | %8u (missed %u)     ", TotalFA[I], TotalMissed[I]);
  std::printf("\n\n");
}

//===----------------------------------------------------------------------===//
// Stage-0 partition: per suite client, SCMPIntra's boolean programs
// built over the Stage-0 slice partition versus unpartitioned — total
// and peak B, and the min-of-N build + fixpoint time summed over the
// client's methods — plus the certifier's own slicing statistics.
// Emitted both as a table and as one machine-readable JSON object on
// stdout.
//===----------------------------------------------------------------------===//

struct BuildSide {
  double Micros = 0; ///< Best-of-5 build + fixpoint over all methods.
  size_t BoolVars = 0;
  size_t MaxBoolVars = 0;
  std::vector<CheckOutcome> Outcomes;
};

BuildSide runBuildSide(const wp::DerivedAbstraction &Abs,
                       const dataflow::PreAnalysisResult &PA,
                       bool Partitioned) {
  BuildSide Side;
  Side.Micros = bench::minOfN([&] {
    Side.BoolVars = Side.MaxBoolVars = 0;
    Side.Outcomes.clear();
    for (const dataflow::MethodPlan &Plan : PA.Plans) {
      DiagnosticEngine D;
      const bp::BooleanProgram BP =
          Partitioned && Plan.multiSlice()
              ? bp::buildBooleanProgram(Abs, *Plan.Source, D, Plan.Slices)
              : bp::buildBooleanProgram(Abs, *Plan.Source, D);
      const bp::IntraResult R = bp::analyzeIntraproc(BP);
      Side.BoolVars += BP.Vars.size();
      Side.MaxBoolVars = std::max(Side.MaxBoolVars, BP.Vars.size());
      Side.Outcomes.insert(Side.Outcomes.end(), R.CheckResults.begin(),
                           R.CheckResults.end());
    }
  });
  return Side;
}

void printStageZero() {
  std::printf("=== Stage-0 partition (scmp-intra build + fixpoint) ===\n");
  std::printf("%-20s | %21s | %28s | %s\n", "client",
              "unpart:  B maxB    us", "part:  B maxB    us slices", "same");
  std::string Json = "{\"bench\":\"stage0-partition\",\"engine\":"
                     "\"scmp-intra\",\"clients\":[";
  bool First = true;
  for (const bench::BenchClient &Client : bench::cmpSuite()) {
    DiagnosticEngine Diags;
    Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags);
    cj::Program P = cj::parseProgram(Client.Source, Diags);
    cj::ClientCFG CFG = cj::buildCFG(P, C.spec(), Diags);
    const dataflow::PreAnalysisResult PA =
        dataflow::preAnalyze(CFG, C.abstraction());
    const BuildSide Whole = runBuildSide(C.abstraction(), PA, false);
    const BuildSide Parts = runBuildSide(C.abstraction(), PA, true);
    const CertificationReport Report = C.certify(P, Diags);
    const bool Same = Whole.Outcomes == Parts.Outcomes;
    std::printf("%-20s | %9zu %4zu %5.0f | %9zu %4zu %5.0f %6u | %s\n",
                Client.Name, Whole.BoolVars, Whole.MaxBoolVars, Whole.Micros,
                Parts.BoolVars, Parts.MaxBoolVars, Parts.Micros,
                PA.multiSliceMethods(), Same ? "yes" : "NO");
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "%s{\"name\":\"%s\","
        "\"unpartitioned\":{\"us\":%.1f,\"boolvars\":%zu,"
        "\"max_boolvars\":%zu},"
        "\"partitioned\":{\"us\":%.1f,\"boolvars\":%zu,"
        "\"max_boolvars\":%zu,\"slice_runs\":%u,"
        "\"multi_slice_methods\":%u},"
        "\"verdicts_identical\":%s,\"stages\":",
        First ? "" : ",", Client.Name, Whole.Micros, Whole.BoolVars,
        Whole.MaxBoolVars, Parts.Micros, Parts.BoolVars, Parts.MaxBoolVars,
        Report.Pre.SliceRuns, Report.Pre.MultiSliceMethods,
        Same ? "true" : "false");
    Json += Buf;
    Json += stagesJson(Report) + "}";
    First = false;
  }
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

//===----------------------------------------------------------------------===//
// Relational-TVLA hot-path benchmark: per-client wall time of the
// relational configuration (the most expensive rung of the ladder),
// with the structure-interner and transfer-cache statistics once the
// engine reports them. The BENCH_JSON line is what
// tools/bench_capture.sh snapshots into BENCH_tvla.json.
//===----------------------------------------------------------------------===//

void printTVLAPerf() {
  std::printf("=== Relational TVLA hot path ===\n");
  std::printf("%-20s %10s %8s %6s %12s %10s %10s\n", "client", "us", "checks",
              "flag", "structs", "hits", "misses");
  std::string Json = "{\"bench\":\"tvla-relational-perf\",\"clients\":[";
  bool First = true;
  for (const bench::BenchClient &Client : bench::cmpSuite()) {
    DiagnosticEngine Diags;
    Certifier C(easl::cmpSpecSource(), EngineKind::TVLARelational, Diags);
    cj::Program P = cj::parseProgram(Client.Source, Diags);
    CertificationReport R;
    double Best = bench::minOfN(
        [&] {
          DiagnosticEngine D2;
          R = C.certify(P, D2);
        },
        /*Warmup=*/1, /*Reps=*/3);
    std::printf("%-20s %10.0f %8zu %6u %12llu %10llu %10llu\n", Client.Name,
                Best, R.numChecks(), R.numFlagged(),
                static_cast<unsigned long long>(R.Tvla.InternedStructures),
                static_cast<unsigned long long>(R.Tvla.TransferCacheHits),
                static_cast<unsigned long long>(R.Tvla.TransferCacheMisses));
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "%s{\"name\":\"%s\",\"us\":%.1f,\"checks\":%zu,\"flagged\":%u,"
        "\"interned_structures\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"max_structures_per_point\":%u}",
        First ? "" : ",", Client.Name, Best, R.numChecks(), R.numFlagged(),
        static_cast<unsigned long long>(R.Tvla.InternedStructures),
        static_cast<unsigned long long>(R.Tvla.TransferCacheHits),
        static_cast<unsigned long long>(R.Tvla.TransferCacheMisses),
        R.Tvla.MaxStructuresPerPoint);
    Json += Buf;
    First = false;
  }
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

//===----------------------------------------------------------------------===//
// Proof-carrying certificate overhead: per client and per proving
// engine, the plain analysis time, the analysis time with certificate
// emission, the serialized size with the raw-vs-pruned entry counts
// (the ACC size-reduction trick), and the independent checker's time —
// which the design requires to be well below a full re-analysis.
//===----------------------------------------------------------------------===//

struct CertPerfCell {
  double PlainUs = 0; ///< Warm min-of-3, no certificates.
  double EmitUs = 0;  ///< Warm min-of-3, EmitCertificates on.
  /// Counts and bytes of the warm Emit+Check runs (deterministic); its
  /// EmitMicros and CheckMicros are min-of-3 like EmitUs.
  CertificateStats Stats;
};

CertPerfCell runCertPerf(EngineKind K, const bench::BenchClient &Client) {
  CertPerfCell Cell;
  DiagnosticEngine Diags;
  cj::Program P = cj::parseProgram(Client.Source, Diags);

  Certifier Plain(easl::cmpSpecSource(), K, Diags);
  Cell.PlainUs = bench::minOfN(
      [&] {
        DiagnosticEngine D2;
        CertificationReport R = Plain.certify(P, D2);
        benchmark::DoNotOptimize(R.numFlagged());
      },
      /*Warmup=*/1, /*Reps=*/3);

  CertifierOptions Opts;
  Opts.EmitCertificates = true;
  Opts.CheckCertificates = true;
  Certifier WithCerts(easl::cmpSpecSource(), K, Diags, {}, Opts);
  int Runs = 0; // The first run is minOfN's untimed warm-up.
  Cell.EmitUs = bench::minOfN(
      [&] {
        DiagnosticEngine D2;
        CertificationReport R = WithCerts.certify(P, D2);
        if (Runs++ < 2) {
          Cell.Stats = R.CertStats;
          return;
        }
        Cell.Stats.EmitMicros =
            std::min(Cell.Stats.EmitMicros, R.CertStats.EmitMicros);
        Cell.Stats.CheckMicros =
            std::min(Cell.Stats.CheckMicros, R.CertStats.CheckMicros);
      },
      /*Warmup=*/1, /*Reps=*/3);
  return Cell;
}

void printCertificatePerf() {
  const EngineKind Proving[] = {EngineKind::SCMPIntra,
                                EngineKind::TVLARelational};
  std::printf("=== Proof-carrying certificate overhead ===\n");
  std::printf("%-20s %-16s %8s %8s %8s %6s %9s %8s %8s\n", "client", "engine",
              "plain us", "emit us", "check us", "certs", "bytes", "raw",
              "stored");
  std::string Json = "{\"bench\":\"tvla-certificates\",\"clients\":[";
  bool First = true;
  for (const bench::BenchClient &Client : bench::cmpSuite()) {
    for (EngineKind K : Proving) {
      CertPerfCell Cell = runCertPerf(K, Client);
      std::printf("%-20s %-16s %8.0f %8.0f %8.0f %6u %9zu %8llu %8llu\n",
                  Client.Name, engineName(K), Cell.PlainUs, Cell.EmitUs,
                  Cell.Stats.CheckMicros, Cell.Stats.Count, Cell.Stats.Bytes,
                  static_cast<unsigned long long>(Cell.Stats.RawEntries),
                  static_cast<unsigned long long>(Cell.Stats.StoredEntries));
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s{\"name\":\"%s\",\"engine\":\"%s\",\"plain_us\":%.1f,"
          "\"emit_us\":%.1f,\"emit_overhead_us\":%.1f,\"check_us\":%.1f,"
          "\"certs\":%u,\"bytes\":%zu,\"raw_entries\":%llu,"
          "\"stored_entries\":%llu}",
          First ? "" : ",", Client.Name, engineName(K), Cell.PlainUs,
          Cell.EmitUs, Cell.Stats.EmitMicros, Cell.Stats.CheckMicros,
          Cell.Stats.Count, Cell.Stats.Bytes,
          static_cast<unsigned long long>(Cell.Stats.RawEntries),
          static_cast<unsigned long long>(Cell.Stats.StoredEntries));
      Json += Buf;
      First = false;
    }
  }
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

/// Timing benchmark: client analysis per engine (certifier generation is
/// hoisted out, reflecting the staged design — abstraction derivation
/// happens once at certifier-generation time).
void BM_CertifyClient(benchmark::State &State) {
  EngineKind K = AllEngines[State.range(0)];
  const bench::BenchClient &Client = bench::cmpSuite()[State.range(1)];
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags);
  cj::Program P = cj::parseProgram(Client.Source, Diags);
  for (auto _ : State) {
    DiagnosticEngine D2;
    CertificationReport R = C.certify(P, D2);
    benchmark::DoNotOptimize(R.numFlagged());
  }
  State.SetLabel(std::string(engineName(K)) + "/" + Client.Name);
}

} // namespace

BENCHMARK(BM_CertifyClient)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  printTable();
  printStageZero();
  printTVLAPerf();
  printCertificatePerf();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
