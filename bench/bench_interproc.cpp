//===----------------------------------------------------------------------===//
//
// The Section 8 table: intraprocedural (conservative at client calls)
// versus context-sensitive interprocedural SCMP certification on
// multi-procedure clients. The interprocedural engine removes the
// false alarms the intraprocedural engine produces at call boundaries
// while still catching the real cross-procedure bugs. Its µs columns
// (and the "interproc-ifds" BENCH_JSON line's "us") are min-of-N
// certify() times, each engine timed in its own loop.
//
// Then the engine's cost on the 13 bench-suite clients: per client the
// min-of-N certify() time of scmp-interproc and of scmp-intra (each
// engine timed in its own loop) with the IFDS counters, as the
// "interproc-suite" BENCH_JSON line that tools/bench_capture.sh
// snapshots and tools/ci.sh gates on.
//
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"
#include "core/Evaluation.h"
#include "easl/Builtins.h"

#include "Suite.h"

#include <benchmark/benchmark.h>
#include <cstdio>
#include <thread>

using namespace canvas;
using namespace canvas::core;

namespace {

/// Warm-up runs and timed repetitions of every min-of-N timing here.
constexpr int Warmup = 3, Reps = 60;

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

struct Prog {
  const char *Name;
  const char *Source;
};

const Prog Programs[] = {
    {"pure-callee", R"(
      class M {
        void main() {
          Set v = new Set();
          Iterator i = v.iterator();
          log(v);
          i.next();
        }
        void log(Set s) { }
      }
    )"},
    {"mutating-callee", R"(
      class M {
        void main() {
          Set v = new Set();
          Iterator i = v.iterator();
          mutate(v);
          i.next();
        }
        void mutate(Set s) { s.add(); }
      }
    )"},
    {"context-split", R"(
      class M {
        void main() {
          Set v = new Set();
          Set w = new Set();
          Iterator i = v.iterator();
          mutate(w);
          i.next();
          mutate(v);
          if (*) { i.next(); }
        }
        void mutate(Set s) { s.add(); }
      }
    )"},
    {"factory-callee", R"(
      class M {
        void main() {
          Set v = new Set();
          Iterator i = fresh(v);
          i.next();
        }
        Iterator fresh(Set s) { return s.iterator(); }
      }
    )"},
    {"deep-chain", R"(
      class M {
        void main() {
          Set v = new Set();
          Iterator i = v.iterator();
          a(v);
          i.next();
        }
        void a(Set s) { b(s); }
        void b(Set s) { c(s); }
        void c(Set s) { }
      }
    )"},
    {"recursive-grower", R"(
      class M {
        void main() {
          Set v = new Set();
          Iterator i = v.iterator();
          grow(v);
          i.next();
        }
        void grow(Set s) { if (*) { s.add(); grow(s); } }
      }
    )"},
};

void printTable() {
  std::printf("=== Section 8: intraprocedural vs interprocedural SCMP "
              "(min of %d) ===\n",
              Reps);
  std::printf("%-18s | %28s | %28s\n", "program",
              "scmp-intra  chk flag FA  us", "scmp-inter  chk flag FA  us");
  std::string Json = "{\"bench\":\"interproc-ifds\",\"clients\":[";
  bool First = true;
  for (const Prog &P : Programs) {
    std::printf("%-18s", P.Name);
    for (EngineKind K : {EngineKind::SCMPIntra, EngineKind::SCMPInterproc}) {
      DiagnosticEngine Diags;
      Certifier C(easl::cmpSpecSource(), K, Diags);
      cj::Program Client = cj::parseProgram(P.Source, Diags);
      CertificationReport R;
      const double Us = bench::minOfN(
          [&] {
            DiagnosticEngine D2;
            R = C.certify(Client, D2);
          },
          Warmup, Reps);
      SiteComparison Cmp = compareWithGroundTruth(R, C.spec(), Client);
      std::printf(" | %11zu %4u %2u %5.0f", R.numChecks(), R.numFlagged(),
                  Cmp.FalseAlarms, Us);
      if (K == EngineKind::SCMPInterproc) {
        char Buf[512];
        std::snprintf(
            Buf, sizeof(Buf),
            "%s{\"name\":\"%s\",\"us\":%.1f,\"checks\":%zu,"
            "\"flagged\":%u,\"false_alarms\":%u,"
            "\"summary_iterations\":%u,\"exploded_nodes\":%zu,"
            "\"path_edges\":%zu,\"summaries\":%zu,\"witness_us\":%.1f,"
            "\"stages\":",
            First ? "" : ",", P.Name, Us, R.numChecks(), R.numFlagged(),
            Cmp.FalseAlarms, R.Inter.SummaryIterations, R.Inter.ExplodedNodes,
            R.Inter.PathEdges, R.Inter.Summaries, R.Inter.WitnessMicros);
        Json += Buf;
        Json += stagesJson(R) + "}";
        First = false;
      }
    }
    std::printf("\n");
  }
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

/// The interproc-suite series. The µs and ratio columns are timings;
/// every other column is deterministic.
void printSuiteCost() {
  std::printf("=== scmp-interproc cost on the bench suite (min of %d) ===\n",
              Reps);
  std::printf("%-20s %10s %10s %6s %6s %8s %9s %10s %9s %7s\n", "client",
              "intra-us", "inter-us", "ratio", "checks", "flagged", "pops",
              "exploded", "path-edges", "summaries");
  std::string Json = "{\"bench\":\"interproc-suite\",\"clients\":[";
  double InterTotal = 0, IntraTotal = 0;
  bool First = true;
  for (const bench::BenchClient &Client : bench::cmpSuite()) {
    double Us[2] = {0, 0};
    CertificationReport Inter;
    for (EngineKind K : {EngineKind::SCMPInterproc, EngineKind::SCMPIntra}) {
      DiagnosticEngine Diags;
      Certifier C(easl::cmpSpecSource(), K, Diags);
      cj::Program P = cj::parseProgram(Client.Source, Diags);
      CertificationReport R;
      Us[K == EngineKind::SCMPIntra] = bench::minOfN(
          [&] {
            DiagnosticEngine D2;
            R = C.certify(P, D2);
          },
          Warmup, Reps);
      if (K == EngineKind::SCMPInterproc)
        Inter = std::move(R);
    }
    InterTotal += Us[0];
    IntraTotal += Us[1];
    const InterprocStats &S = Inter.Inter;
    std::printf("%-20s %10.1f %10.1f %6.2f %6zu %8u %9u %10zu %9zu %7zu\n",
                Client.Name, Us[1], Us[0], Us[0] / Us[1], Inter.numChecks(),
                Inter.numFlagged(), S.SummaryIterations, S.ExplodedNodes,
                S.PathEdges, S.Summaries);
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"interproc_us\":%.1f,"
                  "\"intra_us\":%.1f,\"path_edges\":%zu,\"summaries\":%zu,"
                  "\"visits\":%u,\"exploded_nodes\":%zu,\"flagged\":%u}",
                  First ? "" : ",", Client.Name, Us[0], Us[1], S.PathEdges,
                  S.Summaries, S.SummaryIterations, S.ExplodedNodes,
                  Inter.numFlagged());
    Json += Buf;
    First = false;
  }
  std::printf("%-20s %10.1f %10.1f %6.2f\n", "total", IntraTotal, InterTotal,
              InterTotal / IntraTotal);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "],\"interproc_total_us\":%.1f,\"intra_total_us\":%.1f,"
                "\"reps\":%d,\"nproc\":%u,\"build_type\":\"%s\"}",
                InterTotal, IntraTotal, Reps,
                std::thread::hardware_concurrency(), CANVAS_BUILD_TYPE);
  Json += Buf;
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

void BM_Interproc(benchmark::State &State) {
  const Prog &P = Programs[State.range(0)];
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPInterproc, Diags);
  cj::Program Client = cj::parseProgram(P.Source, Diags);
  for (auto _ : State) {
    DiagnosticEngine D2;
    CertificationReport R = C.certify(Client, D2);
    benchmark::DoNotOptimize(R.numFlagged());
  }
  State.SetLabel(P.Name);
}

} // namespace

BENCHMARK(BM_Interproc)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  printTable();
  printSuiteCost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
