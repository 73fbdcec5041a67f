//===----------------------------------------------------------------------===//
//
// The complexity figure: intraprocedural SCMP certification is
// O(E * B^2) (Section 4.3), where E is the number of CFG edges and B
// the number of iterator/collection variables. Synthetic clients sweep
// B (iterator count) and E (statement count) independently; the series
// should grow quadratically in B and linearly in E. A third series
// shows what the Stage-0 slice partition saves at large B: K
// independent pipelines of M iterators, built and analyzed with and
// without the partition.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "boolprog/Analysis.h"
#include "client/CFG.h"
#include "client/Parser.h"
#include "dataflow/PreAnalysis.h"
#include "easl/Builtins.h"
#include "tvla/Certify.h"

#include <benchmark/benchmark.h>
#include <chrono>
#include <cstdio>
#include <string>

using namespace canvas;

namespace {

/// B iterators over one set, each created and used once, followed by a
/// mutation/refresh loop.
std::string clientWithIterators(unsigned B) {
  std::string Src = "class Scale { void main() {\n  Set s = new Set();\n";
  for (unsigned I = 0; I != B; ++I) {
    std::string V = "i" + std::to_string(I);
    Src += "  Iterator " + V + " = s.iterator();\n  " + V + ".next();\n";
  }
  Src += "  while (*) { s.add(); Iterator t = s.iterator(); t.next(); }\n";
  Src += "} }\n";
  return Src;
}

/// Fixed variable count, E repetitions of a use block (linear factor).
std::string clientWithStatements(unsigned E) {
  std::string Src = "class Scale { void main() {\n  Set s = new Set();\n"
                    "  Iterator i = s.iterator();\n";
  for (unsigned K = 0; K != E; ++K)
    Src += "  i.next();\n  if (*) { i.remove(); }\n";
  Src += "} }\n";
  return Src;
}

struct Prepared {
  easl::Spec Spec;
  wp::DerivedAbstraction Abs;
  cj::Program Prog;
  cj::ClientCFG CFG;
  bp::BooleanProgram BP;
};

Prepared prepare(const std::string &Source) {
  Prepared P;
  P.Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  P.Abs = wp::deriveAbstraction(P.Spec, Diags);
  P.Prog = cj::parseProgram(Source, Diags);
  P.CFG = cj::buildCFG(P.Prog, P.Spec, Diags);
  P.BP = bp::buildBooleanProgram(P.Abs, *P.CFG.mainCFG(), Diags);
  return P;
}

/// One row of a series: the fixpoint time, and the boolean-program
/// build time that precedes it (both min-of-N).
void printRow(unsigned N, const Prepared &P) {
  DiagnosticEngine Diags;
  double BuildUs = bench::minOfN([&] {
    bp::BooleanProgram BP =
        bp::buildBooleanProgram(P.Abs, *P.CFG.mainCFG(), Diags);
    benchmark::DoNotOptimize(BP.Vars.size());
  });
  bp::IntraResult R;
  double Us = bench::minOfN([&] { R = bp::analyzeIntraproc(P.BP); });
  std::printf("%6u %10zu %10zu %12u %10.0f %10.0f\n", N,
              P.CFG.mainCFG()->Edges.size(), P.BP.Vars.size(), R.Iterations,
              Us, BuildUs);
}

void printSeries() {
  std::printf("=== Scaling in B (iterator variables); boolean variables "
              "grow as B^2 ===\n");
  std::printf("%6s %10s %10s %12s %10s %10s\n", "B", "CFG edges",
              "bool vars", "fixpt iters", "time (us)", "build (us)");
  for (unsigned B : {2, 4, 8, 16, 32, 64})
    printRow(B, prepare(clientWithIterators(B)));

  std::printf("\n=== Scaling in E (statements); fixed variable set ===\n");
  std::printf("%6s %10s %10s %12s %10s %10s\n", "E", "CFG edges",
              "bool vars", "fixpt iters", "time (us)", "build (us)");
  for (unsigned E : {8, 16, 32, 64, 128, 256})
    printRow(E, prepare(clientWithStatements(E)));
  std::printf("\n");
}

/// One row of the pipelines series: B and the min-of-N build + fixpoint
/// time of main()'s boolean program, unpartitioned and over the Stage-0
/// slice partition; appends the row's JSON object to \p Json.
void printPipelinesRow(unsigned K, unsigned M, std::string &Json) {
  const Prepared P = prepare(bench::pipelinesClient(K, M));
  const cj::CFGMethod &Main = *P.CFG.mainCFG();
  const dataflow::PreAnalysisResult PA = dataflow::preAnalyze(P.CFG, P.Abs);
  const std::vector<std::vector<std::string>> &Parts =
      PA.Plans[&Main - P.CFG.Methods.data()].Slices;
  DiagnosticEngine Diags;
  size_t PartB = 0;
  const double WholeUs = bench::minOfN([&] {
    bp::BooleanProgram BP = bp::buildBooleanProgram(P.Abs, Main, Diags);
    benchmark::DoNotOptimize(bp::analyzeIntraproc(BP).Iterations);
  });
  const double PartUs = bench::minOfN([&] {
    bp::BooleanProgram BP = bp::buildBooleanProgram(P.Abs, Main, Diags, Parts);
    PartB = BP.Vars.size();
    benchmark::DoNotOptimize(bp::analyzeIntraproc(BP).Iterations);
  });
  std::printf("%4u %4u %6zu %10zu %8zu %12.0f %10.0f %8.1fx\n", K, M,
              Parts.size(), P.BP.Vars.size(), PartB, WholeUs, PartUs,
              WholeUs / PartUs);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s{\"k\":%u,\"m\":%u,\"slices\":%zu,"
                "\"unpartitioned\":{\"boolvars\":%zu,\"us\":%.0f},"
                "\"partitioned\":{\"boolvars\":%zu,\"us\":%.0f}}",
                Json.back() == '[' ? "" : ",", K, M, Parts.size(),
                P.BP.Vars.size(), WholeUs, PartB, PartUs);
  Json += Buf;
}

void printPipelinesSeries() {
  std::printf("=== Pipelines: K independent Set pipelines of M iterators; "
              "build + fixpoint ===\n");
  std::printf("%4s %4s %6s %10s %8s %12s %10s %9s\n", "K", "M", "slices",
              "B unpart", "B part", "unpart (us)", "part (us)", "speedup");
  std::string Json = "{\"bench\":\"scmp-pipelines\",\"series\":[";
  const std::pair<unsigned, unsigned> Shapes[] = {
      {4, 4}, {8, 4}, {8, 8}, {16, 4}, {16, 8}, {8, 16}, {4, 32}, {32, 4}};
  for (const auto &[K, M] : Shapes)
    printPipelinesRow(K, M, Json);
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

/// B iterators over one set, each refreshed and consumed inside a
/// shared loop: the relational TVLA engine's structure sets grow with
/// B, and every loop revisit re-transfers every resident structure —
/// the workload the interner's (StructId, edge) memo table targets.
std::string tvlaClient(unsigned B) {
  std::string Src = "class Scale { void main() {\n  Set s = new Set();\n";
  for (unsigned I = 0; I != B; ++I)
    Src += "  Iterator i" + std::to_string(I) + " = s.iterator();\n";
  Src += "  while (*) {\n";
  for (unsigned I = 0; I != B; ++I) {
    std::string V = "i" + std::to_string(I);
    Src += "    " + V + ".next();\n    if (*) { " + V +
           " = s.iterator(); }\n";
  }
  Src += "  }\n";
  for (unsigned I = 0; I != B; ++I)
    Src += "  i" + std::to_string(I) + ".next();\n";
  Src += "} }\n";
  return Src;
}

void printTVLASeries() {
  std::printf("=== Relational TVLA scaling in B (iterator variables) ===\n");
  std::printf("%6s %12s %12s %10s %10s %10s\n", "B", "fixpt iters",
              "structs", "hits", "misses", "time (us)");
  std::string Json = "{\"bench\":\"tvla-relational-scaling\",\"series\":[";
  for (unsigned B : {1, 2, 3, 4}) {
    Prepared P = prepare(tvlaClient(B));
    DiagnosticEngine Diags;
    tvla::TVLAOptions Opts;
    Opts.Relational = true;
    tvla::TVLAResult R;
    double Us = bench::minOfN([&] {
      R = tvla::certifyWithTVLA(P.Spec, P.Abs, *P.CFG.mainCFG(), Opts, Diags);
    });
    std::printf("%6u %12u %12llu %10llu %10llu %10.0f\n", B, R.Iterations,
                static_cast<unsigned long long>(R.InternedStructures),
                static_cast<unsigned long long>(R.TransferCacheHits),
                static_cast<unsigned long long>(R.TransferCacheMisses), Us);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"b\":%u,\"us\":%.0f,\"iterations\":%u,"
                  "\"interned_structures\":%llu,\"cache_hits\":%llu,"
                  "\"cache_misses\":%llu}",
                  B == 1 ? "" : ",", B, Us, R.Iterations,
                  static_cast<unsigned long long>(R.InternedStructures),
                  static_cast<unsigned long long>(R.TransferCacheHits),
                  static_cast<unsigned long long>(R.TransferCacheMisses));
    Json += Buf;
  }
  Json += "]}";
  std::printf("\nBENCH_JSON %s\n\n", Json.c_str());
}

void BM_AnalyzeByIterators(benchmark::State &State) {
  Prepared P = prepare(clientWithIterators(State.range(0)));
  for (auto _ : State) {
    bp::IntraResult R = bp::analyzeIntraproc(P.BP);
    benchmark::DoNotOptimize(R.Iterations);
  }
  State.counters["boolvars"] = P.BP.Vars.size();
  State.SetComplexityN(State.range(0));
}

void BM_AnalyzeByStatements(benchmark::State &State) {
  Prepared P = prepare(clientWithStatements(State.range(0)));
  for (auto _ : State) {
    bp::IntraResult R = bp::analyzeIntraproc(P.BP);
    benchmark::DoNotOptimize(R.Iterations);
  }
  State.SetComplexityN(State.range(0));
}

} // namespace

BENCHMARK(BM_AnalyzeByIterators)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();
BENCHMARK(BM_AnalyzeByStatements)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

int main(int argc, char **argv) {
  printSeries();
  printPipelinesSeries();
  printTVLASeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
