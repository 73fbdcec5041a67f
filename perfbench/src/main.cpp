//===----------------------------------------------------------------------===//
//
// perfbench: the benchmark binary. perfbench/run.py builds it and runs
// each mode in a process of its own.
//
//   perfbench gen     --corpus DIR --corpus-seed N
//       writes the 200-client corpus (shard::generateCorpus).
//   perfbench truth   --workload W --seed N --corpus DIR --work DIR --ref FILE
//       the correctness pass: reference report bytes and ground truth.
//   perfbench measure --workload W --seed N --seconds S --corpus DIR
//                     --work DIR --ref FILE
//       one measured run, tracing off; prints PERFBENCH_RESULT {...}.
//   perfbench trace   --workload W --seed N --corpus DIR --work DIR
//                     --ref FILE --trace-out FILE
//       the traced run; prints PERFBENCH_LAYERS {...}.
//   perfbench --worker <shard worker flags>
//       a shard worker: runSharded re-executes this binary, so every
//       commit is measured with its own worker code.
//
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "shard/Worker.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace canvas;
using namespace perfbench;

int main(int argc, char **argv) {
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    shard::WorkerOptions WO;
    for (int I = 2; I < argc; ++I)
      if (!shard::parseWorkerFlag(argv[I], WO)) {
        std::fprintf(stderr, "perfbench --worker: unknown flag '%s'\n",
                     argv[I]);
        return 2;
      }
    return shard::workerMain(WO);
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|truth|measure|trace "
                         "--workload W [--seed N] ...\n");
    return 2;
  }
  const std::string Mode = argv[1];
  Config C;
  std::string Error;
  if (!parseConfig(argc - 2, argv + 2, C, Error)) {
    std::fprintf(stderr, "perfbench %s: %s\n", Mode.c_str(), Error.c_str());
    return 2;
  }
  if (Mode == "gen") {
    if (!shard::generateCorpus(C.CorpusDir, 200, C.CorpusSeed, Error)) {
      std::fprintf(stderr, "perfbench gen: %s\n", Error.c_str());
      return 2;
    }
    return 0;
  }
  if (Mode == "truth")
    return truthMain(C);
  if (Mode == "measure")
    return measureMain(C);
  if (Mode == "trace")
    return traceMain(C);
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", Mode.c_str());
  return 2;
}
