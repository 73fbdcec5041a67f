//===----------------------------------------------------------------------===//
///
/// \file
/// What every benchmark mode shares: the four workloads, their inputs
/// (the 13-client suite in a seed-shuffled call order, or the generated
/// corpus in a seed-shuffled index order), the program set-up that
/// setup_s times, and the reference file the ground-truth pass writes
/// and the measured and traced runs check against.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "core/Certifier.h"
#include "shard/Corpus.h"
#include "shard/Driver.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace core = canvas::core;
namespace shard = canvas::shard;
using canvas::DiagnosticEngine;

enum class Workload { SuiteEngines, CorpusStoreless, CorpusCold, CorpusWarm };

bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);
inline bool isCorpus(Workload W) { return W != Workload::SuiteEngines; }
inline bool usesStore(Workload W) {
  return W == Workload::CorpusCold || W == Workload::CorpusWarm;
}

/// The command line of the measure, trace and truth modes.
struct Config {
  Workload W = Workload::SuiteEngines;
  uint64_t Seed = 1;       ///< Orders the calls (suite) or clients (corpus).
  uint64_t CorpusSeed = 7; ///< The corpus content (the ROADMAP's corpus).
  double Seconds = 10;
  std::string CorpusDir; ///< Written by `perfbench gen`.
  std::string WorkDir;   ///< Scratch space for stores and traces.
  std::string RefPath;   ///< The ground-truth pass's reference file.
  std::string TracePath; ///< Chrome trace output (trace mode).
  unsigned Shards = 1;   ///< The number of online processors.
};

/// Parses "--key value" pairs after the mode name. False with \p Error
/// on an unknown flag or a missing value.
bool parseConfig(int Argc, char **Argv, Config &C, std::string &Error);

unsigned onlineProcessors();

/// The five engines, in the Section 7 table's order.
extern const core::EngineKind AllEngines[5];

/// One suite call: a bench::cmpSuite() client under one engine.
struct SuiteCall {
  unsigned Client = 0;
  unsigned Engine = 0; ///< Index into AllEngines.
};

/// All 13 x 5 suite calls in the order \p Seed shuffles them to.
std::vector<SuiteCall> suiteOrder(uint64_t Seed);

/// A certifier as every in-process workload builds it: default options
/// except Workers = 1 (a TaskPool of hardware_concurrency() threads
/// would be built inside every certify() call otherwise) and, for the
/// traced run of a store workload, \p StorePath.
std::unique_ptr<core::Certifier>
makeCertifier(core::EngineKind K, DiagnosticEngine &Diags,
              const std::string &StorePath = std::string());

/// The program's set-up before the first timed certification: certifier
/// generation for every engine the workload uses and, on corpus
/// workloads, loading and cost-estimating the corpus (clients permuted
/// into the seed's order).
struct Setup {
  std::vector<std::unique_ptr<core::Certifier>> Certifiers; ///< AllEngines
                                                            ///< order; one
                                                            ///< on corpora.
  std::vector<shard::CorpusClient> Corpus;
};
bool runSetup(const Config &C, Setup &Out, std::string &Error);

/// The shard driver configuration of a corpus workload; \p StorePath is
/// empty on corpus-storeless.
shard::DriverOptions driverOptions(const Config &C,
                                   const std::string &StorePath);

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string digest(const std::string &Bytes);

/// core::compareWithGroundTruth's counts for one report.
struct SiteCounts {
  unsigned Flagged = 0;
  unsigned FalseAlarms = 0;
  unsigned Missed = 0;
};

/// What the ground-truth pass established for one workload's inputs.
struct Reference {
  /// Corpus: the merged report of shard::runSerial over the seed's
  /// order. Suite: unused.
  std::string MergedDigest;
  /// Suite: per call, keyed "client/engine": report digest.
  std::map<std::string, std::string> PairDigest;
  /// Per client (corpus: name; suite: "client/engine"): the ground
  /// truth counts of its reference report.
  std::map<std::string, SiteCounts> Truth;
  std::string CorpusDigest; ///< Digest of the corpus sources (metadata).

  SiteCounts total() const;
};
bool writeReference(const std::string &Path, const Reference &R,
                    std::string &Error);
bool readReference(const std::string &Path, Reference &R, std::string &Error);

std::string pairKey(const SuiteCall &Call);

/// Digest of a corpus' names and sources, whatever its order.
std::string corpusDigest(const std::vector<shard::CorpusClient> &Corpus);

/// Operations attempted and failed in one run, with the first few
/// reasons.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void fail(uint64_t N, const std::string &Why);
};

/// Fails the clients of one shard::runSharded batch of \p Clients
/// clients that its statistics show went wrong: a client that did not
/// parse, was degraded, or was requeued after its worker died; a store
/// incident; and a store that did not do its workload's job (on
/// corpus-warm every unit is a hit, on corpus-cold entries are written).
void checkBatch(Workload W, const shard::ShardRunStats &Stats, size_t Clients,
                Outcome &O);

/// One reported metric; an absent one is a layer the workload does not
/// run.
struct MetricValue {
  const char *Name;
  double Value;
  const char *Unit;
  size_t Samples;
  bool Absent = false;
};

/// Prints the line perfbench/run.py reads: \p Tag, then one JSON object
/// with the outcome, the metadata the binary knows (corpus digest, shard
/// count, build type, compiler) and the metrics.
void printResult(const char *Tag, const Config &C, const Reference &Ref,
                 const Outcome &O, const std::vector<MetricValue> &Metrics);

/// Peak resident set of this process and of its largest reaped child,
/// in MB (a child's peak includes this process's size when it forked).
double peakRssMb();

/// Seconds since \p T0 on the steady clock.
double secondsSince(std::chrono::steady_clock::time_point T0);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
