//===----------------------------------------------------------------------===//
///
/// \file
/// Corpus handling for the sharded driver: loading a directory of CJ
/// clients with their scheduling costs, and generating synthetic
/// corpora (deterministic in the seed) for the scaling bench and the
/// determinism tests.
///
/// A client's scheduling cost is its source length in bytes, read off
/// the loaded text, so nothing is parsed or lowered before the first
/// task goes out. Length is also the better predictor: over the 200
/// clients of generated corpus seed 7, against each client's measured
/// certify + report time, it correlates at Spearman 0.96 and Pearson
/// 0.94-0.95, where a per-method |edges| x (1 + B)^2 estimate from a
/// parse and CFG build of every client reached 0.94 and 0.74-0.75. The
/// cost orders work, nothing else; a bad estimate costs tail latency,
/// never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SHARD_CORPUS_H
#define CANVAS_SHARD_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace canvas {

namespace easl {
struct Spec;
}
namespace wp {
struct DerivedAbstraction;
}

namespace shard {

/// One corpus client. Index order (the load order: sorted by name) is
/// the canonical report order at every shard count.
struct CorpusClient {
  std::string Name;   ///< File name without the .cj suffix.
  std::string Path;   ///< Full path (diagnostics only).
  std::string Source; ///< CJ source text, shipped to workers verbatim.
  uint64_t Cost = 1;  ///< Scheduler cost: source bytes (file comment).
};

/// Loads every *.cj file under \p Dir (non-recursive), sorted by file
/// name, with Cost set to the source length. False with \p Error on
/// I/O failure or an empty corpus.
bool loadCorpus(const std::string &Dir, std::vector<CorpusClient> &Out,
                std::string &Error);

/// Sets every client's Cost to its source length, as loadCorpus does,
/// for clients built in memory. \p Spec and \p Abs are not read.
void estimateCosts(std::vector<CorpusClient> &Corpus, const easl::Spec &Spec,
                   const wp::DerivedAbstraction &Abs);

/// Writes \p Count generated CJ clients (gen-0000.cj ...) into \p Dir,
/// creating it if needed. Deterministic in \p Seed: the same (Count,
/// Seed) always produces byte-identical files, so tests and benches can
/// regenerate rather than commit corpora. Clients target the built-in
/// CMP (Set/Iterator) spec and span a deliberate size spread — single
/// tiny methods up to multi-method, multi-set, nested-loop clients —
/// with a fraction containing real conformance violations.
bool generateCorpus(const std::string &Dir, unsigned Count, uint64_t Seed,
                    std::string &Error);

} // namespace shard
} // namespace canvas

#endif // CANVAS_SHARD_CORPUS_H
