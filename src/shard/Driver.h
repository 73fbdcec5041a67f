//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded certification driver: partitions a corpus across N
/// worker processes, streams per-method verdict JSONL rows as results
/// land, and merges the streamed records back into a report that is
/// byte-identical to the serial run at ANY shard count.
///
/// Scheduling is dynamic largest-first (work stealing by pull): tasks
/// sit in one queue ordered by descending cost (the client's source
/// length), every idle worker pulls the next task the moment it
/// finishes its previous one, so the expensive stragglers start first
/// and no worker idles while work remains — the tail is bounded by the
/// single largest client, not by a static partition's worst bin.
///
/// Determinism argument: a worker's Result carries the exact report
/// text a serial run would print for that client (the worker and the
/// serial path share shard::certifyClient). The merger buffers results
/// keyed by corpus index and concatenates them in corpus order, so the
/// merged report is a pure function of (corpus, options) — scheduling
/// order, shard count, and arrival order cancel out. The streaming
/// JSONL rows deliberately keep completion order (that is their point);
/// only the merged report is order-canonical.
///
/// Crash discipline: a worker that dies mid-task (EOF or torn frame on
/// its pipe) has its in-flight task requeued ONCE at the front of the
/// queue with Retry = 1 and a replacement worker spawned; a second
/// death marks the client Degraded in the merged report — never
/// silently dropped. Respawns are capped so a crash-looping
/// configuration terminates.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SHARD_DRIVER_H
#define CANVAS_SHARD_DRIVER_H

#include "shard/Corpus.h"
#include "shard/Protocol.h"
#include "shard/Worker.h"

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace canvas {
namespace shard {

struct DriverOptions {
  unsigned Shards = 1;
  /// The worker executable (usually selfExecutablePath()); the driver
  /// spawns: WorkerExe --worker <workerArgs(Worker)...>.
  std::string WorkerExe;
  WorkerOptions Worker;
  /// Extra environment for workers ("KEY=VALUE"; tests inject
  /// CANVAS_SHARD_CRASH_AT / CANVAS_FAULT here).
  std::vector<std::string> WorkerEnv;
  /// Emit SHARD_JSONL rows to the stream sink as results arrive.
  bool Stream = true;
};

/// Aggregated run accounting (the BENCH_JSON shard lines' source).
struct ShardRunStats {
  unsigned Shards = 0;
  unsigned Clients = 0;
  unsigned Flagged = 0;       ///< Clients with any flagged check.
  unsigned ParseFailed = 0;   ///< Clients whose source did not build.
  unsigned DegradedClients = 0;
  unsigned Requeues = 0;        ///< Crash-requeued tasks (first deaths).
  unsigned CrashedClients = 0;  ///< Clients degraded by a second death.
  unsigned WorkerRespawns = 0;
  uint64_t StoreHits = 0;
  uint64_t StoreMisses = 0;
  uint64_t StoreRejected = 0;
  uint64_t StoreQuarantined = 0;
  uint64_t StoreWrites = 0;
  /// Store hits per worker pid: the cross-shard reuse evidence (warm
  /// runs must show hits from >= 2 distinct pids at >= 2 shards).
  std::map<uint32_t, uint64_t> HitsByPid;
  /// Sum of worker-side per-client wall clocks (not the driver's).
  uint64_t WorkerMicros = 0;
};

/// Runs \p Corpus across Opts.Shards workers. The merged report goes to
/// \p MergedOut; SHARD_JSONL rows go to \p StreamOut as they land.
/// False with \p Error on an unrecoverable driver failure (cannot
/// spawn, respawn budget exhausted, protocol violation).
bool runSharded(const std::vector<CorpusClient> &Corpus,
                const DriverOptions &Opts, std::ostream &MergedOut,
                std::ostream &StreamOut, ShardRunStats &Stats,
                std::string &Error);

/// The in-process serial reference: certifies the corpus in index order
/// with one certifier, emitting the identical merged report and JSONL
/// vocabulary. runSharded at any shard count must be byte-identical to
/// this (the determinism suite enforces it).
bool runSerial(const std::vector<CorpusClient> &Corpus,
               const DriverOptions &Opts, std::ostream &MergedOut,
               std::ostream &StreamOut, ShardRunStats &Stats,
               std::string &Error);

/// The SHARD_JSONL rows of one result: one row per method verdict
/// record plus a client summary row (exposed for tests).
std::string jsonlRows(const ResultMsg &R);

/// The merged-report section of one client (exposed for tests).
std::string mergedSection(const std::string &Name, const ResultMsg &R);

/// The deterministic section text of a client whose worker crashed
/// twice.
std::string crashedSection(const std::string &Name);

} // namespace shard
} // namespace canvas

#endif // CANVAS_SHARD_DRIVER_H
