//===----------------------------------------------------------------------===//
///
/// \file
/// The shard worker: one process certifying corpus clients streamed to
/// it over the Protocol.h pipe framing. The worker builds its certifier
/// ONCE from the argv configuration, then loops read-Task /
/// certify / write-Result until Shutdown or EOF — so spec parsing and
/// abstraction derivation are paid per process, not per client, and the
/// per-client result is exactly what a serial canvas_certify run would
/// print (the merger's byte-identity contract).
///
/// certifyClient() is the single definition of "one client's result":
/// the worker loop, the driver's in-process serial mode, and the tests
/// all call it, so the sharded and serial paths cannot drift apart.
///
/// Crash hook for the requeue tests: when the environment variable
/// CANVAS_SHARD_CRASH_AT names the task's client, the worker _exit(42)s
/// before certifying — only on the first attempt (Retry == 0) unless
/// the value carries an ":always" suffix, which kills every attempt so
/// the requeue path's Degraded outcome is reachable deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SHARD_WORKER_H
#define CANVAS_SHARD_WORKER_H

#include "core/Certifier.h"
#include "shard/Protocol.h"
#include "support/Budget.h"

#include <string>
#include <vector>

namespace canvas {
namespace shard {

/// The worker-side configuration, carried on the worker's argv so a
/// worker is fully described by its command line (no config frames, no
/// shared memory).
struct WorkerOptions {
  /// Spec argument exactly as the driver received it: a builtin name
  /// (cmp/grp/imp/aop) or a file path, resolved by resolveSpec().
  std::string SpecArg = "cmp";
  core::EngineKind Engine = core::EngineKind::SCMPIntra;
  std::string StorePath;
  store::StoreMode StoreMode = store::StoreMode::ReadWrite;
  /// The per-shard admission controller: each engine rung of each
  /// client runs under this budget, degrading down the ladder on
  /// exhaustion exactly as in-process certification does.
  support::StageBudget Budget;
};

/// Resolves a --spec argument (builtin name or file path) to spec
/// source text. False with \p Error when the file cannot be read.
bool resolveSpec(const std::string &SpecArg, std::string &Out,
                 std::string &Error);

/// Renders \p O as worker argv flags (the inverse of
/// parseWorkerFlag()); the driver appends these after "--worker".
std::vector<std::string> workerArgs(const WorkerOptions &O);

/// Parses one worker flag into \p O. Returns false when \p Arg is not
/// recognized (the caller decides whether that is fatal).
bool parseWorkerFlag(const std::string &Arg, WorkerOptions &O);

/// Certifies one client with \p C and fills \p Out completely (report
/// text, verdict counts, per-method records, store accounting, wall
/// clock, worker pid). Never throws: a failed parse or a certifier
/// error becomes a ParseFailed result whose DiagText explains it — a
/// client is never silently dropped.
void certifyClient(const core::Certifier &C, uint32_t Index,
                   const std::string &Name, const std::string &Source,
                   ResultMsg &Out);

/// The worker protocol loop on stdin/stdout. Returns the process exit
/// code: 0 on orderly Shutdown/EOF, 2 when the configuration is
/// invalid (bad spec), 3 on a protocol violation from the driver.
int workerMain(const WorkerOptions &O);

} // namespace shard
} // namespace canvas

#endif // CANVAS_SHARD_WORKER_H
