//===----------------------------------------------------------------------===//
///
/// \file
/// Per-stage resource budgets for the staged certification pipeline
/// (the Section 1.3 ladder made operational): a StageBudget bounds one
/// engine run by wall-clock deadline, fixpoint-iteration count,
/// state/structure count, and approximate allocation volume; a
/// CancelToken carries the budget into the engine and is checked
/// cooperatively inside every fixpoint loop (dataflow worklist,
/// boolean-program intra/interproc engines, the IFDS tabulation solver,
/// and the TVLA engines). Exhaustion raises CertifyError, which the
/// supervisor in core::Certifier translates into a step down the
/// engine-degradation ladder — never an abort.
///
/// The same header hosts the deterministic fault-injection hook
/// (CANVAS_FAULT=<site>:<n>[:<kind>]): engines call faultProbe(site)
/// at their probe sites, and the Nth probe of the named site raises a
/// synthetic throw / timeout / allocation failure, making every
/// degradation path testable without real timeouts.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_BUDGET_H
#define CANVAS_SUPPORT_BUDGET_H

#include "support/CertifyError.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace canvas {
namespace support {

/// Ceilings for one certification stage; 0 means unlimited. The default
/// budget is fully unlimited, so un-budgeted callers see no behavior
/// change.
struct StageBudget {
  double DeadlineMicros = 0;    ///< Wall-clock ceiling for the stage.
  uint64_t MaxIterations = 0;   ///< Fixpoint worklist-pop ceiling.
  uint64_t MaxStructures = 0;   ///< Resident state/structure ceiling.
  uint64_t MaxAllocBytes = 0;   ///< Approximate allocation ceiling.

  bool unlimited() const {
    return DeadlineMicros <= 0 && MaxIterations == 0 && MaxStructures == 0 &&
           MaxAllocBytes == 0;
  }
};

/// What one stage actually consumed — reported per ladder rung in
/// core::CertificationReport and surfaced in the BENCH_JSON lines.
struct ResourceSpend {
  double Micros = 0;
  uint64_t Iterations = 0;
  uint64_t PeakStructures = 0;
  uint64_t AllocBytes = 0;
};

/// The cooperative cancellation handle threaded through every engine.
/// Engines call tick() once per fixpoint iteration, noteStructures()
/// with their current resident state count, and addAllocation() at
/// allocation-heavy points; any ceiling violation throws CertifyError
/// with the corresponding budget kind. A default-constructed token is
/// unlimited and doubles as a pure accounting device.
///
/// core::Certifier makes one token per ladder rung and runs the rung's
/// units one after another on the thread that called certify(), so the
/// counters are plain and the token is not thread-safe. It is
/// deliberately non-copyable: engines hold it by pointer, and a copy
/// would split the rung's spend.
class CancelToken {
public:
  CancelToken() : Start(std::chrono::steady_clock::now()) {}
  explicit CancelToken(const StageBudget &B, std::string StageName = "")
      : B(B), Stage(std::move(StageName)),
        Start(std::chrono::steady_clock::now()) {}

  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  /// One fixpoint iteration: bumps the counter and checks the iteration
  /// and deadline ceilings.
  void tick() {
    ++Iterations;
    if (B.MaxIterations && Iterations > B.MaxIterations)
      throw CertifyError(CertifyErrorKind::BudgetIterations,
                         "fixpoint exceeded " +
                             std::to_string(B.MaxIterations) + " iterations",
                         Stage);
    if (B.DeadlineMicros > 0 && elapsedMicros() > B.DeadlineMicros)
      throw CertifyError(CertifyErrorKind::BudgetDeadline,
                         "stage exceeded its deadline of " +
                             std::to_string(B.DeadlineMicros) + "us",
                         Stage);
  }

  /// Reports the engine's current resident structure/state count;
  /// tracks the peak and enforces the ceiling.
  void noteStructures(uint64_t Current) {
    PeakStructures = std::max(PeakStructures, Current);
    if (B.MaxStructures && Current > B.MaxStructures)
      throw CertifyError(CertifyErrorKind::BudgetStructures,
                         "stage exceeded its ceiling of " +
                             std::to_string(B.MaxStructures) + " structures",
                         Stage);
  }

  /// Approximate allocation accounting: engines report the rough byte
  /// cost of their allocations (states, path edges, structure copies).
  void addAllocation(uint64_t Bytes) {
    AllocBytes += Bytes;
    if (B.MaxAllocBytes && AllocBytes > B.MaxAllocBytes)
      throw CertifyError(CertifyErrorKind::BudgetAllocation,
                         "stage exceeded its allocation budget of " +
                             std::to_string(B.MaxAllocBytes) + " bytes",
                         Stage);
  }

  double elapsedMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

  /// Snapshot of the resources consumed so far.
  ResourceSpend spend() const {
    return {elapsedMicros(), Iterations, PeakStructures, AllocBytes};
  }

  const StageBudget &budget() const { return B; }
  const std::string &stage() const { return Stage; }

private:
  StageBudget B;
  std::string Stage;
  std::chrono::steady_clock::time_point Start;
  uint64_t Iterations = 0;
  uint64_t PeakStructures = 0;
  uint64_t AllocBytes = 0;
};

//===----------------------------------------------------------------------===//
// Deterministic fault injection
//===----------------------------------------------------------------------===//

/// What the injected fault simulates at the probe site.
enum class FaultKind {
  Throw,     ///< A recoverable engine error (CertifyErrorKind::InjectedFault).
  Timeout,   ///< Budget-deadline exhaustion, without a real timeout.
  AllocFail, ///< Allocation-budget exhaustion.
  /// A torn write: the I/O operation the probe guards must write only a
  /// prefix of its bytes and then fail, simulating a crash (power loss,
  /// ENOSPC) mid-write. Only write-capable probe sites (the store's
  /// commit/journal paths) honor it via faultProbeAction(); at every
  /// other site a short-write plan fires as a no-op.
  ShortWrite,
};

/// One armed fault: fire once, at the AtProbe-th probe of Site.
struct FaultPlan {
  std::string Site;
  uint64_t AtProbe = 1;
  FaultKind Kind = FaultKind::Throw;
};

/// The canonical probe-site names, one per engine fixpoint. tools/ci.sh
/// runs its fault-injection pass once per entry; keep the two lists in
/// sync.
const std::vector<std::string> &faultSites();

/// Arms \p Plan programmatically (overrides any CANVAS_FAULT in the
/// environment) and resets the probe counters.
void setFaultPlan(const FaultPlan &Plan);

/// Disarms fault injection entirely, including the environment plan.
void clearFaultPlan();

/// Forgets any armed plan and re-reads CANVAS_FAULT at the next probe —
/// for tests that change the environment after probes already ran.
void reloadFaultPlanFromEnvironment();

/// Parses "<site>:<n>" or "<site>:<n>:<kind>" (kind: throw | timeout |
/// alloc | short). Returns false on malformed input.
bool parseFaultPlan(const std::string &Text, FaultPlan &Out);

/// What a fired probe asks the *caller* to simulate (everything the
/// probe can simulate by itself is thrown as CertifyError instead).
enum class FaultAction {
  None,       ///< No fault fired at this probe.
  ShortWrite, ///< Truncate the guarded write partway, then fail it.
};

/// The probe: a near-free no-op unless a plan is armed for \p Site, in
/// which case the AtProbe-th call throws the planned CertifyError. The
/// environment variable CANVAS_FAULT is consulted lazily on first use.
/// Short-write plans fire as a no-op here; write-capable sites use
/// faultProbeAction instead.
void faultProbe(const char *Site);

/// The probe for write-capable sites: identical to faultProbe for the
/// throwing kinds, but a short-write plan firing at this probe returns
/// FaultAction::ShortWrite — the caller must then write only a prefix
/// of the guarded bytes and fail the operation, as a crash would.
FaultAction faultProbeAction(const char *Site);

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_BUDGET_H
