//===----------------------------------------------------------------------===//
///
/// \file
/// The public staged-certification API (Section 1.3):
///
///   1. parse an Easl component specification,
///   2. derive its component-specific abstraction (certifier-generation
///      time — this is where the expensive symbolic work happens),
///   3. combine it with an analysis engine to obtain a Certifier,
///   4. apply the certifier to any number of client programs.
///
/// Engines with different time/space/precision tradeoffs can be chosen
/// per certification run (Section 1.3, step 3).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CORE_CERTIFIER_H
#define CANVAS_CORE_CERTIFIER_H

#include "boolprog/Analysis.h"
#include "cert/Certificate.h"
#include "client/Parser.h"
#include "core/Verdict.h"
#include "easl/Parser.h"
#include "store/CertStore.h"
#include "support/Budget.h"
#include "wp/Abstraction.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace canvas {
namespace core {

/// The client-analysis engine combined with the derived abstraction.
enum class EngineKind {
  /// Specialized intraprocedural possible-value analysis (Section 4.3):
  /// precise MOP, O(E * B^2). Client calls are treated conservatively.
  SCMPIntra,
  /// Context-sensitive summary-based whole-program analysis (Section 8).
  SCMPInterproc,
  /// Generic allocation-site must-alias baseline (Section 3).
  GenericAllocSite,
  /// Mini-TVLA first-order engine, one 3-valued structure per program
  /// point (independent-attribute, Section 5.5).
  TVLAIndependent,
  /// Mini-TVLA, set of 3-valued structures per point (relational).
  TVLARelational,
};

const char *engineName(EngineKind K);
/// The engine whose engineName() is \p Name, or nullopt.
std::optional<EngineKind> parseEngineName(std::string_view Name);

/// One requires obligation with its verdict (see core/Verdict.h): every
/// engine reports through the same record, and the witness-bearing
/// engines attach their evidence traces to it.
using CheckVerdict = CheckRecord;

/// A Stage-0 conformance lint: a component variable possibly used
/// before initialization, reported with its client location before any
/// engine runs.
struct LintFinding {
  std::string Method; ///< "Class::method" containing the use.
  std::string Var;
  SourceLoc Loc;
  std::string What;
  /// True when the use is a component call whose abstraction carries
  /// requires clauses — the engine cannot certify those obligations
  /// against an uninitialized receiver/operand.
  bool RequiresBearing = false;
};

/// Aggregate statistics of the SCMPIntra engine's Stage-0 slicing (see
/// dataflow::preAnalyze).
struct PreAnalysisSummary {
  /// Methods whose component variables split into several slices.
  unsigned MultiSliceMethods = 0;
  /// Boolean programs built and analyzed: one per analyzed method.
  unsigned SliceRuns = 0;
};

/// Per-method slicing outcome of the SCMPIntra engine, surfaced so
/// clients can see *why* a method's variables did or did not split.
struct MethodSliceSummary {
  std::string Method;
  unsigned Slices = 0;
  /// When slicing was forced off, the slicer's reason; empty otherwise.
  std::string ForcedSingleReason;
};

/// Tabulation statistics of the interprocedural engine's IFDS solve
/// (zero for other engines).
struct InterprocStats {
  unsigned SummaryIterations = 0;
  size_t ExplodedNodes = 0;
  size_t PathEdges = 0;
  size_t Summaries = 0;
  /// Wall-clock time spent reconstructing witness traces, microseconds.
  double WitnessMicros = 0;
};

/// Structure-interner and transfer-cache statistics of the TVLA
/// engines, aggregated across methods (zero for other engines).
struct TVLAStats {
  uint64_t InternedStructures = 0;
  uint64_t TransferCacheHits = 0;
  uint64_t TransferCacheMisses = 0;
  /// Peak structures resident at one program point, across methods.
  unsigned MaxStructuresPerPoint = 0;
};

/// One rung of the degradation ladder as the supervisor attempted it:
/// which engine ran, whether it completed, why it failed (budget
/// exhaustion, injected fault, missing prerequisite), and what it
/// consumed.
struct StageAttempt {
  std::string Engine;
  bool Completed = false;
  std::string FailReason; ///< Empty when Completed.
  support::ResourceSpend Spend;
};

/// Aggregate statistics of proof-carrying-certificate emission and
/// checking for one report (zero unless CertifierOptions::
/// EmitCertificates was set).
struct CertificateStats {
  unsigned Count = 0;
  /// Serialized bytes across all certificates.
  size_t Bytes = 0;
  /// Fixpoint annotation entries computed / actually stored after the
  /// size-reduction pruning.
  uint64_t RawEntries = 0;
  uint64_t StoredEntries = 0;
  double EmitMicros = 0;
  /// Independent-checker time (CheckCertificates only).
  double CheckMicros = 0;
  /// True when every certificate was re-validated by cert::Checker.
  bool Checked = false;
};

struct CertificationReport {
  std::vector<CheckVerdict> Checks;
  std::vector<LintFinding> Lints;
  PreAnalysisSummary Pre;
  /// Per-method slicing outcomes of the SCMPIntra engine, method order;
  /// only methods with component variables appear.
  std::vector<MethodSliceSummary> SliceSummaries;
  InterprocStats Inter;
  TVLAStats Tvla;
  /// Total and largest boolean-program size B across the per-method
  /// programs the SCMPIntra engine analyzed; zero for other engines.
  size_t BoolVars = 0;
  size_t MaxBoolVars = 0;

  /// The engine the certifier was built with.
  EngineKind Requested = EngineKind::SCMPIntra;
  /// The engine whose verdicts this report carries — engineName of a
  /// ladder rung, or "lint-only" at the floor.
  std::string EffectiveEngine;
  /// True when EffectiveEngine is not the requested engine: some rung
  /// exhausted its budget or failed, and the supervisor fell back.
  bool Degraded = false;
  /// Every rung attempted, in ladder order, with its resource spend.
  std::vector<StageAttempt> Stages;
  /// Proof-carrying certificates backing this report's Safe/Unreachable
  /// verdicts, one per analyzed unit (empty unless EmitCertificates).
  std::vector<cert::Certificate> Certificates;
  CertificateStats CertStats;
  /// Persistent-store usage of this run: hits, misses, rejections,
  /// quarantines, and structured incidents (empty unless
  /// CertifierOptions::StorePath was set). Deliberately NOT rendered by
  /// str() — a warm run's report must be byte-identical to the cold
  /// run's.
  store::StoreReport Store;

  size_t numChecks() const { return Checks.size(); }
  unsigned numFlagged() const;
  unsigned numVerified() const;
  std::string str() const;
};

/// Per-certifier knobs. The Stage-0 lint runs for every engine; the
/// SCMPIntra engine also builds each method's boolean program over the
/// Stage-0 slice partition.
struct CertifierOptions {
  /// When true (the default) the supervisor catches recoverable engine
  /// errors (CertifyError: budget exhaustion, injected faults, checked
  /// invariants) and retries down the engine ladder
  ///   TVLARelational -> TVLAIndependent -> SCMPInterproc -> SCMPIntra
  ///   -> GenericAllocSite -> Stage-0 lint only,
  /// conservatively marking unproven obligations Degraded instead of
  /// aborting. When false, the requested engine runs alone and
  /// CertifyError propagates to the caller.
  bool Degrade = true;
  /// Default per-rung resource budget (unlimited by default).
  support::StageBudget Budget;
  /// Per-engine overrides of Budget.
  std::map<EngineKind, support::StageBudget> EngineBudgets;
  /// Unread. certify() runs a rung's units (each client method, or the
  /// whole program for SCMPInterproc) one after another on the calling
  /// thread; parallelism across clients is the shard driver's worker
  /// processes. Kept only because perfbench still assigns it.
  unsigned Workers = 0;
  /// Emit a proof-carrying certificate per analyzed unit, carrying the
  /// engine's fixpoint evidence for every Safe/Unreachable verdict
  /// (CertificationReport::Certificates). Emission never changes the
  /// report. The SCMPIntra engine emits a BoolIntra certificate for a
  /// one-slice method and a SlicePartition certificate — the partition,
  /// its evidence, and the one annotation — for a method that splits,
  /// so --check-only covers partitioned programs too.
  bool EmitCertificates = false;
  /// Re-validate every emitted certificate with the independent
  /// cert::Checker before the rung's verdicts are accepted. A rejected
  /// certificate raises CertifyError(CertificateInvalid) — with
  /// degradation on, the supervisor falls to the next rung rather than
  /// reporting unproven verdicts as Proven.
  bool CheckCertificates = false;
  /// Root directory of the persistent certificate store; empty disables
  /// it. With a store, units whose input hash is unchanged answer from
  /// disk *after* their stored certificate passes the independent
  /// cert::Checker (plus claim/verdict cross-checks and witness
  /// replay): a hit costs a check, not a re-analysis; a rejected entry
  /// is evicted, reported as a StoreEntryInvalid incident, and
  /// re-analyzed. Setting a store forces certificate emission (the
  /// evidence is what makes entries re-validatable), and every store
  /// I/O failure degrades to re-analysis — never to a wrong or missing
  /// verdict. The store serves and fills only the *requested* engine's
  /// rung; degraded fallback runs are never persisted. The certifier
  /// opens the store at its first certify() and keeps it open for every
  /// later call, from any thread; each call first indexes what other
  /// processes appended and reopens the store if its log was removed or
  /// replaced.
  std::string StorePath;
  /// ReadOnly serves checker-gated hits without any disk mutation
  /// (useful for replicas serving from a shared snapshot).
  store::StoreMode StoreMode = store::StoreMode::ReadWrite;
};

namespace detail {
/// The certifier's persistent store, opened at the first certify() that
/// has a StorePath and shared, mutex-guarded, by every certify() call on
/// the certifier, whichever thread makes it (defined in Certifier.cpp).
/// A failed open is not memoized.
struct StoreCache;
} // namespace detail

/// A generated certifier: a derived abstraction bound to a component
/// spec, applicable to arbitrary clients.
class Certifier {
public:
  /// Generates a certifier from Easl source. Errors go to \p Diags.
  Certifier(std::string_view SpecSource, EngineKind Engine,
            DiagnosticEngine &Diags,
            const wp::DerivationOptions &DOpts = {},
            const CertifierOptions &Opts = {});

  const easl::Spec &spec() const { return S; }
  const wp::DerivedAbstraction &abstraction() const { return Abs; }
  EngineKind engine() const { return Engine; }
  const CertifierOptions &options() const { return Opts; }

  /// Certifies \p ClientSource. For intraprocedural engines every client
  /// method is analyzed independently; the interprocedural engine
  /// analyzes the program rooted at main().
  CertificationReport certifySource(std::string_view ClientSource,
                                    DiagnosticEngine &Diags) const;

  /// Same, for an already-parsed program.
  CertificationReport certify(const cj::Program &P,
                              DiagnosticEngine &Diags) const;

private:
  easl::Spec S;
  wp::DerivedAbstraction Abs;
  EngineKind Engine;
  CertifierOptions Opts;
  /// FNV-1a of the spec source text, the spec half of the store's
  /// context fingerprint (easl::Spec has no canonical rendering).
  uint64_t SpecHash = 0;
  /// Mutex-guarded; shared_ptr so the incomplete type needs no
  /// out-of-line destructor.
  std::shared_ptr<detail::StoreCache> SCache;
};

} // namespace core
} // namespace canvas

#endif // CANVAS_CORE_CERTIFIER_H
