#include "core/Certifier.h"

#include "boolprog/Interprocedural.h"
#include "boolprog/Witness.h"
#include "cert/Checker.h"
#include "cert/Emit.h"
#include "client/CFG.h"
#include "core/GenericBaseline.h"
#include "core/Replay.h"
#include "dataflow/PreAnalysis.h"
#include "store/InputHash.h"
#include "tvla/Certify.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>

using namespace canvas;
using namespace canvas::core;

const char *core::engineName(EngineKind K) {
  switch (K) {
  case EngineKind::SCMPIntra:
    return "scmp-intra";
  case EngineKind::SCMPInterproc:
    return "scmp-interproc";
  case EngineKind::GenericAllocSite:
    return "generic-allocsite";
  case EngineKind::TVLAIndependent:
    return "tvla-independent";
  case EngineKind::TVLARelational:
    return "tvla-relational";
  }
  return "?";
}

std::optional<EngineKind> core::parseEngineName(std::string_view Name) {
  for (EngineKind K :
       {EngineKind::SCMPIntra, EngineKind::SCMPInterproc,
        EngineKind::GenericAllocSite, EngineKind::TVLAIndependent,
        EngineKind::TVLARelational})
    if (Name == engineName(K))
      return K;
  return std::nullopt;
}

unsigned CertificationReport::numFlagged() const {
  unsigned N = 0;
  for (const CheckVerdict &C : Checks)
    N += C.Outcome == CheckOutcome::Potential ||
         C.Outcome == CheckOutcome::Definite;
  return N;
}

unsigned CertificationReport::numVerified() const {
  unsigned N = 0;
  for (const CheckVerdict &C : Checks)
    N += C.Outcome == CheckOutcome::Safe;
  return N;
}

std::string CertificationReport::str() const {
  std::string Out;
  for (const LintFinding &L : Lints)
    Out += L.Method + " " + L.Loc.str() + ": warning: " + L.What + "\n";
  for (const CheckVerdict &C : Checks) {
    Out += C.Method + " " + C.Loc.str() + ": " + C.What + ": " +
           outcomeStr(C.Outcome);
    if (C.Degraded)
      Out += " [degraded]";
    Out += "\n";
    if (!C.Witness.empty())
      Out += C.Witness.str();
  }
  Out += std::to_string(numChecks()) + " check(s), " +
         std::to_string(numVerified()) + " verified, " +
         std::to_string(numFlagged()) + " flagged";
  if (!Lints.empty())
    Out += ", " + std::to_string(Lints.size()) + " lint warning(s)";
  Out += "\n";
  for (const MethodSliceSummary &MS : SliceSummaries) {
    if (MS.ForcedSingleReason.empty() && MS.Slices < 2)
      continue;
    Out += "slicing: " + MS.Method + ": ";
    if (!MS.ForcedSingleReason.empty())
      Out += "single slice (" + MS.ForcedSingleReason + ")";
    else
      Out += std::to_string(MS.Slices) + " slice(s)";
    Out += "\n";
  }
  if (Degraded) {
    Out += "engine degraded: requested " + std::string(engineName(Requested)) +
           ", ran " + EffectiveEngine + "\n";
    for (const StageAttempt &A : Stages)
      if (!A.Completed)
        Out += "  " + A.Engine + ": " +
               (A.FailReason.empty() ? "not attempted" : A.FailReason) + "\n";
  }
  return Out;
}

namespace canvas {
namespace core {
namespace detail {
struct StoreCache {
  std::mutex Mu;
  std::unique_ptr<store::CertStore> Store;
  /// The store context fingerprint: fixed per certifier, so computed
  /// at the first call with a store (0 until then).
  uint64_t Context = 0;
};
} // namespace detail
} // namespace core
} // namespace canvas

Certifier::Certifier(std::string_view SpecSource, EngineKind Engine,
                     DiagnosticEngine &Diags,
                     const wp::DerivationOptions &DOpts,
                     const CertifierOptions &Opts)
    : Engine(Engine), Opts(Opts),
      SCache(std::make_shared<detail::StoreCache>()) {
  // Hashed before parsing so the store key covers the spec exactly as
  // written: any textual edit invalidates every derived entry.
  SpecHash = cert::fnv1a(reinterpret_cast<const uint8_t *>(SpecSource.data()),
                         SpecSource.size());
  S = easl::parseSpec(SpecSource, Diags);
  if (Diags.hasErrors())
    return;
  if (!easl::checkSpec(S, Diags))
    return;
  Abs = wp::deriveAbstraction(S, DOpts, Diags);
}

CertificationReport
Certifier::certifySource(std::string_view ClientSource,
                         DiagnosticEngine &Diags) const {
  cj::Program P = cj::parseProgram(ClientSource, Diags);
  if (Diags.hasErrors())
    return {};
  return certify(P, Diags);
}

namespace {

/// What one unit produced on one rung: a client method for the
/// per-method engines, the whole program ("") for SCMPInterproc. The
/// unit's checks and certificate stay together until the rung
/// completes; then the store commits them as they are and the report
/// takes them in unit order.
struct UnitRun {
  std::string Name;
  std::vector<CheckVerdict> Checks;
  std::optional<cert::Certificate> Cert;
  /// Answered by a gated store entry: the engine did not run.
  bool FromStore = false;
};

/// Checker-gated store entries by unit name.
using StoreHits = std::map<std::string, store::StoreEntry>;

/// The store's part in one certify() call: the lookup stage fills it
/// before the ladder, the requested rung reads its hits, and the commit
/// stage writes that rung's analyzed units back at their keys.
struct StoreSession {
  /// The certifier's open store; null when the call runs storeless.
  detail::StoreCache *Cache = nullptr;
  /// Every unit's input hash, the key its entry is read and written at.
  std::map<std::string, uint64_t> Keys;
  StoreHits Hits;
};

/// Everything one engine rung produces. Kept separate from the report
/// and merged only when the rung completes, so a rung that throws
/// mid-run leaves no partial verdicts behind.
struct EngineRun {
  std::vector<UnitRun> Units;
  std::vector<LintFinding> Lints;
  PreAnalysisSummary Pre;
  std::vector<MethodSliceSummary> SliceSummaries;
  InterprocStats Inter;
  TVLAStats Tvla;
  size_t BoolVars = 0;
  size_t MaxBoolVars = 0;
  double EmitMicros = 0;
};

/// Runs \p Fn and adds its wall-clock time to \p Micros.
template <typename Fn> auto timed(double &Micros, Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  auto Result = F();
  auto T1 = std::chrono::steady_clock::now();
  Micros += std::chrono::duration<double, std::micro>(T1 - T0).count();
  return Result;
}

/// Gates a store hit before it may answer: the store is untrusted bytes
/// on disk. The entry's certificate must pass the independent checker,
/// the stored verdict vector must be exactly as long as the canonical
/// check enumeration (a deleted check would silently shrink the
/// report), every proven verdict must be backed by a validated claim
/// and vice versa (for IFDS certificates the checker's full recomputed
/// verdict vector is compared instead — their claims index anchors, not
/// report positions), and every flagged verdict carrying a witness must
/// replay. Residual trust: the What/Loc strings of an entry are not
/// re-derived, so tampering there garbles report text — but can never
/// flip a verdict to proven without a claim the checker validates.
bool validateStoreEntry(const store::StoreEntry &E, EngineKind Engine,
                        const easl::Spec &S, const cj::ClientCFG &CFG,
                        cert::Checker &Ck, std::string &Why) {
  if (E.Engine != engineName(Engine)) {
    Why = "entry produced by engine '" + E.Engine + "', requested '" +
          engineName(Engine) + "'";
    return false;
  }
  if (!E.HasCert) {
    Why = "entry carries no certificate";
    return false;
  }
  if (E.CertHash != E.Cert.ContentHash) {
    Why = "certificate content hash does not match the committed hash";
    return false;
  }
  if (E.Cert.Unit != E.Unit) {
    Why = "certificate unit '" + E.Cert.Unit + "' does not match entry unit";
    return false;
  }
  const bool Ifds = E.Cert.Kind == cert::CertKind::Ifds;
  for (const CheckVerdict &C : E.Checks) {
    if (C.Degraded) {
      Why = "entry contains a degraded verdict";
      return false;
    }
    if (!Ifds && C.Method != E.Unit) {
      Why = "entry verdict attributed to foreign method '" + C.Method + "'";
      return false;
    }
  }
  cert::CheckResult CR = Ck.check(E.Cert);
  if (!CR.Valid) {
    Why = "certificate rejected: " + CR.Reason;
    return false;
  }
  if (E.Checks.size() != CR.NumChecks) {
    Why = "entry stores " + std::to_string(E.Checks.size()) +
          " verdict(s) but the canonical enumeration has " +
          std::to_string(CR.NumChecks);
    return false;
  }
  if (Ifds) {
    for (size_t I = 0; I != E.Checks.size(); ++I)
      if (E.Checks[I].Outcome != CR.Canonical[I]) {
        Why = "stored verdict #" + std::to_string(I) +
              " disagrees with the checker's recomputation";
        return false;
      }
  } else {
    std::map<uint32_t, CheckOutcome> ClaimAt;
    for (const cert::Claim &Cl : E.Cert.Claims)
      if (!ClaimAt.emplace(Cl.Check, Cl.Outcome).second) {
        Why = "duplicate claim for check #" + std::to_string(Cl.Check);
        return false;
      }
    for (size_t I = 0; I != E.Checks.size(); ++I) {
      const CheckOutcome O = E.Checks[I].Outcome;
      auto It = ClaimAt.find(static_cast<uint32_t>(I));
      const bool Proven =
          O == CheckOutcome::Safe || O == CheckOutcome::Unreachable;
      if (Proven && (It == ClaimAt.end() || It->second != O)) {
        Why = "proven verdict #" + std::to_string(I) +
              " is not backed by a certificate claim";
        return false;
      }
      if (!Proven && It != ClaimAt.end()) {
        Why = "certificate claims check #" + std::to_string(I) +
              " proven but the entry stores a flagged verdict";
        return false;
      }
    }
  }
  for (const CheckVerdict &C : E.Checks)
    if ((C.Outcome == CheckOutcome::Potential ||
         C.Outcome == CheckOutcome::Definite) &&
        !C.Witness.empty()) {
      ReplayResult RR = replayWitness(S, CFG, C);
      if (!RR.validated()) {
        Why = "stored witness fails replay" +
              (RR.Detail.empty() ? std::string() : ": " + RR.Detail);
        return false;
      }
    }
  return true;
}

/// Exclusive use of the certifier's shared store for one stretch of a
/// certify() call: what the store quarantines, skips or reports
/// meanwhile is booked on that call's report when the use ends, so the
/// report's counters are per call although the store outlives it.
class StoreUse {
public:
  StoreUse(detail::StoreCache &C, store::StoreReport &R)
      : Lock(C.Mu), C(C), R(R) {
    if (C.Store)
      Before = C.Store->stats();
  }
  ~StoreUse() {
    if (!C.Store)
      return;
    const store::StoreStats &After = C.Store->stats();
    R.Quarantined += After.Quarantined - Before.Quarantined +
                     After.SkippedInvalid - Before.SkippedInvalid;
    for (store::StoreIncident &I : C.Store->takeIncidents())
      R.Incidents.push_back(std::move(I));
  }
  StoreUse(const StoreUse &) = delete;
  StoreUse &operator=(const StoreUse &) = delete;

  /// Opens the store at the first call, and again when its log was
  /// removed or replaced since; otherwise indexes what other processes
  /// appended. A store that cannot open is a robustness event, not a
  /// certification failure: it is recorded, the call runs storeless,
  /// and the next call retries.
  bool open(const CertifierOptions &O) {
    try {
      if (C.Store && C.Store->refresh())
        return true;
      C.Store.reset();
      C.Store = std::make_unique<store::CertStore>(O.StorePath, O.StoreMode);
      Before = store::StoreStats();
      return true;
    } catch (const CertifyError &E) {
      C.Store.reset();
      R.Incidents.push_back({"", "StoreIO", E.message()});
      return false;
    }
  }

  explicit operator bool() const { return C.Store != nullptr; }
  store::CertStore *operator->() { return C.Store.get(); }
  uint64_t &context() { return C.Context; }

private:
  std::lock_guard<std::mutex> Lock;
  detail::StoreCache &C;
  store::StoreReport &R;
  store::StoreStats Before;
};

/// The commit stage: appends the requested rung's analyzed units that
/// have a key to the store, in unit-name order (hits are already on
/// disk; nothing is written in read-only mode). A unit without a
/// certificate is not persisted rather than committing an entry the hit
/// gate would reject forever. A failed put never fails certification:
/// the verdicts stand, the entry simply is not cached.
void commitStore(const StoreSession &Store, EngineKind Engine,
                 const std::vector<UnitRun> &Units, store::StoreReport &R) {
  if (!Store.Cache || R.ReadOnly)
    return;
  std::map<std::string, const UnitRun *> Commits;
  for (const UnitRun &U : Units)
    if (U.Cert && !U.FromStore && Store.Keys.count(U.Name))
      Commits.emplace(U.Name, &U);
  StoreUse Use(*Store.Cache, R);
  for (const auto &[Unit, U] : Commits) {
    if (!Use)
      break;
    const store::StoreEntry E{Store.Keys.at(Unit), Unit, engineName(Engine),
                              U->Checks, /*HasCert=*/true,
                              U->Cert->ContentHash, *U->Cert};
    try {
      Use->put(E);
      ++R.Writes;
    } catch (const CertifyError &Err) {
      R.Incidents.push_back({E.Unit, "StoreIO", Err.message()});
    }
  }
}

void attachLints(std::vector<LintFinding> &Lints,
                 const dataflow::PreAnalysisResult &PA) {
  for (size_t I = 0; I != PA.Findings.size(); ++I) {
    const dataflow::UninitUse &U = PA.Findings[I];
    Lints.push_back(
        {PA.FindingMethods[I], U.Var, U.Loc,
         "component variable '" + U.Var +
             "' may be used before initialization in '" + U.ActionText + "'",
         U.RequiresBearing});
  }
}

/// The method abstraction governing \p A's requires obligations, or
/// null when the action carries none (mirrors the enumeration every
/// engine performs).
const wp::MethodAbstraction *
obligationAbstraction(const wp::DerivedAbstraction &Abs,
                      const cj::CFGMethod &M, const cj::Action &A) {
  if (A.K == cj::Action::Kind::AllocComp)
    return Abs.findMethod(A.Callee, "new");
  if (A.K != cj::Action::Kind::CompCall)
    return nullptr;
  for (const auto &[V, T] : M.CompVars)
    if (V == A.Recv)
      return Abs.findMethod(T, A.Callee);
  return nullptr;
}

/// Reports every requires obligation of \p M as a conservative
/// Potential marked Degraded with \p Note: the lint-only floor of the
/// ladder.
void enumerateObligations(const wp::DerivedAbstraction &Abs,
                          const cj::CFGMethod &M, const std::string &Note,
                          std::vector<CheckVerdict> &Out) {
  for (size_t E = 0; E != M.Edges.size(); ++E) {
    const wp::MethodAbstraction *MA =
        obligationAbstraction(Abs, M, M.Edges[E].Act);
    if (!MA)
      continue;
    for (size_t R = 0; R != MA->RequiresFalse.size(); ++R) {
      CheckVerdict V;
      V.Method = M.name();
      V.Loc = M.Edges[E].Act.Loc;
      V.What = M.Edges[E].Act.str() + " requires !" +
               MA->RequiresFalse[R].first.str(Abs.Families);
      V.ReqLoc = MA->RequiresFalse[R].second;
      V.Outcome = CheckOutcome::Potential;
      V.Degraded = true;
      V.DegradeNote = Note;
      Out.push_back(std::move(V));
    }
  }
}

/// Runs one ladder rung to completion under \p Tok's budget; throws
/// CertifyError on exhaustion, injected faults, or checked invariants.
/// Each engine supplies the analysis of one unit — a client method, or
/// for SCMPInterproc the whole program — and the units run in unit
/// order, writing their verdicts, certificates and counters straight
/// into \p Run. \p Hits holds the checker-gated store entries that
/// answer units instead of the engine. The units' diagnostics reach
/// \p Diags only once every unit has run: a rung that throws leaves no
/// partial verdicts and no partial diagnostics behind.
void runEngine(EngineKind K, const easl::Spec &S,
               const wp::DerivedAbstraction &Abs,
               const CertifierOptions &Opts, const cj::ClientCFG &CFG,
               const StoreHits &Hits, DiagnosticEngine &Diags,
               support::CancelToken &Tok, EngineRun &Run) {
  // Stage 0 runs for every engine: the lint, plus the slice partition
  // SCMPIntra builds its boolean programs over.
  dataflow::PreAnalysisOptions PreOpts;
  PreOpts.Slice = K == EngineKind::SCMPIntra;
  PreOpts.Cancel = &Tok;
  const dataflow::PreAnalysisResult PA = dataflow::preAnalyze(CFG, Abs, PreOpts);
  attachLints(Run.Lints, PA);

  Run.Units.resize(K == EngineKind::SCMPInterproc ? 1 : CFG.Methods.size());
  if (K != EngineKind::SCMPInterproc)
    for (size_t MI = 0; MI != CFG.Methods.size(); ++MI)
      Run.Units[MI].Name = CFG.Methods[MI].name();

  DiagnosticEngine RungDiags;
  std::function<void(size_t, UnitRun &)> Analyze;
  switch (K) {
  case EngineKind::SCMPIntra: {
    Run.Pre.MultiSliceMethods = PA.multiSliceMethods();
    for (const dataflow::MethodPlan &Plan : PA.Plans)
      if (!Plan.Slices.empty())
        Run.SliceSummaries.push_back(
            {Plan.Source->name(), static_cast<unsigned>(Plan.Slices.size()),
             Plan.ForcedSingleReason ? Plan.ForcedSingleReason : ""});
    Analyze = [&](size_t MI, UnitRun &Out) {
      const cj::CFGMethod &M = CFG.Methods[MI];
      const dataflow::MethodPlan &Plan = PA.Plans[MI];
      // One boolean program per method: over the Stage-0 partition,
      // instances spanning two slices fold to constant false, and the
      // checks, verdicts and witnesses are the unpartitioned program's.
      const bool Split = Plan.multiSlice();
      const bp::BooleanProgram BP =
          Split ? bp::buildBooleanProgram(Abs, M, RungDiags, Plan.Slices)
                : bp::buildBooleanProgram(Abs, M, RungDiags);
      const bp::IntraResult R = bp::analyzeIntraproc(BP, &Tok);
      ++Run.Pre.SliceRuns;
      Run.BoolVars += BP.Vars.size();
      Run.MaxBoolVars = std::max(Run.MaxBoolVars, BP.Vars.size());
      if (Opts.EmitCertificates)
        Out.Cert = timed(Run.EmitMicros, [&] {
          return Split ? cert::emitSlicePartition(Plan.Slices, BP, R,
                                                  Plan.MayUninit)
                       : cert::emitBoolIntra(BP, R);
        });
      std::vector<WitnessTrace> Witnesses;
      if (R.numFlagged())
        Witnesses = bp::intraWitnesses(BP, R);
      for (size_t I = 0; I != BP.Checks.size(); ++I) {
        CheckVerdict V;
        V.Method = Out.Name;
        V.Loc = BP.Checks[I].Loc;
        V.What = BP.Checks[I].What;
        V.Outcome = R.CheckResults[I];
        V.ReqLoc = BP.Checks[I].ReqLoc;
        if (!Witnesses.empty())
          V.Witness = std::move(Witnesses[I]);
        Out.Checks.push_back(std::move(V));
      }
    };
    break;
  }
  case EngineKind::SCMPInterproc:
    // The whole program is the rung's one unit, so its IFDS statistics
    // are the rung's. The supervisor skips this rung when main() is
    // absent.
    Analyze = [&](size_t, UnitRun &Out) {
      bp::InterprocModel Model(Abs, CFG, *CFG.mainCFG(), RungDiags);
      bp::IfdsTabulation Tab;
      bp::InterResult R = bp::analyzeInterproc(
          Model, &Tok, Opts.EmitCertificates ? &Tab : nullptr);
      if (Opts.EmitCertificates)
        Out.Cert =
            timed(Run.EmitMicros, [&] { return cert::emitIfds(Model, Tab); });
      Run.Inter = {R.SummaryIterations, R.ExplodedNodes, R.PathEdges,
                   R.Summaries, R.WitnessMicros};
      Out.Checks = std::move(R.Checks);
    };
    break;
  case EngineKind::GenericAllocSite:
    Analyze = [&](size_t MI, UnitRun &Out) {
      const cj::CFGMethod &M = CFG.Methods[MI];
      BaselineAnnotation Ann;
      BaselineResult R = analyzeAllocSite(
          S, M, &Tok, Opts.EmitCertificates ? &Ann : nullptr);
      if (Opts.EmitCertificates)
        Out.Cert = timed(Run.EmitMicros,
                         [&] { return cert::emitAllocSite(M, Ann, R); });
      for (const auto &[Site, Flagged] : R.Flagged) {
        CheckRecord Rec;
        Rec.Method = Site.Method;
        Rec.Loc = M.Edges[Site.Edge].Act.Loc;
        Rec.What = M.Edges[Site.Edge].Act.str() + " requires (spec " +
                   Site.ReqLoc.str() + ")";
        Rec.Outcome = Flagged ? CheckOutcome::Potential : CheckOutcome::Safe;
        Rec.ReqLoc = Site.ReqLoc;
        Out.Checks.push_back(std::move(Rec));
      }
    };
    break;
  case EngineKind::TVLAIndependent:
  case EngineKind::TVLARelational:
    Analyze = [&](size_t MI, UnitRun &Out) {
      const cj::CFGMethod &M = CFG.Methods[MI];
      tvla::TVLAOptions TO;
      TO.Relational = K == EngineKind::TVLARelational;
      TO.Cancel = &Tok;
      tvla::PointAnnotation Ann;
      if (Opts.EmitCertificates)
        TO.AnnotationOut = &Ann;
      tvla::TVLAResult R = tvla::certifyWithTVLA(S, Abs, M, TO, RungDiags);
      if (Opts.EmitCertificates)
        Out.Cert = timed(Run.EmitMicros, [&] {
          return cert::emitTvla(Abs, M, Ann, R, TO.Relational);
        });
      Run.Tvla.InternedStructures += R.InternedStructures;
      Run.Tvla.TransferCacheHits += R.TransferCacheHits;
      Run.Tvla.TransferCacheMisses += R.TransferCacheMisses;
      Run.Tvla.MaxStructuresPerPoint =
          std::max(Run.Tvla.MaxStructuresPerPoint, R.MaxStructuresPerPoint);
      for (const auto &C : R.Checks) {
        CheckRecord Rec;
        Rec.Method = Out.Name;
        Rec.Loc = C.Loc;
        Rec.What = C.What;
        Rec.Outcome = C.Outcome;
        Out.Checks.push_back(std::move(Rec));
      }
    };
    break;
  }
  for (size_t I = 0; I != Run.Units.size(); ++I) {
    UnitRun &U = Run.Units[I];
    auto Hit = Hits.find(U.Name);
    if (Hit == Hits.end()) {
      Analyze(I, U);
      continue;
    }
    U.Checks = Hit->second.Checks;
    U.Cert = Hit->second.Cert;
    U.FromStore = true;
  }
  Diags.mergeFrom(RungDiags);
}

/// The store lookup stage of certify(), run before the ladder: opens
/// \p C's store, keys every unit, reads each unit's entry, gates it with
/// the independent checker outside the store lock, and evicts the
/// entries the gate refuses.
StoreSession lookupStore(detail::StoreCache &Cache, const Certifier &C,
                         uint64_t SpecHash, const cj::ClientCFG &CFG,
                         store::StoreReport &R) {
  const CertifierOptions &Opts = C.options();
  StoreSession Store;
  if (Opts.StorePath.empty())
    return Store;
  R.Enabled = true;
  R.Path = Opts.StorePath;
  R.ReadOnly = Opts.StoreMode == store::StoreMode::ReadOnly;
  StoreHits Found;
  {
    StoreUse Use(Cache, R);
    if (!Use.open(Opts))
      return Store;
    Store.Cache = &Cache;
    uint64_t &Ctx = Use.context();
    if (!Ctx)
      Ctx = store::contextFingerprint(SpecHash, C.abstraction().str(),
                                      engineName(C.engine()));
    if (C.engine() == EngineKind::SCMPInterproc)
      Store.Keys[std::string()] = store::programInputHash(CFG, Ctx);
    else
      Store.Keys = store::methodInputHashes(CFG, Ctx);
    for (const auto &[Unit, Hash] : Store.Keys) {
      std::unique_ptr<store::StoreEntry> E;
      try {
        E = Use->get(Hash, Unit);
      } catch (const CertifyError &Err) {
        R.Incidents.push_back({Unit, "StoreIO", Err.message()});
      }
      if (E)
        Found.emplace(Unit, std::move(*E));
      else
        ++R.Misses;
    }
  }
  // The gate runs outside the store's lock: it is the expensive part of
  // a hit, and the entries are private copies.
  std::optional<cert::Checker> Ck;
  std::vector<std::pair<std::string, std::string>> Rejects;
  for (auto &[Unit, E] : Found) {
    if (!Ck)
      Ck.emplace(C.spec(), C.abstraction(), CFG);
    std::string Why;
    bool Accept = false;
    try {
      Accept = validateStoreEntry(E, C.engine(), C.spec(), CFG, *Ck, Why);
    } catch (const CertifyError &Err) {
      // An injected cert-check fault (or checker budget exhaustion)
      // while gating: the entry is unproven, treat it as rejected.
      Why = std::string(certifyErrorKindName(Err.kind())) + ": " +
            Err.message();
    }
    if (!Accept) {
      ++R.Rejected;
      ++R.Misses;
      R.Incidents.push_back({Unit, "StoreEntryInvalid", Why});
      Rejects.emplace_back(Unit, std::move(Why));
      continue;
    }
    ++R.Hits;
    Store.Hits.emplace(Unit, std::move(E));
  }
  if (!Rejects.empty()) {
    StoreUse Use(Cache, R);
    for (const auto &[Unit, Why] : Rejects) {
      if (!Use)
        break;
      try {
        Use->evict(Store.Keys.at(Unit), Unit, Why);
      } catch (const CertifyError &Err) {
        R.Incidents.push_back({Unit, "StoreIO", Err.message()});
      }
    }
  }
  return Store;
}

} // namespace

CertificationReport Certifier::certify(const cj::Program &P,
                                       DiagnosticEngine &Diags) const {
  CertificationReport Report;
  Report.Requested = Engine;
  Report.EffectiveEngine = engineName(Engine);
  cj::ClientCFG CFG = cj::buildCFG(P, S, Diags);
  if (Diags.hasErrors())
    return Report;

  // The store serves and fills only the requested engine's rung:
  // degraded fallback results are never persisted. Every analyzed unit
  // must carry a certificate (an entry without one is unusable — the hit
  // gate would reject it), so an active store forces emission on.
  const StoreSession Store =
      lookupStore(*SCache, *this, SpecHash, CFG, Report.Store);
  CertifierOptions EOpts = Opts;
  EOpts.EmitCertificates |= !Opts.StorePath.empty();

  // The degradation ladder, most precise/expensive first. The requested
  // engine is the first rung; with degradation on, every cheaper engine
  // below it is a fallback.
  static const EngineKind Ladder[] = {
      EngineKind::TVLARelational, EngineKind::TVLAIndependent,
      EngineKind::SCMPInterproc, EngineKind::SCMPIntra,
      EngineKind::GenericAllocSite};
  const EngineKind *First =
      std::find(std::begin(Ladder), std::end(Ladder), Engine);
  const std::vector<EngineKind> Rungs =
      Opts.Degrade ? std::vector<EngineKind>(First, std::end(Ladder))
                   : std::vector<EngineKind>{Engine};

  static const StoreHits NoHits;
  std::string FirstFailure;
  for (EngineKind K : Rungs) {
    if (K == EngineKind::SCMPInterproc && !CFG.mainCFG()) {
      if (!Opts.Degrade) {
        Diags.error(SourceLoc(), "interprocedural certification requires a "
                                 "main() method");
        return Report;
      }
      StageAttempt At;
      At.Engine = engineName(K);
      At.FailReason = "no main() method in client";
      if (FirstFailure.empty())
        FirstFailure = At.FailReason;
      Report.Stages.push_back(std::move(At));
      continue;
    }

    auto It = Opts.EngineBudgets.find(K);
    support::CancelToken Tok(
        It != Opts.EngineBudgets.end() ? It->second : Opts.Budget,
        engineName(K));
    StageAttempt At;
    At.Engine = engineName(K);
    try {
      EngineRun Run;
      runEngine(K, S, Abs, EOpts, CFG, K == Engine ? Store.Hits : NoHits,
                Diags, Tok, Run);

      // With CheckCertificates, re-validate before accepting the rung: a
      // rejected certificate means the rung's Proven verdicts are not
      // independently justified, which is a structured failure (never a
      // silent downgrade) and, with degradation on, falls down the
      // ladder.
      const cert::Checker Ck(S, Abs, CFG);
      CertificateStats CS;
      CS.EmitMicros = Run.EmitMicros;
      CS.Checked = EOpts.EmitCertificates && EOpts.CheckCertificates;
      for (const UnitRun &U : Run.Units) {
        if (!U.Cert)
          continue;
        ++CS.Count;
        CS.Bytes += U.Cert->bytes();
        CS.RawEntries += U.Cert->RawEntries;
        CS.StoredEntries += U.Cert->StoredEntries;
        if (!CS.Checked)
          continue;
        cert::CheckResult CR = Ck.check(*U.Cert);
        CS.CheckMicros += CR.Micros;
        if (!CR.Valid)
          throw CertifyError(CertifyErrorKind::CertificateInvalid,
                             "certificate rejected: " + CR.Reason,
                             engineName(K));
      }
      Report.CertStats = CS;

      At.Completed = true;
      At.Spend = Tok.spend();
      Report.Stages.push_back(std::move(At));
      if (K == Engine)
        commitStore(Store, Engine, Run.Units, Report.Store);
      for (UnitRun &U : Run.Units) {
        std::move(U.Checks.begin(), U.Checks.end(),
                  std::back_inserter(Report.Checks));
        if (U.Cert)
          Report.Certificates.push_back(std::move(*U.Cert));
      }
      Report.Lints = std::move(Run.Lints);
      Report.Pre = Run.Pre;
      Report.SliceSummaries = std::move(Run.SliceSummaries);
      Report.Inter = Run.Inter;
      Report.Tvla = Run.Tvla;
      Report.BoolVars = Run.BoolVars;
      Report.MaxBoolVars = Run.MaxBoolVars;
      Report.EffectiveEngine = engineName(K);
      Report.Degraded = K != Engine;
      if (Report.Degraded) {
        // The cheaper engine's Safe/Unreachable verdicts are sound as
        // reported; its unproven verdicts may be conservatism the
        // requested engine would have discharged, so mark those.
        std::string Note = "engine degraded from " +
                           std::string(engineName(Engine)) + " to " +
                           engineName(K) + " (" + FirstFailure + ")";
        for (CheckVerdict &C : Report.Checks)
          if (C.Outcome == CheckOutcome::Potential ||
              C.Outcome == CheckOutcome::Definite) {
            C.Degraded = true;
            C.DegradeNote = Note;
          }
      }
      return Report;
    } catch (const CertifyError &E) {
      if (!Opts.Degrade)
        throw;
      At.FailReason =
          std::string(certifyErrorKindName(E.kind())) + ": " + E.message();
    } catch (const std::bad_alloc &) {
      if (!Opts.Degrade)
        throw;
      At.FailReason = "allocation failure";
    }
    At.Spend = Tok.spend();
    if (FirstFailure.empty())
      FirstFailure = At.FailReason;
    Report.Stages.push_back(std::move(At));
  }

  // The floor: no engine ran to completion. Still return a report —
  // Stage-0 lints plus every obligation as a conservative Potential.
  Report.Degraded = true;
  Report.EffectiveEngine = "lint-only";
  std::string Note =
      "all engines failed (" + FirstFailure + "); Stage-0 lint only";
  try {
    support::CancelToken Unlimited;
    dataflow::PreAnalysisOptions LintOnly;
    LintOnly.Slice = false;
    LintOnly.Cancel = &Unlimited;
    attachLints(Report.Lints, dataflow::preAnalyze(CFG, Abs, LintOnly));
  } catch (const CertifyError &) {
    // Even the lint failed (a second armed fault): obligations alone.
  }
  for (const cj::CFGMethod &M : CFG.Methods)
    enumerateObligations(Abs, M, Note, Report.Checks);
  return Report;
}
