//===----------------------------------------------------------------------===//
///
/// \file
/// Certificate verification. Every routine follows the same monotone
/// sweep: deserialize and range-check the annotation, confirm the
/// engine's initial facts are covered, confirm closure under the shared
/// transfer/flow evaluators, then test each claim against the
/// annotation. Closure + coverage make the annotation a post-fixpoint,
/// hence an over-approximation of every reachable state — so a check
/// the annotation cannot reach (or evaluates to definitely-false on
/// every covering state) is proven Safe/Unreachable regardless of how
/// the emitting engine computed it.
///
//===----------------------------------------------------------------------===//

#include "cert/Checker.h"

#include "boolprog/Analysis.h"
#include "boolprog/BooleanProgram.h"
#include "boolprog/Interprocedural.h"
#include "cert/Emit.h"
#include "core/GenericBaseline.h"
#include "dataflow/Dataflow.h"
#include "dataflow/PreAnalysis.h"
#include "ifds/Solver.h"
#include "support/Budget.h"
#include "support/Interner.h"
#include "tvla/Transfer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace canvas;
using namespace canvas::cert;

namespace {

CheckResult fail(std::string Reason) {
  CheckResult R;
  R.Valid = false;
  R.Reason = std::move(Reason);
  return R;
}

CheckResult ok() {
  CheckResult R;
  R.Valid = true;
  return R;
}

/// Claims must only assert the proven outcomes and index a real check.
bool validClaimShape(const Certificate &C, size_t NumChecks,
                     std::string &Reason) {
  for (const Claim &Cl : C.Claims) {
    if (Cl.Check >= NumChecks) {
      Reason = "claim indexes nonexistent check " + std::to_string(Cl.Check);
      return false;
    }
    if (Cl.Outcome != core::CheckOutcome::Safe &&
        Cl.Outcome != core::CheckOutcome::Unreachable) {
      Reason = "claim asserts a non-proven outcome";
      return false;
    }
  }
  return true;
}

/// Reads one possible-value annotation body (per-node tag + stored
/// states) from \p R, reconstructs the pruned entries, and verifies
/// entry coverage and closure under the edge transfer — everything
/// checkBoolIntra needs short of the claims sweep. On success \p In
/// holds the per-node states and \p Covered marks the annotated nodes.
/// Coverage must be tracked beside the states: a zero-variable
/// program's states are zero-width and permanently disengaged
/// (StateVec.h), so engagement alone cannot say which nodes the
/// annotation reaches. Shared by the plain and the partitioned checkers;
/// the caller still validates that the reader consumed exactly its
/// section.
bool readBoolSection(Reader &R, const bp::BooleanProgram &BP,
                     const cj::CFGMethod &M, const dataflow::CFGInfo &Info,
                     bool AssumeChecksPass,
                     std::vector<bp::StateVec> &In,
                     std::vector<uint8_t> &Covered,
                     std::string &Reason) {
  const unsigned NumVars = static_cast<unsigned>(BP.Vars.size());

  std::vector<uint8_t> Tag(M.NumNodes, 0);
  In.assign(M.NumNodes, bp::StateVec());
  Covered.assign(M.NumNodes, 0);
  for (int N = 0; N != M.NumNodes; ++N) {
    Tag[N] = R.u8();
    if (Tag[N] > 2) {
      Reason = "bad annotation tag";
      return false;
    }
    Covered[N] = Tag[N] != 0;
    if (Tag[N] != 1)
      continue;
    In[N] = bp::StateVec(NumVars, bp::ValueSet::Bottom);
    for (unsigned V = 0; V != NumVars; ++V) {
      uint8_t B = R.u8();
      if (B > 3) {
        Reason = "out-of-range value set";
        return false;
      }
      In[N].set(V, static_cast<bp::ValueSet>(B));
    }
  }
  if (R.failed()) {
    Reason = "malformed payload";
    return false;
  }

  const bp::EdgeTransfer T(BP, AssumeChecksPass);

  // Reconstruct pruned entries in reverse-post-order: a pruned node's
  // unique in-edge comes from an RPO-earlier node whose state is
  // already available, so one ordered pass suffices.
  std::vector<int> ByRpo;
  for (int N = 0; N != M.NumNodes; ++N)
    if (Info.rpoNumber(N) >= 0)
      ByRpo.push_back(N);
  std::sort(ByRpo.begin(), ByRpo.end(), [&](int A, int B) {
    return Info.rpoNumber(A) < Info.rpoNumber(B);
  });
  for (int N : ByRpo) {
    if (Tag[N] != 2)
      continue;
    if (N == M.Entry || Info.predEdges(N).size() != 1) {
      Reason = "pruned node is not reconstructible";
      return false;
    }
    int EIdx = Info.predEdges(N)[0];
    int From = M.Edges[EIdx].From;
    if (!Covered[From] || Info.rpoNumber(From) < 0 ||
        Info.rpoNumber(From) >= Info.rpoNumber(N)) {
      Reason = "pruned node's predecessor is not annotated earlier";
      return false;
    }
    bp::StateVec Out;
    if (!T.apply(EIdx, In[From], Out)) {
      Reason = "pruned node is annotated but its in-edge is dead";
      return false;
    }
    In[N] = std::move(Out);
  }
  for (int N = 0; N != M.NumNodes; ++N)
    if (Tag[N] == 2 && Info.rpoNumber(N) < 0) {
      Reason = "pruned node outside the reverse-post-order";
      return false;
    }

  // (a) Initial facts covered: at method entry every variable may hold
  // either value. For a zero-variable program both sides of the state
  // comparison are the zero-width state, so only coverage itself is at
  // stake — the annotation's covered set then attests reachability the
  // same way the value sets do for wider programs.
  if (!Covered[M.Entry]) {
    Reason = "entry node not covered";
    return false;
  }
  if (In[M.Entry] != bp::StateVec(NumVars, bp::ValueSet::Both)) {
    Reason = "entry state does not cover the initial facts";
    return false;
  }

  // (b) Closure under the edge transfer.
  for (size_t EIdx = 0; EIdx != M.Edges.size(); ++EIdx) {
    int From = M.Edges[EIdx].From;
    int To = M.Edges[EIdx].To;
    if (!Covered[From])
      continue;
    bp::StateVec Out;
    if (!T.apply(static_cast<int>(EIdx), In[From], Out))
      continue; // No execution survives the edge.
    if (!Covered[To]) {
      Reason = "annotation not closed: reachable successor uncovered";
      return false;
    }
    // Word-parallel subsumption: Out joined into In[To] must not move.
    bp::StateVec Probe = In[To];
    if (Probe.joinWith(Out)) {
      Reason = "annotation not closed under edge transfer";
      return false;
    }
  }
  return true;
}

/// (c) Claims uncovered by the annotation readBoolSection accepted for
/// \p BP: an Unreachable claim needs its check's node uncovered, a
/// Safe claim a node where the checked variable cannot be 1.
bool claimsHold(const Certificate &C, const bp::BooleanProgram &BP,
                const std::vector<bp::StateVec> &In,
                const std::vector<uint8_t> &Covered, std::string &Reason) {
  for (const Claim &Cl : C.Claims) {
    const bp::Check &Chk = BP.Checks[Cl.Check];
    const int Node = BP.CFG->Edges[Chk.Edge].From;
    if (Cl.Outcome == core::CheckOutcome::Unreachable) {
      if (Covered[Node]) {
        Reason = "unreachable claim at a covered node";
        return false;
      }
      continue;
    }
    if (!Covered[Node])
      continue; // Vacuously safe.
    if (Chk.Var < 0) {
      if (Chk.ConstantViolated) {
        Reason = "safe claim on a constant-violated check";
        return false;
      }
      continue;
    }
    if (bp::canBeOne(In[Node].get(Chk.Var))) {
      Reason = "safe claim but the annotation admits a violation";
      return false;
    }
  }
  return true;
}

} // namespace

const cj::CFGMethod *Checker::findUnit(const std::string &Unit) const {
  for (const cj::CFGMethod &M : CFG.Methods)
    if (M.name() == Unit)
      return &M;
  return nullptr;
}

CheckResult Checker::check(const Certificate &C) const {
  support::faultProbe("cert-check");
  auto T0 = std::chrono::steady_clock::now();
  CheckResult R;
  if (C.ContentHash != C.computeHash()) {
    R = fail("content hash mismatch");
  } else {
    switch (C.Kind) {
    case CertKind::BoolIntra:
      R = checkBoolIntra(C);
      break;
    case CertKind::Ifds:
      R = checkIfds(C);
      break;
    case CertKind::TvlaIndependent:
    case CertKind::TvlaRelational:
      R = checkTvla(C);
      break;
    case CertKind::AllocSite:
      R = checkAllocSite(C);
      break;
    case CertKind::SlicePartition:
      R = checkSlicePartition(C);
      break;
    default:
      R = fail("unknown certificate kind");
    }
  }
  auto T1 = std::chrono::steady_clock::now();
  R.Micros = std::chrono::duration<double, std::micro>(T1 - T0).count();
  if (!R.Valid && !R.Reason.empty())
    R.Reason = std::string(certKindName(C.Kind)) +
               (C.Unit.empty() ? "" : " " + C.Unit) + ": " + R.Reason;
  return R;
}

//===----------------------------------------------------------------------===//
// Boolean-program intraprocedural
//===----------------------------------------------------------------------===//

CheckResult Checker::checkBoolIntra(const Certificate &C) const {
  const cj::CFGMethod *M = findUnit(C.Unit);
  if (!M)
    return fail("unknown client method");

  // Rebuild the boolean program from the trusted inputs; the
  // certificate's dimensions must match or it was produced for a
  // different program.
  DiagnosticEngine Quiet;
  const bp::BooleanProgram BP = bp::buildBooleanProgram(Abs, *M, Quiet);
  const size_t NumVars = BP.Vars.size();

  Reader R(C.Payload);
  if (R.u32() != static_cast<uint32_t>(M->NumNodes) ||
      R.u32() != static_cast<uint32_t>(NumVars) ||
      R.u32() != static_cast<uint32_t>(BP.Checks.size()))
    return fail("dimension mismatch against rebuilt boolean program");
  const bool AssumeChecksPass = R.u8() != 0;

  std::string Reason;
  if (!validClaimShape(C, BP.Checks.size(), Reason))
    return fail(std::move(Reason));

  const dataflow::CFGInfo Info(*M);
  std::vector<bp::StateVec> In;
  std::vector<uint8_t> Covered;
  if (!readBoolSection(R, BP, *M, Info, AssumeChecksPass, In, Covered, Reason))
    return fail(std::move(Reason));
  if (!R.done())
    return fail("malformed payload");
  if (!claimsHold(C, BP, In, Covered, Reason))
    return fail(std::move(Reason));
  CheckResult Res = ok();
  Res.NumChecks = BP.Checks.size();
  return Res;
}

//===----------------------------------------------------------------------===//
// Partitioned boolean programs with partition evidence
//===----------------------------------------------------------------------===//

CheckResult Checker::checkSlicePartition(const Certificate &C) const {
  const cj::CFGMethod *M = findUnit(C.Unit);
  if (!M)
    return fail("unknown client method");

  Reader R(C.Payload);
  const uint8_t Mode = R.u8();
  const bool AssumeChecksPass = R.u8() != 0;
  if (Mode != 0)
    return fail("bad partition mode");
  if (R.u32() != static_cast<uint32_t>(M->NumNodes))
    return fail("node-count mismatch");
  const dataflow::CompVarMap Vars(*M);
  if (R.u32() != static_cast<uint32_t>(Vars.size()))
    return fail("variable-count mismatch");
  if (Vars.size() == 0)
    return fail("slice partition over no component variables");

  // The gate shared with the engine-side slicer: an abstraction reading
  // pre-call "ret" predicates cannot be partitioned.
  if (dataflow::abstractionReadsRetSources(Abs))
    return fail("abstraction reads pre-call 'ret' predicates");

  // --- Must-assigned annotation. Single-pass validation of an
  // under-approximation: the entry set stays within the parameters,
  // each edge grows it by at most its definite assignment, covered
  // nodes' successors stay covered, and every component-variable use is
  // in the pre-action set. Together: no execution uses an unassigned
  // component variable, the gate slicing cannot do without.
  // An uncovered node has an empty set.
  std::vector<dataflow::BitVector> Must(M->NumNodes);
  for (int N = 0; N != M->NumNodes; ++N) {
    uint8_t Tag = R.u8();
    if (Tag > 1)
      return fail("bad must-assigned tag");
    if (!Tag)
      continue;
    Must[N].assign(Vars.size(), false);
    for (size_t Byte = 0; Byte * 8 < Vars.size(); ++Byte) {
      const uint8_t Bits = R.u8();
      for (unsigned Bit = 0; Bit != 8; ++Bit) {
        if (!((Bits >> Bit) & 1))
          continue;
        const size_t V = Byte * 8 + Bit;
        if (V >= Vars.size())
          return fail("out-of-range must-assigned variable");
        Must[N][V] = true;
      }
    }
  }
  if (R.failed())
    return fail("malformed payload");
  if (Must[M->Entry].empty())
    return fail("entry node not covered by the must-assigned annotation");
  for (size_t V = 0; V != Vars.size(); ++V) {
    if (!Must[M->Entry][V])
      continue;
    bool Param = false;
    for (const cj::CParam &P : M->Method->Params)
      Param |= P.Name == Vars.name(static_cast<int>(V));
    if (!Param)
      return fail("entry must-assigned set exceeds the parameters");
  }
  for (const cj::CFGEdge &E : M->Edges) {
    const dataflow::BitVector &From = Must[E.From];
    if (From.empty())
      continue;
    const dataflow::BitVector &To = Must[E.To];
    if (To.empty())
      return fail("must-assigned annotation not closed");
    const std::string *Def = dataflow::actionDef(E.Act);
    const int DefIdx = Def ? Vars.index(*Def) : -1;
    for (size_t V = 0; V != Vars.size(); ++V)
      if (To[V] && !From[V] && static_cast<int>(V) != DefIdx)
        return fail("must-assigned annotation claims an unassigned variable");
    bool Uninit = false;
    dataflow::forEachActionUse(E.Act, [&](const std::string &U) {
      int I = Vars.index(U);
      if (I >= 0 && !From[I])
        Uninit = true;
    });
    if (Uninit)
      return fail("possibly-uninitialized use under the partition");
  }

  // --- The partition itself: every component variable in exactly one
  // slice.
  const uint32_t NumSlices = R.u32();
  if (R.failed() || NumSlices == 0 || NumSlices > Vars.size())
    return fail("implausible slice count");
  std::vector<std::vector<std::string>> Slices(NumSlices);
  std::map<std::string, int> SliceOf;
  for (uint32_t I = 0; I != NumSlices; ++I) {
    const uint32_t Len = R.u32();
    if (R.failed() || Len == 0 || Len > Vars.size())
      return fail("implausible slice size");
    for (uint32_t J = 0; J != Len; ++J) {
      std::string Name = R.str();
      if (R.failed() || Vars.index(Name) < 0)
        return fail("slice names a non-component variable");
      if (!SliceOf.emplace(Name, static_cast<int>(I)).second)
        return fail("variable in two slices");
      Slices[I].push_back(std::move(Name));
    }
  }
  if (SliceOf.size() != Vars.size())
    return fail("slices do not cover every component variable");

  // True when every named component variable of \p A lies in one slice.
  auto SameSlice = [&](const cj::Action &A) {
    int S = -1;
    bool Ok = true;
    auto Visit = [&](const std::string &V) {
      auto It = SliceOf.find(V);
      if (It == SliceOf.end())
        return;
      if (S < 0)
        S = It->second;
      else if (S != It->second)
        Ok = false;
    };
    if (const std::string *Def = dataflow::actionDef(A))
      Visit(*Def);
    dataflow::forEachActionUse(A, Visit);
    return Ok;
  };

  // The gates shared with the engine-side slicer: the partition is
  // sound only when no reference escapes the intraprocedural copy
  // algebra, parameters and the assigned return slot stay together, and
  // no action relates variables of two slices.
  if (M->HasHeapComponentRefs)
    return fail("heap component references");
  for (const cj::CFGEdge &E : M->Edges)
    if (E.Act.K == cj::Action::Kind::Havoc ||
        E.Act.K == cj::Action::Kind::OpaqueEffect)
      return fail("havocked component reference");
  int PSlice = -1;
  for (const cj::CParam &P : M->Method->Params) {
    auto It = SliceOf.find(P.Name);
    if (It == SliceOf.end())
      continue;
    if (PSlice < 0)
      PSlice = It->second;
    else if (PSlice != It->second)
      return fail("parameters split across slices");
  }
  bool DefinesRet = false;
  for (const cj::CFGEdge &E : M->Edges)
    if (const std::string *Def = dataflow::actionDef(E.Act))
      DefinesRet |= *Def == "$ret";
  if (DefinesRet && PSlice >= 0) {
    auto It = SliceOf.find("$ret");
    if (It != SliceOf.end() && It->second != PSlice)
      return fail("'$ret' split from the parameters");
  }
  for (const cj::CFGEdge &E : M->Edges)
    if (!SameSlice(E.Act))
      return fail("an action relates variables across slices");

  // --- The one annotation, over the partitioned program rebuilt from
  // trusted inputs and validated like a plain BoolIntra certificate.
  // Its checks are the unpartitioned program's, so claims index the
  // same enumeration either way.
  DiagnosticEngine Quiet;
  const bp::BooleanProgram BP = bp::buildBooleanProgram(Abs, *M, Quiet, Slices);
  if (R.u32() != static_cast<uint32_t>(BP.Vars.size()) ||
      R.u32() != static_cast<uint32_t>(BP.Checks.size()))
    return fail("dimension mismatch against rebuilt partitioned program");
  std::string Reason;
  if (!validClaimShape(C, BP.Checks.size(), Reason))
    return fail(std::move(Reason));
  const dataflow::CFGInfo Info(*M);
  std::vector<bp::StateVec> In;
  std::vector<uint8_t> Covered;
  if (!readBoolSection(R, BP, *M, Info, AssumeChecksPass, In, Covered,
                       Reason))
    return fail(std::move(Reason));
  if (!R.done())
    return fail("malformed payload");
  if (!claimsHold(C, BP, In, Covered, Reason))
    return fail(std::move(Reason));
  CheckResult Res = ok();
  Res.NumChecks = BP.Checks.size();
  return Res;
}

//===----------------------------------------------------------------------===//
// Interprocedural IFDS
//===----------------------------------------------------------------------===//

CheckResult Checker::checkIfds(const Certificate &C) const {
  const cj::CFGMethod *Main = CFG.mainCFG();
  if (!Main)
    return fail("client has no main() method");

  // Rebuild the exploded-supergraph model (flow functions + anchors)
  // from the trusted inputs.
  DiagnosticEngine Quiet;
  const bp::InterprocModel Model(Abs, CFG, *Main, Quiet);
  const ifds::Problem &Prob = Model.problem();
  const std::vector<bp::InterprocModel::Anchor> &Anchors = Model.anchors();

  Reader R(C.Payload);
  if (R.u32() != static_cast<uint32_t>(Prob.numProcs()) ||
      R.u32() != static_cast<uint32_t>(Anchors.size()))
    return fail("dimension mismatch against rebuilt model");

  std::string Reason;
  if (!validClaimShape(C, Anchors.size(), Reason))
    return fail(std::move(Reason));

  const uint32_t NumPE = R.u32();
  std::vector<bp::IfdsTabulation::PE> PEs;
  // The count is untrusted: reserve no more than the payload can hold
  // (16 bytes a path edge); a short payload fails the read below.
  PEs.reserve(std::min<size_t>(NumPE, C.Payload.size() / 16));
  // The closure sweep's membership tests go through the solver's own
  // path-edge index.
  ifds::PathEdgeIndex PEIndex(Prob);
  std::vector<bool> HasPE(Prob.numProcs(), false);
  for (uint32_t I = 0; I != NumPE && !R.failed(); ++I) {
    bp::IfdsTabulation::PE E;
    E.Proc = R.i32();
    E.EntryFact = R.i32();
    E.Node = R.i32();
    E.Fact = R.i32();
    if (E.Proc < 0 || E.Proc >= Prob.numProcs())
      return fail("path edge with out-of-range procedure");
    const ifds::ProcView &V = Prob.proc(E.Proc);
    int NF = Prob.numFacts(E.Proc);
    if (E.EntryFact < 0 || E.EntryFact >= NF || E.Fact < 0 || E.Fact >= NF ||
        E.Node < 0 || E.Node >= V.NumNodes)
      return fail("path edge with out-of-range node or fact");
    PEIndex.insert(E.Proc, E.EntryFact, E.Node, E.Fact, static_cast<int>(I));
    HasPE[E.Proc] = true;
    PEs.push_back(E);
  }
  // (procedure, entry fact) relations as one flag per pair.
  auto NoPairs = [&] {
    std::vector<std::vector<char>> Pairs(Prob.numProcs());
    for (int P = 0; P != Prob.numProcs(); ++P)
      Pairs[P].assign(Prob.numFacts(P), 0);
    return Pairs;
  };
  const uint32_t NumGenuine = R.u32();
  std::vector<std::vector<char>> StoredGenuine = NoPairs();
  for (uint32_t I = 0; I != NumGenuine && !R.failed(); ++I) {
    int P = R.i32();
    int F = R.i32();
    if (P < 0 || P >= Prob.numProcs() || F < 0 || F >= Prob.numFacts(P))
      return fail("genuine entry with out-of-range procedure or fact");
    StoredGenuine[P][F] = 1;
  }
  if (!R.done())
    return fail("malformed payload");

  auto Has = [&](int P, int D, int N, int F) {
    return PEIndex.find(P, D, N, F) >= 0;
  };

  // (a) Initial facts covered, and seed totality: an activated
  // procedure (any path edge at all) must tabulate every entry fact —
  // the solver's contract, and what makes summary application complete.
  std::vector<int> Init;
  Prob.initialFacts(Init);
  const int EntryProc = Prob.entryProc();
  for (int D : Init)
    if (!Has(EntryProc, D, Prob.proc(EntryProc).Entry, D))
      return fail("initial fact not covered at the entry procedure");
  for (int P = 0; P != Prob.numProcs(); ++P) {
    if (!HasPE[P])
      continue;
    for (int D = 0; D != Prob.numFacts(P); ++D)
      if (!Has(P, D, Prob.proc(P).Entry, D))
        return fail("activated procedure missing a seed path edge");
  }

  // Callee exit facts per (proc, entry fact), for summary closure.
  std::vector<std::vector<std::vector<int>>> ExitFacts(Prob.numProcs());
  for (int P = 0; P != Prob.numProcs(); ++P)
    ExitFacts[P].resize(Prob.numFacts(P));
  for (const bp::IfdsTabulation::PE &E : PEs)
    if (E.Node == Prob.proc(E.Proc).Exit)
      ExitFacts[E.Proc][E.EntryFact].push_back(E.Fact);

  // (b) Closure under the exploded flow functions.
  std::vector<std::vector<std::vector<int>>> OutEdges(Prob.numProcs());
  for (int P = 0; P != Prob.numProcs(); ++P) {
    const ifds::ProcView &V = Prob.proc(P);
    OutEdges[P].resize(V.NumNodes);
    for (size_t EI = 0; EI != V.Edges.size(); ++EI)
      OutEdges[P][V.Edges[EI].From].push_back(static_cast<int>(EI));
  }
  std::vector<int> Out;
  for (const bp::IfdsTabulation::PE &E : PEs) {
    const ifds::ProcView &V = Prob.proc(E.Proc);
    for (int EI : OutEdges[E.Proc][E.Node]) {
      const ifds::ProcView::Edge &CE = V.Edges[EI];
      if (CE.Callee < 0) {
        Out.clear();
        Prob.flowNormal(E.Proc, EI, E.Fact, Out);
        for (int F : Out)
          if (!Has(E.Proc, E.EntryFact, CE.To, F))
            return fail("path edges not closed under flowNormal");
        continue;
      }
      // Call edge: bypassing facts, callee activation, and summaries.
      Out.clear();
      Prob.flowCallToReturn(E.Proc, EI, E.Fact, Out);
      for (int F : Out)
        if (!Has(E.Proc, E.EntryFact, CE.To, F))
          return fail("path edges not closed under flowCallToReturn");
      if (!HasPE[CE.Callee])
        return fail("reached call site's callee is not activated");
      for (int D2 : Prob.flowCall(E.Proc, EI, E.Fact)) {
        // Empty when the callee never returns from this entry fact.
        for (int F2 : ExitFacts[CE.Callee][D2]) {
          Out.clear();
          Prob.flowSummary(E.Proc, EI, E.Fact, D2, F2, Out);
          for (int F : Out)
            if (!Has(E.Proc, E.EntryFact, CE.To, F))
              return fail("path edges not closed under flowSummary");
        }
      }
    }
  }

  // Genuine (procedure, entry fact) relation: the entry procedure's
  // initial facts, closed under flowCall feeds from genuine path edges.
  // Recomputed independently and required to match the stored relation
  // exactly, so verdict queries below answer from verified data.
  std::vector<std::vector<char>> Genuine = NoPairs();
  for (int D : Init)
    Genuine[EntryProc][D] = 1;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const bp::IfdsTabulation::PE &E : PEs) {
      if (!Genuine[E.Proc][E.EntryFact])
        continue;
      const ifds::ProcView &V = Prob.proc(E.Proc);
      for (int EI : OutEdges[E.Proc][E.Node]) {
        const ifds::ProcView::Edge &CE = V.Edges[EI];
        if (CE.Callee < 0)
          continue;
        for (int D2 : Prob.flowCall(E.Proc, EI, E.Fact))
          if (!Genuine[CE.Callee][D2]) {
            Genuine[CE.Callee][D2] = 1;
            Changed = true;
          }
      }
    }
  }
  if (Genuine != StoredGenuine)
    return fail("stored genuine-entry relation disagrees with closure");

  // Genuine reachability, one bit per exploded node as in the solver.
  ifds::ExplodedNodeSet ReachedG(Prob);
  for (const bp::IfdsTabulation::PE &E : PEs)
    if (Genuine[E.Proc][E.EntryFact])
      ReachedG.insert(E.Proc, E.Node, E.Fact);
  auto Reached = [&](int P, int N, int F) {
    return ReachedG.contains(P, N, F);
  };

  // (c) Claims uncovered by genuine reachability.
  for (const Claim &Cl : C.Claims) {
    const bp::InterprocModel::Anchor &A = Anchors[Cl.Check];
    if (Cl.Outcome == core::CheckOutcome::Unreachable) {
      if (Reached(A.Proc, A.Node, ifds::LambdaFact))
        return fail("unreachable claim at a genuinely reached node");
      continue;
    }
    if (!Reached(A.Proc, A.Node, ifds::LambdaFact))
      continue; // Vacuously safe.
    if (A.Var < 0) {
      if (A.ConstantViolated)
        return fail("safe claim on a constant-violated check");
      continue;
    }
    if (Reached(A.Proc, A.Node, 1 + A.Var))
      return fail("safe claim but a genuine path edge reaches the fact");
  }

  // Recompute the full verdict vector in the engine's report order:
  // anchors of activated procedures, in anchor order (the engine walks
  // procedures and their canonical checks in exactly this order, and
  // its Solver::reached is genuine-gated just like Reached here).
  CheckResult Res = ok();
  for (const bp::InterprocModel::Anchor &A : Anchors) {
    if (!Reached(A.Proc, Prob.proc(A.Proc).Entry, ifds::LambdaFact))
      continue; // Not callable from the entry method: not reported.
    core::CheckOutcome O;
    if (!Reached(A.Proc, A.Node, ifds::LambdaFact))
      O = core::CheckOutcome::Unreachable;
    else if (A.Var < 0)
      O = A.ConstantViolated ? core::CheckOutcome::Potential
                             : core::CheckOutcome::Safe;
    else
      O = Reached(A.Proc, A.Node, 1 + A.Var) ? core::CheckOutcome::Potential
                                             : core::CheckOutcome::Safe;
    Res.Canonical.push_back(O);
  }
  Res.NumChecks = Res.Canonical.size();
  return Res;
}

//===----------------------------------------------------------------------===//
// TVLA
//===----------------------------------------------------------------------===//

CheckResult Checker::checkTvla(const Certificate &C) const {
  const cj::CFGMethod *M = findUnit(C.Unit);
  if (!M)
    return fail("unknown client method");

  DiagnosticEngine Quiet;
  const tvla::Transfer T(Abs, *M, Quiet);
  const tvp::Vocabulary &V = T.vocabulary();

  const bool Relational = C.Kind == CertKind::TvlaRelational;
  Reader R(C.Payload);
  if ((R.u8() != 0) != Relational)
    return fail("configuration flag disagrees with certificate kind");
  if (R.u32() != static_cast<uint32_t>(M->NumNodes) ||
      R.u32() != static_cast<uint32_t>(V.Preds.size()) ||
      R.u32() != static_cast<uint32_t>(T.checks().size()))
    return fail("dimension mismatch against rebuilt vocabulary");

  std::string Reason;
  if (!validClaimShape(C, T.checks().size(), Reason))
    return fail(std::move(Reason));

  // Unique structure table: each distinct structure is decoded and
  // canonicality-checked once, then every per-node reference and every
  // transfer result is identified by its InternId.
  const uint32_t NumUnique = R.u32();
  if (R.failed() || NumUnique > 1u << 20)
    return fail("implausible unique-structure count");
  struct Hasher {
    uint64_t operator()(const tvla::Structure &S) const {
      return S.structuralHash();
    }
  };
  support::InternPool<tvla::Structure, Hasher> Pool;
  std::vector<support::InternId> TableIds;
  TableIds.reserve(NumUnique);
  for (uint32_t I = 0; I != NumUnique; ++I) {
    tvla::Structure S{V};
    if (!readStructure(R, V, S, Reason))
      return fail(std::move(Reason));
    if (!S.isCanonical(V))
      return fail("annotation structure is not canonical");
    TableIds.push_back(Pool.intern(std::move(S)));
  }

  std::vector<uint8_t> Tag(M->NumNodes, 0);
  std::vector<std::vector<support::InternId>> Ann(M->NumNodes);
  for (int N = 0; N != M->NumNodes; ++N) {
    Tag[N] = R.u8();
    if (Tag[N] > 2)
      return fail("bad annotation tag");
    if (Tag[N] != 1)
      continue;
    uint32_t Count = R.u32();
    if (R.failed() || Count > 65536)
      return fail("implausible structure count");
    if (!Relational && Count > 1)
      return fail("independent-attribute annotation with multiple "
                  "structures at one point");
    for (uint32_t I = 0; I != Count; ++I) {
      uint32_t Idx = R.u32();
      if (R.failed() || Idx >= NumUnique)
        return fail("structure id out of table range");
      Ann[N].push_back(TableIds[Idx]);
    }
  }
  if (!R.done())
    return fail("malformed payload");

  // One transfer evaluation per distinct (structure, edge) pair: the
  // accumulated requires evaluations are joins, so collapsing repeats
  // is exact, and the memo makes closure cost scale with distinct
  // structures instead of per-point occurrences.
  tvla::CheckAccum Acc = T.makeAccum();
  std::unordered_map<uint64_t, std::pair<bool, support::InternId>> Memo;
  auto ApplyMemo = [&](support::InternId SId,
                       int EIdx) -> std::pair<bool, support::InternId> {
    const uint64_t Key =
        (static_cast<uint64_t>(SId) << 32) | static_cast<uint32_t>(EIdx);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    bool Dead = false;
    tvla::Structure Out = T.apply(Pool.get(SId), EIdx, Dead, &Acc);
    std::pair<bool, support::InternId> Res{Dead, 0};
    if (!Dead)
      Res.second = Pool.internRef(Out);
    Memo.emplace(Key, Res);
    return Res;
  };

  // Reconstruct verify-pruned per-point sets in reverse-post-order
  // (the TVLA analogue of readBoolSection's pruned entries): a pruned
  // node's set is exactly its unique in-edge's image of the
  // predecessor's set.
  const dataflow::CFGInfo Info(*M);
  std::vector<int> ByRpo;
  for (int N = 0; N != M->NumNodes; ++N)
    if (Info.rpoNumber(N) >= 0)
      ByRpo.push_back(N);
  std::sort(ByRpo.begin(), ByRpo.end(), [&](int A, int B) {
    return Info.rpoNumber(A) < Info.rpoNumber(B);
  });
  for (int N : ByRpo) {
    if (Tag[N] != 2)
      continue;
    if (N == M->Entry || Info.predEdges(N).size() != 1)
      return fail("pruned node is not reconstructible");
    int EIdx = Info.predEdges(N)[0];
    int From = M->Edges[EIdx].From;
    if (Ann[From].empty() || Info.rpoNumber(From) < 0 ||
        Info.rpoNumber(From) >= Info.rpoNumber(N))
      return fail("pruned node's predecessor is not annotated earlier");
    for (support::InternId SId : Ann[From]) {
      auto [Dead, OutId] = ApplyMemo(SId, EIdx);
      if (Dead)
        continue;
      if (std::find(Ann[N].begin(), Ann[N].end(), OutId) == Ann[N].end())
        Ann[N].push_back(OutId);
    }
    if (Ann[N].empty())
      return fail("pruned node reconstructs to an empty set");
  }
  for (int N = 0; N != M->NumNodes; ++N)
    if (Tag[N] == 2 && Ann[N].empty())
      return fail("pruned node outside the reverse-post-order");

  // Per-node membership for the coverage fast path.
  std::vector<std::unordered_set<support::InternId>> Members(M->NumNodes);
  for (int N = 0; N != M->NumNodes; ++N)
    Members[N].insert(Ann[N].begin(), Ann[N].end());

  // The semantic coverage test both engines' joins induce: In is
  // subsumed by Member iff joining In into Member changes nothing. An
  // exact id match short-circuits it (joining a structure into itself
  // never changes anything).
  auto CoveredById = [&](support::InternId InId, int Node) {
    if (Members[Node].count(InId))
      return true;
    const tvla::Structure &In = Pool.get(InId);
    for (support::InternId MemId : Ann[Node]) {
      tvla::Structure Probe = Pool.get(MemId);
      if (!Probe.joinWith(In, V))
        return true;
    }
    return false;
  };

  // (a) Initial fact covered: the entry structure is the empty universe
  // (no component objects exist at method entry).
  {
    const tvla::Structure Empty(V);
    bool EntryCovered = false;
    for (support::InternId MemId : Ann[M->Entry]) {
      tvla::Structure Probe = Pool.get(MemId);
      if (!Probe.joinWith(Empty, V)) {
        EntryCovered = true;
        break;
      }
    }
    if (!EntryCovered)
      return fail("entry structure not covered");
  }

  // (b) Closure under the edge transfer, accumulating every requires
  // evaluation the annotation can exhibit.
  for (size_t EIdx = 0; EIdx != M->Edges.size(); ++EIdx) {
    int From = M->Edges[EIdx].From;
    int To = M->Edges[EIdx].To;
    for (support::InternId SId : Ann[From]) {
      auto [Dead, OutId] = ApplyMemo(SId, static_cast<int>(EIdx));
      if (Dead)
        continue;
      if (!CoveredById(OutId, To))
        return fail("annotation not closed under edge transfer");
    }
  }

  // (c) Claims against the accumulated evaluations.
  for (const Claim &Cl : C.Claims) {
    const tvla::CheckAccum::Cell &Cell = Acc.Cells[Cl.Check];
    if (Cl.Outcome == core::CheckOutcome::Unreachable) {
      if (Cell.Seen)
        return fail("unreachable claim but the annotation reaches the "
                    "check");
      continue;
    }
    if (Cell.Seen && Cell.Acc != Kleene::False)
      return fail("safe claim but a covering structure admits a violation");
  }
  CheckResult Res = ok();
  Res.NumChecks = T.checks().size();
  return Res;
}

//===----------------------------------------------------------------------===//
// Allocation-site baseline
//===----------------------------------------------------------------------===//

CheckResult Checker::checkAllocSite(const Certificate &C) const {
  const cj::CFGMethod *M = findUnit(C.Unit);
  if (!M)
    return fail("unknown client method");

  using core::baseline::AbsState;
  using core::baseline::Loc;
  using core::baseline::LocSet;

  Reader R(C.Payload);
  if (R.u32() != static_cast<uint32_t>(M->NumNodes))
    return fail("node count mismatch");
  LocSet Multi;
  if (!readLocSet(R, Multi))
    return fail("malformed summarized-site set");
  struct SiteRec {
    uint32_t Edge = 0;
    SourceLoc ReqLoc;
  };
  const uint32_t NumSites = R.u32();
  std::vector<SiteRec> Sites;
  for (uint32_t I = 0; I != NumSites && !R.failed(); ++I) {
    SiteRec S;
    S.Edge = R.u32();
    S.ReqLoc.Line = R.u32();
    S.ReqLoc.Col = R.u32();
    Sites.push_back(S);
  }
  std::vector<bool> Reached(M->NumNodes, false);
  std::vector<AbsState> In(M->NumNodes);
  for (int N = 0; N != M->NumNodes && !R.failed(); ++N) {
    if (R.u8() == 0)
      continue;
    Reached[N] = true;
    if (!readAbsState(R, In[N]))
      return fail("malformed abstract state");
  }
  if (!R.done())
    return fail("malformed payload");

  std::string Reason;
  if (!validClaimShape(C, Sites.size(), Reason))
    return fail(std::move(Reason));

  const core::baseline::AllocSiteTransfer T(Spec, *M);

  // (a) Initial fact covered: every component variable unknown at
  // entry.
  if (!Reached[M->Entry])
    return fail("entry node not covered");
  {
    AbsState Probe = In[M->Entry];
    if (Probe.join(core::baseline::AllocSiteTransfer::entryState(*M)))
      return fail("entry state does not cover the initial facts");
  }

  // (b) Closure under the edge transfer, with the *stored* summarized
  // sites: must-alias reasoning consults Multi, and re-applying the
  // transfer must neither escape the stored states nor discover a
  // summarized site the certificate omitted (a smaller Multi would let
  // unsound must-equal conclusions through).
  std::map<core::CheckSite, bool> Flagged;
  for (size_t EIdx = 0; EIdx != M->Edges.size(); ++EIdx) {
    int From = M->Edges[EIdx].From;
    int To = M->Edges[EIdx].To;
    if (!Reached[From])
      continue;
    AbsState St = In[From];
    LocSet Grown = Multi;
    T.apply(static_cast<int>(EIdx), St, Grown, &Flagged);
    if (Grown != Multi)
      return fail("stored summarized-site set is not closed");
    if (!Reached[To])
      return fail("annotation not closed: reachable successor uncovered");
    AbsState Probe = In[To];
    if (Probe.join(St))
      return fail("annotation not closed under edge transfer");
  }

  // The serialized site list indexes the claims; it must match the
  // obligations the closure sweep actually encountered, in the same
  // (sorted) order.
  if (Flagged.size() != Sites.size())
    return fail("obligation site list disagrees with the closure sweep");
  {
    size_t I = 0;
    for (const auto &[Site, F] : Flagged) {
      (void)F;
      if (Site.Method != C.Unit ||
          Site.Edge != static_cast<int>(Sites[I].Edge) ||
          !(Site.ReqLoc == Sites[I].ReqLoc))
        return fail("obligation site list disagrees with the closure sweep");
      ++I;
    }
  }

  // (c) Claims: a Safe claim needs every covering state to prove the
  // obligation. The baseline never reports Unreachable (unreached
  // obligations simply never enter the site list).
  for (const Claim &Cl : C.Claims) {
    if (Cl.Outcome != core::CheckOutcome::Safe)
      return fail("baseline certificates can only claim Safe");
    auto It = Flagged.begin();
    std::advance(It, Cl.Check);
    if (It->second)
      return fail("safe claim but a covering state fails to prove the "
                  "obligation");
  }
  CheckResult Res = ok();
  Res.NumChecks = Sites.size();
  return Res;
}
