#include "boolprog/Analysis.h"

#include <cassert>
#include <deque>

using namespace canvas;
using namespace canvas::bp;

unsigned IntraResult::numFlagged() const {
  unsigned N = 0;
  for (CheckOutcome O : CheckResults)
    N += O == CheckOutcome::Potential || O == CheckOutcome::Definite;
  return N;
}

std::string IntraResult::stateStr(const BooleanProgram &BP, int Node) const {
  if (!reachable(Node))
    return "<unreachable>\n";
  std::string Out;
  for (size_t V = 0; V != BP.Vars.size(); ++V)
    Out += "[" + BP.Vars[V].Name + "] = " +
           vsStr(In[Node].get(static_cast<unsigned>(V))) + "\n";
  return Out;
}

std::string IntraResult::reportStr(const BooleanProgram &BP) const {
  std::string Out;
  for (size_t I = 0; I != BP.Checks.size(); ++I) {
    const Check &C = BP.Checks[I];
    Out += C.Loc.str() + ": " + C.What + ": " +
           core::outcomeStr(CheckResults[I]) + "\n";
  }
  return Out;
}

namespace {

/// Shared RHS evaluation over any state with a per-variable accessor;
/// instantiated for the packed StateVec and the unpacked vector API.
template <typename GetVS>
ValueSet evalRhsImpl(const BoolRhs &R, GetVS At) {
  switch (R.K) {
  case BoolRhs::Kind::Const:
    return R.PlusOne ? ValueSet::One : ValueSet::Zero;
  case BoolRhs::Kind::Unknown:
    return ValueSet::Both;
  case BoolRhs::Kind::Or: {
    bool P1 = R.PlusOne;
    bool P0 = !R.PlusOne;
    bool Dead = false;
    for (int S : R.Sources) {
      ValueSet V = At(S);
      if (V == ValueSet::Bottom)
        Dead = true;
      P1 = P1 || canBeOne(V);
      P0 = P0 && canBeZero(V);
    }
    if (Dead)
      return ValueSet::Bottom;
    uint8_t Bits = (P0 ? 1 : 0) | (P1 ? 2 : 0);
    return static_cast<ValueSet>(Bits);
  }
  }
  return ValueSet::Both;
}

} // namespace

ValueSet EdgeTransfer::evalRhs(const BoolRhs &R, const StateVec &In) {
  return evalRhsImpl(R, [&](int S) { return In.get(S); });
}

ValueSet EdgeTransfer::evalRhs(const BoolRhs &R,
                               const std::vector<ValueSet> &In) {
  return evalRhsImpl(R, [&](int S) { return In[S]; });
}

EdgeTransfer::EdgeTransfer(const BooleanProgram &BP, bool AssumeChecksPass)
    : BP(BP), AssumedZero(BP.CFG->Edges.size()) {
  // Checked variables per edge: a failed requires throws, so executions
  // that continue past the call had value 0 (assume-refinement matching
  // the exception semantics of the dynamic check).
  if (AssumeChecksPass)
    for (const Check &C : BP.Checks)
      if (C.Var >= 0)
        AssumedZero[C.Edge].push_back(C.Var);
}

bool EdgeTransfer::apply(int EIdx, const StateVec &In,
                         StateVec &Out) const {
  Out = In;
  for (int V : AssumedZero[EIdx]) {
    if (!canBeZero(Out.get(V))) {
      // Every execution reaching this call violates the requires clause
      // and throws: nothing continues along this edge.
      return false;
    }
    Out.set(V, ValueSet::Zero);
  }
  // The parallel assignment reads the refined pre-state; the copy is a
  // couple of words for states of <= 64 variables.
  const StateVec Refined = Out;
  for (const auto &[Tgt, Rhs] : BP.EdgeAssignments[EIdx])
    Out.set(Tgt, evalRhs(Rhs, Refined));
  return true;
}

bool EdgeTransfer::apply(int EIdx, const std::vector<ValueSet> &In,
                         std::vector<ValueSet> &Out) const {
  StateVec PackedOut;
  if (!apply(EIdx, StateVec::pack(In), PackedOut))
    return false;
  Out = PackedOut.unpack();
  return true;
}

IntraResult bp::analyzeIntraproc(const BooleanProgram &BP,
                                 support::CancelToken *Cancel) {
  return analyzeIntraproc(BP,
                          std::vector<ValueSet>(BP.Vars.size(),
                                                ValueSet::Both),
                          true, Cancel);
}

IntraResult bp::analyzeIntraproc(const BooleanProgram &BP,
                                 const std::vector<ValueSet> &EntryState,
                                 bool AssumeChecksPass,
                                 support::CancelToken *Cancel) {
  const cj::CFGMethod &CFG = *BP.CFG;
  assert(EntryState.size() == BP.Vars.size() && "entry state size mismatch");

  IntraResult R;
  R.In.assign(CFG.NumNodes, StateVec());
  R.In[CFG.Entry] = StateVec::pack(EntryState);

  // Outgoing-edge adjacency.
  std::vector<std::vector<int>> OutEdges(CFG.NumNodes);
  for (size_t E = 0; E != CFG.Edges.size(); ++E)
    OutEdges[CFG.Edges[E].From].push_back(static_cast<int>(E));

  const EdgeTransfer Transfer(BP, AssumeChecksPass);

  std::deque<int> Worklist{CFG.Entry};
  std::vector<bool> Queued(CFG.NumNodes, false);
  Queued[CFG.Entry] = true;
  // First-visit bookkeeping must not lean on Dst.engaged(): the states
  // of a zero-variable program (a slice whose set has no iterators, or
  // a client with none at all) are zero-width and permanently
  // disengaged, so "not engaged ⇒ first visit ⇒ changed" would requeue
  // every node of a loop forever.
  R.Reached.assign(CFG.NumNodes, 0);
  R.Reached[CFG.Entry] = 1;

  while (!Worklist.empty()) {
    support::faultProbe("boolprog.intra");
    if (Cancel)
      Cancel->tick();
    int N = Worklist.front();
    Worklist.pop_front();
    Queued[N] = false;
    ++R.Iterations;
    const StateVec &InState = R.In[N];

    for (int EIdx : OutEdges[N]) {
      const cj::CFGEdge &E = CFG.Edges[EIdx];
      StateVec OutState;
      if (!Transfer.apply(EIdx, InState, OutState))
        continue; // Dead edge: every continuing execution throws.

      StateVec &Dst = R.In[E.To];
      bool Changed = false;
      if (!R.Reached[E.To]) {
        R.Reached[E.To] = 1;
        Dst = std::move(OutState);
        Changed = true;
      } else {
        Changed = Dst.joinWith(OutState);
      }
      if (Changed && !Queued[E.To]) {
        Queued[E.To] = true;
        Worklist.push_back(E.To);
      }
    }
  }

  // Evaluate checks against the state before their edge.
  R.CheckResults.reserve(BP.Checks.size());
  for (const Check &C : BP.Checks) {
    int From = CFG.Edges[C.Edge].From;
    if (!R.reachable(From)) {
      R.CheckResults.push_back(CheckOutcome::Unreachable);
      continue;
    }
    if (C.Var < 0) {
      R.CheckResults.push_back(C.ConstantViolated ? CheckOutcome::Definite
                                                  : CheckOutcome::Safe);
      continue;
    }
    ValueSet V = R.In[From].get(C.Var);
    if (!canBeOne(V))
      R.CheckResults.push_back(CheckOutcome::Safe);
    else if (!canBeZero(V))
      R.CheckResults.push_back(CheckOutcome::Definite);
    else
      R.CheckResults.push_back(CheckOutcome::Potential);
  }
  return R;
}
