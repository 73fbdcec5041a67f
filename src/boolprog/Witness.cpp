#include "boolprog/Witness.h"

#include <algorithm>

using namespace canvas;
using namespace canvas::bp;

std::vector<EdgeFlow> bp::computeEdgeFlows(const BooleanProgram &BP) {
  size_t NVars = BP.Vars.size();
  std::vector<EdgeFlow> Flows(BP.EdgeAssignments.size());
  for (size_t E = 0; E != BP.EdgeAssignments.size(); ++E) {
    if (BP.EdgeAssignments[E].empty())
      continue; // The identity: empty tables (see applyEdgeFlow).
    EdgeFlow &F = Flows[E];
    F.Assigned.assign(NVars, 0);
    F.VarToTargets.resize(NVars);
    for (const auto &[Tgt, Rhs] : BP.EdgeAssignments[E]) {
      F.Assigned[Tgt] = 1;
      switch (Rhs.K) {
      case BoolRhs::Kind::Const:
        if (Rhs.PlusOne)
          F.GenFromLambda.push_back(Tgt);
        break;
      case BoolRhs::Kind::Unknown:
        F.GenFromLambda.push_back(Tgt);
        break;
      case BoolRhs::Kind::Or:
        if (Rhs.PlusOne)
          F.GenFromLambda.push_back(Tgt);
        for (int S : Rhs.Sources)
          F.VarToTargets[S].push_back(Tgt);
        break;
      }
    }
  }
  return Flows;
}

std::vector<std::vector<char>> bp::checkKills(const BooleanProgram &BP) {
  std::vector<std::vector<char>> Kills(BP.CFG->Edges.size());
  for (const Check &C : BP.Checks)
    if (C.Var >= 0) {
      if (Kills[C.Edge].empty())
        Kills[C.Edge].assign(BP.Vars.size(), 0);
      Kills[C.Edge][C.Var] = 1;
    }
  return Kills;
}

void bp::applyEdgeFlow(const EdgeFlow &Flow, int Fact,
                       const std::vector<char> *Kills,
                       std::vector<int> &Out) {
  if (Fact == ifds::LambdaFact) {
    Out.push_back(ifds::LambdaFact);
    for (int T : Flow.GenFromLambda)
      Out.push_back(1 + T);
    return;
  }
  int V = Fact - 1;
  if (Kills && (*Kills)[V])
    return; // Refined to 0: the fact dies, and feeds nothing.
  if (Flow.Assigned.empty()) {
    Out.push_back(Fact); // An edge without assignments.
    return;
  }
  if (!Flow.Assigned[V])
    Out.push_back(Fact);
  for (int T : Flow.VarToTargets[V])
    Out.push_back(1 + T);
}

core::WitnessTrace
bp::renderTrace(const std::vector<ifds::TraceStep> &Steps,
                const std::vector<TraceRenderProc> &Procs, int EntryProc,
                int SeedFact) {
  core::WitnessTrace T;
  if (SeedFact != ifds::LambdaFact)
    T.SeedFact = Procs[EntryProc].BP->Vars[SeedFact - 1].Name;
  auto FactName = [&](int Proc, int Fact) -> std::string {
    if (Fact == ifds::LambdaFact)
      return "";
    return Procs[Proc].BP->Vars[Fact - 1].Name;
  };
  std::vector<std::string> MethodNames(Procs.size());
  for (const ifds::TraceStep &S : Steps) {
    const TraceRenderProc &P = Procs[S.Proc];
    const cj::CFGEdge &E = P.M->Edges[S.CFGEdge];
    core::WitnessStep W;
    if (MethodNames[S.Proc].empty())
      MethodNames[S.Proc] = P.M->name();
    W.Method = MethodNames[S.Proc];
    W.Edge = S.CFGEdge;
    W.Loc = E.Act.Loc;
    W.ActionText = E.Act.str();
    switch (S.K) {
    case ifds::TraceStep::Kind::Step:
      W.K = core::WitnessStep::Kind::Step;
      W.Fact = FactName(S.Proc, S.Fact);
      break;
    case ifds::TraceStep::Kind::Call:
      W.K = core::WitnessStep::Kind::Call;
      W.Fact = FactName(S.Callee, S.Fact);
      break;
    case ifds::TraceStep::Kind::Return:
      W.K = core::WitnessStep::Kind::Return;
      W.Fact = FactName(S.Proc, S.Fact);
      break;
    }
    T.Steps.push_back(std::move(W));
  }
  return T;
}

core::WitnessStep bp::renderCheckStep(const cj::CFGMethod &M,
                                      const BooleanProgram &BP,
                                      const Check &C) {
  core::WitnessStep W;
  W.K = core::WitnessStep::Kind::Check;
  W.Method = M.name();
  W.Edge = C.Edge;
  W.Loc = C.Loc;
  W.ActionText = C.What;
  if (C.Var >= 0)
    W.Fact = BP.Vars[C.Var].Name;
  return W;
}

std::vector<core::WitnessTrace> bp::intraWitnesses(const BooleanProgram &BP,
                                                   const IntraResult &R) {
  const cj::CFGMethod &M = *BP.CFG;
  const size_t NF = 1 + BP.Vars.size();
  const size_t NStates = static_cast<size_t>(M.NumNodes) * NF;
  auto Flagged = [&](size_t I) {
    return R.CheckResults[I] == CheckOutcome::Potential ||
           R.CheckResults[I] == CheckOutcome::Definite;
  };
  // The exploded state a check's witness must reach.
  auto TargetOf = [&](const Check &C) {
    const int Fact = C.Var >= 0 ? 1 + C.Var : ifds::LambdaFact;
    return static_cast<size_t>(M.Edges[C.Edge].From) * NF +
           static_cast<size_t>(Fact);
  };

  std::vector<char> IsTarget(NStates, 0);
  size_t Pending = 0;
  for (size_t I = 0; I != BP.Checks.size(); ++I)
    if (Flagged(I)) {
      char &T = IsTarget[TargetOf(BP.Checks[I])];
      if (!T)
        ++Pending;
      T = 1;
    }

  // The edges the fixpoint keeps live, and the checked variables each
  // edge refines to 0.
  const EdgeTransfer Transfer(BP);
  const std::vector<EdgeFlow> Flows = computeEdgeFlows(BP);
  std::vector<std::vector<int>> LiveOut(M.NumNodes);
  const std::vector<std::vector<char>> Kills = checkKills(BP);
  StateVec Scratch;
  for (size_t E = 0; E != M.Edges.size(); ++E) {
    const int From = M.Edges[E].From;
    if (R.reachable(From) &&
        Transfer.apply(static_cast<int>(E), R.In[From], Scratch))
      LiveOut[From].push_back(static_cast<int>(E));
  }

  // Breadth-first from every entry fact; Pred links give shortest
  // paths. Unseen = -2, seed = -1.
  std::vector<int> Pred(NStates, -2), PredEdge(NStates, -1);
  std::vector<size_t> Queue; // Each state is queued at most once.
  Queue.reserve(NStates);
  for (size_t F = 0; F != NF; ++F) {
    const size_t S = static_cast<size_t>(M.Entry) * NF + F;
    Pred[S] = -1;
    Queue.push_back(S);
    if (IsTarget[S])
      --Pending;
  }
  std::vector<int> Succ;
  for (size_t Head = 0; Head != Queue.size() && Pending; ++Head) {
    const size_t S = Queue[Head];
    const int Node = static_cast<int>(S / NF);
    const int Fact = static_cast<int>(S % NF);
    for (int E : LiveOut[Node]) {
      Succ.clear();
      applyEdgeFlow(Flows[E], Fact, Kills[E].empty() ? nullptr : &Kills[E],
                    Succ);
      for (int F : Succ) {
        const size_t To = static_cast<size_t>(M.Edges[E].To) * NF +
                          static_cast<size_t>(F);
        if (Pred[To] != -2)
          continue;
        Pred[To] = static_cast<int>(S);
        PredEdge[To] = E;
        Queue.push_back(To);
        if (IsTarget[To])
          --Pending;
      }
    }
  }

  std::vector<core::WitnessTrace> Out(BP.Checks.size());
  const std::vector<TraceRenderProc> Procs = {{&M, &BP}};
  for (size_t I = 0; I != BP.Checks.size(); ++I) {
    size_t S = TargetOf(BP.Checks[I]);
    if (!Flagged(I) || Pred[S] == -2)
      continue;
    std::vector<ifds::TraceStep> Steps;
    for (; Pred[S] >= 0; S = static_cast<size_t>(Pred[S])) {
      ifds::TraceStep Step;
      Step.Proc = 0;
      Step.CFGEdge = PredEdge[S];
      Step.Fact = static_cast<int>(S % NF);
      Steps.push_back(Step);
    }
    std::reverse(Steps.begin(), Steps.end());
    Out[I] = renderTrace(Steps, Procs, 0, static_cast<int>(S % NF));
    Out[I].Steps.push_back(renderCheckStep(M, BP, BP.Checks[I]));
  }
  return Out;
}
