#include "ifds/Witness.h"
#include "support/CertifyError.h"

#include <cassert>

using namespace canvas;
using namespace canvas::ifds;

WitnessBuilder::WitnessBuilder(const Solver &S) : S(S) {
  const Problem &Prob = S.problem();
  D.resize(Prob.numProcs());
  Pred.resize(Prob.numProcs());
  for (int P = 0; P != Prob.numProcs(); ++P) {
    D[P].assign(Prob.numFacts(P), Inf);
    Pred[P].resize(Prob.numFacts(P));
  }
  std::vector<int> Init;
  Prob.initialFacts(Init);
  for (int F : Init)
    D[Prob.entryProc()][F] = 0;

  // Bellman-Ford over the genuine feed records: the graphs are tiny
  // (procedures x entry facts), and distances only decrease.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int P = 0; P != Prob.numProcs(); ++P)
      for (int F = 0; F != Prob.numFacts(P); ++F) {
        if (!S.genuineEntry(P, F))
          continue;
        for (const Solver::FactFeed &Feed : S.feedsOf(P, F)) {
          const Solver::PathEdge &Caller = S.pathEdges()[Feed.CallerPathEdge];
          long Base = prefixDist(Caller.Proc, Caller.EntryFact);
          if (Base == Inf)
            continue;
          long Cand = Base + Caller.Dist + 1;
          if (Cand < D[P][F]) {
            D[P][F] = Cand;
            Pred[P][F] = Feed;
            Changed = true;
          }
        }
      }
  }
}

long WitnessBuilder::prefixDist(int P, int EntryFact) const {
  return D[P][EntryFact];
}

bool WitnessBuilder::reconstruct(int P, int Node, int Fact,
                                 std::vector<TraceStep> &Out,
                                 int &SeedFactOut) const {
  // Choose the entry fact minimizing prefix + same-level distance.
  long Best = Inf;
  int BestPE = -1, BestEntry = -1;
  for (int E = 0; E != S.problem().numFacts(P); ++E) {
    if (!S.genuineEntry(P, E))
      continue;
    long Prefix = prefixDist(P, E);
    if (Prefix == Inf)
      continue;
    int Id = S.findPathEdge(P, E, Node, Fact);
    if (Id < 0)
      continue;
    long Total = Prefix + S.pathEdges()[Id].Dist;
    if (Total < Best) {
      Best = Total;
      BestPE = Id;
      BestEntry = E;
    }
  }
  if (BestPE < 0)
    return false;
  Out.clear();
  SeedFactOut = LambdaFact;
  emitPrefix(P, BestEntry, Out, SeedFactOut);
  emitSameLevel(BestPE, Out);
  return true;
}

void WitnessBuilder::emitPrefix(int P, int EntryFact,
                                std::vector<TraceStep> &Out,
                                int &SeedFactOut) const {
  if (P == S.problem().entryProc() && D[P][EntryFact] == 0) {
    // Initial facts have distance 0; a feed chain can never beat that,
    // so the recursion bottoms out exactly at the program entry.
    SeedFactOut = EntryFact;
    return;
  }
  const Solver::FactFeed &Feed = Pred[P][EntryFact];
  if (Feed.CallerPathEdge < 0)
    throw CertifyError(CertifyErrorKind::InternalInvariant,
                       "witness prefix requested for an unfed entry fact",
                       "ifds");
  const Solver::PathEdge &Caller = S.pathEdges()[Feed.CallerPathEdge];
  emitPrefix(Caller.Proc, Caller.EntryFact, Out, SeedFactOut);
  emitSameLevel(Feed.CallerPathEdge, Out);
  TraceStep Call;
  Call.K = TraceStep::Kind::Call;
  Call.Proc = Caller.Proc;
  Call.CFGEdge = Feed.CFGEdge;
  Call.Callee = P;
  Call.Fact = EntryFact;
  Out.push_back(Call);
}

void WitnessBuilder::emitSameLevel(int PathEdgeId,
                                   std::vector<TraceStep> &Out) const {
  const Solver::PathEdge &PE = S.pathEdges()[PathEdgeId];
  switch (PE.How) {
  case Solver::Via::Seed:
    return;
  case Solver::Via::Normal:
  case Solver::Via::CallToReturn: {
    emitSameLevel(PE.Prev, Out);
    TraceStep Step;
    Step.K = TraceStep::Kind::Step;
    Step.Proc = PE.Proc;
    Step.CFGEdge = PE.CFGEdge;
    Step.Fact = PE.Fact;
    Out.push_back(Step);
    return;
  }
  case Solver::Via::Summary: {
    emitSameLevel(PE.Prev, Out);
    const Solver::PathEdge &Sum = S.pathEdges()[PE.CalleePathEdge];
    TraceStep Call;
    Call.K = TraceStep::Kind::Call;
    Call.Proc = PE.Proc;
    Call.CFGEdge = PE.CFGEdge;
    Call.Callee = Sum.Proc;
    Call.Fact = Sum.EntryFact;
    Out.push_back(Call);
    emitSameLevel(PE.CalleePathEdge, Out);
    TraceStep Ret;
    Ret.K = TraceStep::Kind::Return;
    Ret.Proc = PE.Proc;
    Ret.CFGEdge = PE.CFGEdge;
    Ret.Callee = Sum.Proc;
    Ret.Fact = PE.Fact;
    Out.push_back(Ret);
    return;
  }
  }
}
