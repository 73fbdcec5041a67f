#include "ifds/Solver.h"

#include "support/Interner.h"

#include <algorithm>
#include <functional>

using namespace canvas;
using namespace canvas::ifds;

Problem::~Problem() = default;

namespace {

/// Reverse-postorder numbering from the entry (unreachable nodes get
/// trailing numbers so every node has a priority).
std::vector<int> rpoNumber(const ProcView &P) {
  std::vector<std::vector<int>> Succ(P.NumNodes);
  for (const ProcView::Edge &E : P.Edges)
    Succ[E.From].push_back(E.To);
  std::vector<int> Order;
  std::vector<char> Seen(P.NumNodes, 0);
  // Iterative postorder DFS.
  std::vector<std::pair<int, size_t>> Stack;
  auto Visit = [&](int Root) {
    if (Seen[Root])
      return;
    Seen[Root] = 1;
    Stack.emplace_back(Root, 0);
    while (!Stack.empty()) {
      auto &[N, I] = Stack.back();
      if (I < Succ[N].size()) {
        int S = Succ[N][I++];
        if (!Seen[S]) {
          Seen[S] = 1;
          Stack.emplace_back(S, 0);
        }
      } else {
        Order.push_back(N);
        Stack.pop_back();
      }
    }
  };
  Visit(P.Entry);
  for (int N = 0; N != P.NumNodes; ++N)
    Visit(N);
  std::vector<int> Rpo(P.NumNodes, 0);
  for (size_t I = 0; I != Order.size(); ++I)
    Rpo[Order[Order.size() - 1 - I]] = static_cast<int>(I);
  return Rpo;
}

} // namespace

PathEdgeIndex::PathEdgeIndex(const Problem &Prob)
    : Procs(Prob.numProcs()), Slots(64) {
  uint64_t Base = 0;
  for (int P = 0; P != Prob.numProcs(); ++P) {
    ProcKeys &K = Procs[P];
    K.Base = Base;
    K.NumNodes = static_cast<uint64_t>(Prob.proc(P).NumNodes);
    K.NumFacts = static_cast<uint64_t>(Prob.numFacts(P));
    Base += K.NumFacts * K.NumFacts * K.NumNodes;
  }
}

size_t PathEdgeIndex::slotOf(uint64_t Key) const {
  const size_t Mask = Slots.size() - 1;
  size_t I = support::hashMix(Key) & Mask;
  while (Slots[I].Key != Key && Slots[I].Key != Empty)
    I = (I + 1) & Mask;
  return I;
}

int PathEdgeIndex::find(int P, int EntryFact, int Node, int Fact) const {
  return Slots[slotOf(key(P, EntryFact, Node, Fact))].Id;
}

int PathEdgeIndex::insert(int P, int EntryFact, int Node, int Fact, int Id) {
  const uint64_t Key = key(P, EntryFact, Node, Fact);
  Slot &S = Slots[slotOf(Key)];
  if (S.Key == Key)
    return S.Id;
  S = {Key, Id};
  if (2 * ++Count > Slots.size())
    rehash(2 * Slots.size());
  return Id;
}

void PathEdgeIndex::rehash(size_t NumSlots) {
  std::vector<Slot> Old(NumSlots);
  Old.swap(Slots);
  for (const Slot &S : Old)
    if (S.Key != Empty)
      Slots[slotOf(S.Key)] = S;
}

ExplodedNodeSet::ExplodedNodeSet(const Problem &Prob)
    : Base(Prob.numProcs() + 1, 0), NumFacts(Prob.numProcs()) {
  for (int P = 0; P != Prob.numProcs(); ++P) {
    NumFacts[P] = static_cast<size_t>(Prob.numFacts(P));
    Base[P + 1] =
        Base[P] + static_cast<size_t>(Prob.proc(P).NumNodes) * NumFacts[P];
  }
  Words.assign((Base.back() + 63) / 64, 0);
}

Solver::Solver(const Problem &Prob)
    : Prob(Prob), Index(Prob), ReachedG(Prob) {
  int N = Prob.numProcs();
  Procs.resize(N);
  for (int P = 0; P != N; ++P) {
    const ProcView &V = Prob.proc(P);
    ProcState &PS = Procs[P];
    PS.Rpo = rpoNumber(V);
    PS.OutBegin.assign(V.NumNodes + 1, 0);
    for (const ProcView::Edge &E : V.Edges)
      ++PS.OutBegin[E.From + 1];
    for (int Node = 0; Node != V.NumNodes; ++Node)
      PS.OutBegin[Node + 1] += PS.OutBegin[Node];
    PS.OutEdges.resize(V.Edges.size());
    std::vector<int> Fill(PS.OutBegin.begin(), PS.OutBegin.end() - 1);
    for (size_t E = 0; E != V.Edges.size(); ++E)
      PS.OutEdges[Fill[V.Edges[E].From]++] = static_cast<int>(E);
    PS.Feeds.resize(Prob.numFacts(P));
    PS.Genuine.assign(Prob.numFacts(P), 0);
  }
}

void Solver::activate(int P) {
  ProcState &PS = Procs[P];
  if (PS.Activated)
    return;
  PS.Activated = true;
  // Tabulate every entry fact (see the file comment of Solver.h).
  const ProcView &V = Prob.proc(P);
  for (int D = 0; D != Prob.numFacts(P); ++D)
    propagate(P, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);
}

void Solver::push(int Id) {
  if (Flags[Id] & Queued)
    return;
  Flags[Id] |= Queued;
  const PathEdge &PE = Edges[Id];
  Worklist.emplace_back(
      static_cast<long>(PE.Proc) * 1000000 + Procs[PE.Proc].Rpo[PE.Node], Id);
  std::push_heap(Worklist.begin(), Worklist.end(), std::greater<>());
}

void Solver::propagate(int P, int EntryFact, int Node, int Fact, long Dist,
                       Via How, int Prev, int CFGEdge, int CalleePathEdge) {
  const int NewId = static_cast<int>(Edges.size());
  const int Id = Index.insert(P, EntryFact, Node, Fact, NewId);
  if (Id == NewId) {
    Edges.push_back(
        {P, EntryFact, Node, Fact, Dist, How, Prev, CFGEdge, CalleePathEdge});
    Flags.push_back(0);
    push(Id);
    return;
  }
  PathEdge &PE = Edges[Id];
  if (Dist < PE.Dist) {
    // A strictly shorter realization: adopt the new justification and
    // reprocess so downstream distances relax too. Distances only
    // decrease, so this terminates.
    PE.Dist = Dist;
    PE.How = How;
    PE.Prev = Prev;
    PE.CFGEdge = CFGEdge;
    PE.CalleePathEdge = CalleePathEdge;
    push(Id);
  }
}

void Solver::applySummary(int CallerPE, int CFGEdge, int SummaryPE) {
  const PathEdge Caller = Edges[CallerPE]; // Copy: Edges may reallocate.
  const PathEdge &Sum = Edges[SummaryPE];
  Scratch.clear();
  Prob.flowSummary(Caller.Proc, CFGEdge, Caller.Fact, Sum.EntryFact, Sum.Fact,
                   Scratch);
  if (Scratch.empty())
    return;
  int To = Prob.proc(Caller.Proc).Edges[CFGEdge].To;
  long Dist = Caller.Dist + 2 + Sum.Dist;
  for (int F : Scratch)
    propagate(Caller.Proc, Caller.EntryFact, To, F, Dist, Via::Summary,
              CallerPE, CFGEdge, SummaryPE);
}

void Solver::process(int Id) {
  const PathEdge PE = Edges[Id]; // Copy: Edges may reallocate.
  const ProcView &V = Prob.proc(PE.Proc);
  ProcState &PS = Procs[PE.Proc];
  // A path edge's call-site records depend only on its node and fact,
  // so they are made on its first pop; later pops (after a distance
  // improvement) would find them all present.
  const bool First = !(Flags[Id] & Processed);
  Flags[Id] |= Processed;

  for (int I = PS.OutBegin[PE.Node]; I != PS.OutBegin[PE.Node + 1]; ++I) {
    const int EIdx = PS.OutEdges[I];
    const ProcView::Edge &E = V.Edges[EIdx];
    if (E.Callee >= 0) {
      activate(E.Callee);
      ProcState &CS = Procs[E.Callee];
      if (First) {
        // Park this caller edge for future summaries, and record the
        // genuine feeds of callee entry facts.
        CS.Callers.emplace_back(Id, EIdx);
        for (int D : Prob.flowCall(PE.Proc, EIdx, PE.Fact))
          CS.Feeds[D].push_back({Id, EIdx});
      }
      // Apply every summary already tabulated for the callee.
      for (const auto &[Key, SumId] : CS.Summaries) {
        (void)Key;
        applySummary(Id, EIdx, SumId);
      }
      // Facts bypassing the callee.
      Scratch.clear();
      Prob.flowCallToReturn(PE.Proc, EIdx, PE.Fact, Scratch);
      for (int F : Scratch)
        propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1,
                  Via::CallToReturn, Id, EIdx, -1);
    } else {
      Scratch.clear();
      Prob.flowNormal(PE.Proc, EIdx, PE.Fact, Scratch);
      for (int F : Scratch)
        propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1, Via::Normal,
                  Id, EIdx, -1);
    }
  }

  if (PE.Node == V.Exit) {
    // A summary edge ⟨(sp, d1) → (exit, d2)⟩: register and apply at
    // every known call site. Reprocessing after a distance improvement
    // re-applies with the better distance.
    PS.Summaries.emplace(std::make_pair(PE.EntryFact, PE.Fact), Id);
    for (size_t I = 0; I != PS.Callers.size(); ++I) {
      auto [CallerPE, CFGEdge] = PS.Callers[I];
      applySummary(CallerPE, CFGEdge, Id);
    }
  }
}

void Solver::solve(support::CancelToken *Cancel) {
  if (Solved)
    return;
  Solved = true;

  int Entry = Prob.entryProc();
  Procs[Entry].Activated = true;
  const ProcView &V = Prob.proc(Entry);
  std::vector<int> Init;
  Prob.initialFacts(Init);
  for (int D : Init)
    propagate(Entry, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);

  size_t AccountedEdges = 0;
  while (!Worklist.empty()) {
    support::faultProbe("ifds.solve");
    if (Cancel) {
      Cancel->tick();
      Cancel->noteStructures(Edges.size());
      if (Edges.size() > AccountedEdges) {
        Cancel->addAllocation((Edges.size() - AccountedEdges) *
                              sizeof(PathEdge));
        AccountedEdges = Edges.size();
      }
    }
    std::pop_heap(Worklist.begin(), Worklist.end(), std::greater<>());
    int Id = Worklist.back().second;
    Worklist.pop_back();
    Flags[Id] &= ~Queued;
    ++St.Visits;
    process(Id);
  }

  computeGenuine();

  St.PathEdges = Edges.size();
  for (const ProcState &PS : Procs)
    St.Summaries += PS.Summaries.size();
  ExplodedNodeSet Nodes(Prob);
  for (const PathEdge &PE : Edges)
    St.ExplodedNodes += Nodes.insert(PE.Proc, PE.Node, PE.Fact);
}

void Solver::computeGenuine() {
  // Genuine entry facts: the entry procedure's initial facts, plus
  // every callee entry fact fed (per flowCall) by a caller path edge
  // whose own entry fact is genuine. Fixpoint over the feed records.
  std::vector<int> Init;
  Prob.initialFacts(Init);
  for (int D : Init)
    Procs[Prob.entryProc()].Genuine[D] = 1;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ProcState &PS : Procs)
      for (size_t D = 0; D != PS.Genuine.size(); ++D) {
        if (PS.Genuine[D])
          continue;
        for (const FactFeed &F : PS.Feeds[D]) {
          const PathEdge &Caller = Edges[F.CallerPathEdge];
          if (Procs[Caller.Proc].Genuine[Caller.EntryFact]) {
            PS.Genuine[D] = 1;
            Changed = true;
            break;
          }
        }
      }
  }

  for (const PathEdge &PE : Edges)
    if (Procs[PE.Proc].Genuine[PE.EntryFact])
      ReachedG.insert(PE.Proc, PE.Node, PE.Fact);
}

bool Solver::reached(int P, int Node, int Fact) const {
  if (!Solved)
    throw CertifyError(CertifyErrorKind::InternalInvariant,
                       "ifds solver queried before solve()", "ifds");
  return ReachedG.contains(P, Node, Fact);
}
