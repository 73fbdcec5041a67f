#include "tvla/Certify.h"

#include "support/Interner.h"
#include "tvla/Structure.h"
#include "tvla/Transfer.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace canvas;
using namespace canvas::tvla;
using namespace canvas::wp;

namespace {

/// The fixpoint driver over the shared tvla::Transfer evaluator: two
/// worklist configurations (relational / independent-attribute) plus
/// verdict synthesis from the accumulated check evaluations. Everything
/// semantic about edges lives in Transfer; everything here is driver
/// machinery (worklists, interning, memoization, caps, budgets) that
/// the certificate checker must not depend on.
class TVLAEngine {
public:
  TVLAEngine(const DerivedAbstraction &Abs, const cj::CFGMethod &M,
             const TVLAOptions &Opts, DiagnosticEngine &Diags)
      : M(M), Opts(Opts), T(Abs, M, Diags), Acc(T.makeAccum()),
        Scratch(Opts.Cancel) {
    // Per-visit temporaries (edge images, snapshots, blur rebuilds) bump
    // out of the engine-owned arena; everything that survives a visit is
    // detached to the heap by interning / copy-assignment.
    T.setScratchArena(&Scratch);
  }

  TVLAResult run() {
    fixpoint();
    return finish();
  }

private:
  /// Hash-consing functor for the structure pool.
  struct StructureHasher {
    uint64_t operator()(const Structure &S) const {
      return S.structuralHash();
    }
  };
  using StructPool = support::InternPool<Structure, StructureHasher>;

  /// Interns \p S (copying — and detaching any arena-backed value to
  /// the heap — only on a genuine miss), charging the allocation budget
  /// when the pool admits a new structure.
  support::InternId internStructure(StructPool &Pool, const Structure &S) {
    size_t Before = Pool.size();
    support::InternId Id = Pool.internRef(S);
    if (Pool.size() != Before && Opts.Cancel)
      Opts.Cancel->addAllocation(Pool.get(Id).approxBytes());
    return Id;
  }

  void fixpoint() {
    if (Opts.Relational)
      fixpointRelational();
    else
      fixpointIndependent();
  }

  /// Relational configuration: per-point sets of interned StructIds
  /// over one hash-consed pool, with transfer results memoized per
  /// (StructId, edge). Structure identity is an integer comparison;
  /// the O(preds * N^2) canonical string is never built on this path.
  void fixpointRelational() {
    StructPool Pool;
    /// Resident ids per point, in deterministic insertion order (the
    /// order transfers visit them), plus a hash-set mirror for O(1)
    /// dedup lookups.
    std::vector<std::vector<support::InternId>> Order(M.NumNodes);
    std::vector<std::unordered_set<support::InternId>> Set(M.NumNodes);
    /// (StructId << 32 | edge) -> (dead, result id). A hit replays the
    /// cached result; the check accumulations the original run
    /// performed are Kleene joins of identical values, so skipping the
    /// re-evaluation is observationally identical.
    std::unordered_map<uint64_t, std::pair<bool, support::InternId>> Memo;

    support::InternId InitId =
        internStructure(Pool, Structure(T.vocabulary()));
    Order[M.Entry].push_back(InitId);
    Set[M.Entry].insert(InitId);

    std::vector<std::vector<int>> OutEdges(M.NumNodes);
    for (size_t E = 0; E != M.Edges.size(); ++E)
      OutEdges[M.Edges[E].From].push_back(static_cast<int>(E));

    // Resident structures across all program points, for the budget's
    // structure ceiling.
    uint64_t TotalStructs = 1;

    std::deque<int> Worklist{M.Entry};
    std::vector<bool> Queued(M.NumNodes, false);
    Queued[M.Entry] = true;
    while (!Worklist.empty()) {
      support::faultProbe("tvla.fixpoint");
      if (Opts.Cancel) {
        Opts.Cancel->tick();
        Opts.Cancel->noteStructures(TotalStructs);
      }
      int Node = Worklist.front();
      Worklist.pop_front();
      Queued[Node] = false;
      ++Result.Iterations;
      Scratch.reset(); // Nothing arena-backed survives a visit.

      // Snapshot the resident ids: insertions at To == Node must not
      // be transferred in this same visit (they requeue the node).
      std::vector<support::InternId> InIds = Order[Node];
      Result.MaxStructuresPerPoint =
          std::max(Result.MaxStructuresPerPoint,
                   static_cast<unsigned>(InIds.size()));

      for (int EIdx : OutEdges[Node]) {
        int To = M.Edges[EIdx].To;
        for (support::InternId InId : InIds) {
          uint64_t Key = (static_cast<uint64_t>(InId) << 32) |
                         static_cast<uint32_t>(EIdx);
          bool Dead = false;
          support::InternId OutId = 0;
          auto MIt = Memo.find(Key);
          if (MIt != Memo.end()) {
            ++Result.TransferCacheHits;
            Dead = MIt->second.first;
            OutId = MIt->second.second;
          } else {
            ++Result.TransferCacheMisses;
            Structure Out = T.apply(Pool.get(InId), EIdx, Dead, &Acc);
            if (!Dead)
              OutId = internStructure(Pool, Out);
            Memo.emplace(Key, std::make_pair(Dead, OutId));
          }
          if (Dead)
            continue;

          bool Changed = false;
          if (!Set[To].count(OutId)) {
            if (Order[To].size() < Opts.MaxStructuresPerPoint) {
              Set[To].insert(OutId);
              Order[To].push_back(OutId);
              Changed = true;
              ++TotalStructs;
            } else {
              // Cap: fold the overflow structure into the oldest
              // resident. The join changes the victim's canonical
              // identity, so it must be RE-KEYED — interned under its
              // fresh identity and replaced in the resident set — or
              // later dedup lookups would miss it (and a semantically
              // identical state could be admitted twice).
              support::InternId VictimId = Order[To].front();
              Structure Joined(Pool.get(VictimId), Scratch);
              Changed = Joined.joinWith(Pool.get(OutId), T.vocabulary());
              if (Changed) {
                support::InternId NewId = internStructure(Pool, Joined);
                Set[To].erase(VictimId);
                if (Set[To].insert(NewId).second) {
                  Order[To].front() = NewId;
                } else {
                  // The joined state already resides at this point:
                  // the victim's slot collapses into it.
                  Order[To].erase(Order[To].begin());
                  --TotalStructs;
                }
              }
            }
          }
          if (Changed && !Queued[To]) {
            Queued[To] = true;
            Worklist.push_back(To);
          }
        }
      }
    }

    Result.InternedStructures = Pool.size();
    if (Opts.AnnotationOut) {
      Opts.AnnotationOut->PerNode.assign(M.NumNodes, {});
      for (int N = 0; N != M.NumNodes; ++N)
        for (support::InternId Id : Order[N])
          Opts.AnnotationOut->PerNode[N].push_back(Pool.get(Id));
    }
  }

  /// Independent-attribute configuration: a single joined structure per
  /// program point.
  void fixpointIndependent() {
    std::vector<Structure> Ind(M.NumNodes, Structure(T.vocabulary()));
    std::vector<bool> Reached(M.NumNodes, false);
    Ind[M.Entry] = Structure(T.vocabulary());
    Reached[M.Entry] = true;

    std::vector<std::vector<int>> OutEdges(M.NumNodes);
    for (size_t E = 0; E != M.Edges.size(); ++E)
      OutEdges[M.Edges[E].From].push_back(static_cast<int>(E));

    uint64_t TotalStructs = 1;

    std::deque<int> Worklist{M.Entry};
    std::vector<bool> Queued(M.NumNodes, false);
    Queued[M.Entry] = true;
    while (!Worklist.empty()) {
      support::faultProbe("tvla.fixpoint");
      if (Opts.Cancel) {
        Opts.Cancel->tick();
        Opts.Cancel->noteStructures(TotalStructs);
      }
      int Node = Worklist.front();
      Worklist.pop_front();
      Queued[Node] = false;
      ++Result.Iterations;
      Scratch.reset();
      Result.MaxStructuresPerPoint =
          std::max(Result.MaxStructuresPerPoint, 1u);

      for (int EIdx : OutEdges[Node]) {
        int To = M.Edges[EIdx].To;
        bool Dead = false;
        Structure Out = T.apply(Ind[Node], EIdx, Dead, &Acc);
        if (Dead)
          continue;
        bool Changed = false;
        if (!Reached[To]) {
          Ind[To] = std::move(Out);
          Changed = true;
          ++TotalStructs;
          if (Opts.Cancel)
            Opts.Cancel->addAllocation(Ind[To].approxBytes());
        } else {
          Changed = Ind[To].joinWith(Out, T.vocabulary());
        }
        Reached[To] = true;
        if (Changed && !Queued[To]) {
          Queued[To] = true;
          Worklist.push_back(To);
        }
      }
    }

    if (Opts.AnnotationOut) {
      Opts.AnnotationOut->PerNode.assign(M.NumNodes, {});
      for (int N = 0; N != M.NumNodes; ++N)
        if (Reached[N])
          Opts.AnnotationOut->PerNode[N].push_back(Ind[N]);
    }
  }

  TVLAResult finish() {
    const std::vector<TransferCheck> &Checks = T.checks();
    for (size_t I = 0; I != Checks.size(); ++I) {
      const CheckAccum::Cell &C = Acc.Cells[I];
      TVLAResult::Chk Out;
      Out.Loc = Checks[I].Loc;
      Out.What = Checks[I].What;
      if (!C.Seen)
        Out.Outcome = bp::CheckOutcome::Unreachable;
      else if (C.Acc == Kleene::False)
        Out.Outcome = bp::CheckOutcome::Safe;
      else if (C.Acc == Kleene::True)
        Out.Outcome = bp::CheckOutcome::Definite;
      else
        Out.Outcome = bp::CheckOutcome::Potential;
      Result.Checks.push_back(std::move(Out));
    }
    return std::move(Result);
  }

  const cj::CFGMethod &M;
  TVLAOptions Opts;
  Transfer T;
  CheckAccum Acc;
  TVLAResult Result;
  /// Per-visit scratch arena (reset at each worklist pop); new block
  /// mappings are charged to the allocation budget.
  support::Arena Scratch;
};

} // namespace

TVLAResult tvla::certifyWithTVLA(const easl::Spec &Spec,
                                 const DerivedAbstraction &Abs,
                                 const cj::CFGMethod &M, bool Relational,
                                 DiagnosticEngine &Diags) {
  TVLAOptions Opts;
  Opts.Relational = Relational;
  return certifyWithTVLA(Spec, Abs, M, Opts, Diags);
}

TVLAResult tvla::certifyWithTVLA(const easl::Spec &,
                                 const DerivedAbstraction &Abs,
                                 const cj::CFGMethod &M,
                                 const TVLAOptions &Opts,
                                 DiagnosticEngine &Diags) {
  return TVLAEngine(Abs, M, Opts, Diags).run();
}
