//===----------------------------------------------------------------------===//
///
/// \file
/// Exploded-supergraph tabulation in the functional (summary-based)
/// style of Sharir & Pnueli as specialized by IFDS: path edges
/// ⟨(sp, d1) → (n, d2)⟩ record that fact d2 holds at node n of a
/// procedure whenever fact d1 holds at its entry; procedure summaries
/// are path edges ending at the exit node, applied at every call site
/// of the procedure.
///
/// The solver tabulates *every* entry fact of every called procedure
/// (the functional approach: summaries are total relations over entry
/// facts), because conservative problems may consult a summary entry
/// fact at a call site unconditionally even when no caller can feed it
/// — see Problem::flowSummary. Which entry facts are actually feedable
/// is tracked separately: flowCall defines the *genuine* feeding
/// relation, and a post-solve fixpoint marks (procedure, entry fact)
/// pairs reachable through genuine feeds from the program entry.
/// Verdict queries (reached) consult genuine path edges only; summary
/// application during the solve is uniform.
///
/// Every path edge carries a shortest-distance and a justification
/// (predecessor path edge, CFG edge, and for summary steps the callee
/// summary path edge), so a shortest interprocedurally-valid witness
/// path can be reconstructed for any reached exploded node — see
/// ifds/Witness.h.
///
/// The tabulation runs on flat tables: path edges live in one vector
/// and are found through an open-addressing PathEdgeIndex, the worklist
/// is a binary heap over (RPO priority, id) with an in-queue flag per
/// path edge, and flow functions write into one reused scratch buffer.
/// The heap pops exactly the order an ordered set of the same keys
/// would, which fixes the pop count, distances and predecessor links.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_IFDS_SOLVER_H
#define CANVAS_IFDS_SOLVER_H

#include "ifds/Problem.h"
#include "support/Budget.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace canvas {
namespace ifds {

/// Path edge (P, EntryFact, Node, Fact) -> id, as one open-addressing
/// hash table with linear probing. Each procedure owns a range of
/// numFacts(P)² × NumNodes keys; only occupied slots cost memory, and
/// the table stays at most half full, so memory grows with the number
/// of path edges. Shared by the solver and cert::Checker::checkIfds.
class PathEdgeIndex {
public:
  explicit PathEdgeIndex(const Problem &Prob);

  /// The id stored for the path edge, or -1. Arguments must be in
  /// range for \p P.
  int find(int P, int EntryFact, int Node, int Fact) const;
  /// Stores \p Id for the path edge unless it is present; returns the
  /// id stored for it either way.
  int insert(int P, int EntryFact, int Node, int Fact, int Id);

private:
  struct Slot {
    uint64_t Key = Empty;
    int Id = -1;
  };
  static constexpr uint64_t Empty = ~uint64_t(0);

  uint64_t key(int P, int EntryFact, int Node, int Fact) const {
    const ProcKeys &K = Procs[P];
    return K.Base + (static_cast<uint64_t>(EntryFact) * K.NumNodes +
                     static_cast<uint64_t>(Node)) *
                        K.NumFacts +
           static_cast<uint64_t>(Fact);
  }
  size_t slotOf(uint64_t Key) const;
  void rehash(size_t NumSlots);

  struct ProcKeys {
    uint64_t Base = 0;
    uint64_t NumNodes = 0;
    uint64_t NumFacts = 0;
  };
  std::vector<ProcKeys> Procs;
  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// One bit per exploded node (P, Node, Fact) of a problem: genuine
/// reachability in the solver, the checker and the IFDS emitter, and
/// the solver's exploded-node count.
class ExplodedNodeSet {
public:
  explicit ExplodedNodeSet(const Problem &Prob);

  /// Sets the node's bit; true when it was clear.
  bool insert(int P, int Node, int Fact) {
    const size_t B = bit(P, Node, Fact);
    const uint64_t Mask = uint64_t(1) << (B & 63);
    const bool New = !(Words[B >> 6] & Mask);
    Words[B >> 6] |= Mask;
    return New;
  }
  bool contains(int P, int Node, int Fact) const {
    const size_t B = bit(P, Node, Fact);
    return (Words[B >> 6] >> (B & 63)) & 1;
  }

private:
  size_t bit(int P, int Node, int Fact) const {
    return Base[P] + static_cast<size_t>(Node) * NumFacts[P] +
           static_cast<size_t>(Fact);
  }

  std::vector<size_t> Base; ///< First bit per procedure, then the total.
  std::vector<size_t> NumFacts;
  std::vector<uint64_t> Words;
};

class Solver {
public:
  /// How a path edge was last (best) derived — the predecessor link of
  /// witness reconstruction.
  enum class Via {
    Seed,         ///< ⟨(sp,d)→(sp,d)⟩, distance 0.
    Normal,       ///< Prev + one non-call CFG edge (flowNormal).
    CallToReturn, ///< Prev + one call edge, bypassing the callee.
    Summary,      ///< Prev at the call node + a callee summary
                  ///< (CalleePathEdge), crossing call and return.
  };

  struct PathEdge {
    int Proc = -1;
    int EntryFact = -1; ///< d1 at the procedure entry.
    int Node = -1;
    int Fact = -1;      ///< d2 at Node.
    /// Length of the shortest known same-level realization: CFG edges
    /// traversed, counting a summarized call as (2 + callee distance)
    /// for the call and return crossings.
    long Dist = 0;
    Via How = Via::Seed;
    int Prev = -1;           ///< Predecessor path edge id, -1 for seeds.
    int CFGEdge = -1;        ///< CFG edge justifying the last step.
    int CalleePathEdge = -1; ///< Callee summary edge for Via::Summary.
  };

  /// One genuine feed of a callee entry fact: the caller path edge
  /// whose fact at the call node seeded it (per Problem::flowCall),
  /// and the call edge.
  struct FactFeed {
    int CallerPathEdge = -1;
    int CFGEdge = -1;
  };

  struct Stats {
    size_t ExplodedNodes = 0; ///< Distinct (proc, node, fact) reached.
    size_t PathEdges = 0;
    size_t Summaries = 0;     ///< Distinct summary (entry, exit) pairs.
    unsigned Visits = 0;      ///< Worklist pops.
  };

  explicit Solver(const Problem &Prob);

  /// Runs the tabulation to fixpoint. \p Cancel, when given, is ticked
  /// once per worklist pop and informed of the path-edge population
  /// (cooperative budget enforcement; see support/Budget.h).
  void solve(support::CancelToken *Cancel = nullptr);

  /// True when some genuine path edge reaches (P, Node, Fact) — i.e.
  /// fact holds at the node along some call/return-matched path from
  /// the program entry.
  bool reached(int P, int Node, int Fact) const;

  /// True when the entry fact (P, Fact) is genuinely feedable from the
  /// program entry (the EntryMay1 relation of the functional engine).
  bool genuineEntry(int P, int Fact) const {
    return Procs[P].Genuine[Fact] != 0;
  }

  const Problem &problem() const { return Prob; }
  const std::vector<PathEdge> &pathEdges() const { return Edges; }
  /// Genuine feeds of callee entry fact (P, Fact); empty when none.
  const std::vector<FactFeed> &feedsOf(int P, int Fact) const {
    return Procs[P].Feeds[Fact];
  }
  /// Path edge id for (P, EntryFact, Node, Fact), or -1.
  int findPathEdge(int P, int EntryFact, int Node, int Fact) const {
    return Index.find(P, EntryFact, Node, Fact);
  }
  const Stats &stats() const { return St; }

private:
  struct ProcState {
    std::vector<int> Rpo; ///< Node -> priority.
    /// Out-edges of node N: OutEdges[OutBegin[N] .. OutBegin[N + 1]).
    std::vector<int> OutBegin;
    std::vector<int> OutEdges;
    bool Activated = false;
    /// Summary path edges, keyed (entry fact, exit fact) -> id; applied
    /// at call sites in key order.
    std::map<std::pair<int, int>, int> Summaries;
    /// Caller path edges parked at call edges into this procedure.
    std::vector<std::pair<int, int>> Callers; ///< (path edge, CFG edge).
    /// Genuine feeds per entry fact.
    std::vector<std::vector<FactFeed>> Feeds;
    /// Per entry fact: genuinely feedable (post-solve).
    std::vector<char> Genuine;
  };

  /// Per path edge flags.
  enum : uint8_t {
    Queued = 1,    ///< On the worklist.
    Processed = 2, ///< Popped at least once: its call-site callers and
                   ///< feeds are recorded.
  };

  void activate(int P);
  void propagate(int P, int EntryFact, int Node, int Fact, long Dist, Via How,
                 int Prev, int CFGEdge, int CalleePathEdge);
  void push(int Id);
  void process(int Id);
  void applySummary(int CallerPE, int CFGEdge, int SummaryPE);
  void computeGenuine();

  const Problem &Prob;
  std::vector<ProcState> Procs;
  std::vector<PathEdge> Edges;
  std::vector<uint8_t> Flags; ///< Per path edge, Queued | Processed.
  PathEdgeIndex Index;
  /// Min-heap of (RPO priority, id): processes nodes in roughly
  /// topological order, converging in few passes on reducible CFGs.
  /// Each id is on it at most once (Queued), so it pops exactly the
  /// sequence an ordered set of the same keys would.
  std::vector<std::pair<long, int>> Worklist;
  std::vector<int> Scratch; ///< Flow-function output.
  /// Exploded nodes some genuine path edge reaches (post-solve).
  ExplodedNodeSet ReachedG;
  Stats St;
  bool Solved = false;
};

} // namespace ifds
} // namespace canvas

#endif // CANVAS_IFDS_SOLVER_H
