//===----------------------------------------------------------------------===//
// Tests for the monotone dataflow framework: CFG adjacency and
// reverse-post-order numbering, the priority worklist solver in both
// directions, unreachable-edge pruning, and the def/use helpers.
//===----------------------------------------------------------------------===//

#include "dataflow/Dataflow.h"

#include "ClientHelper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace canvas;
using namespace canvas::dataflow;
using canvas::dftest::Client;

namespace {

const char *DiamondClient = R"(
  class C {
    void main() {
      Set s = new Set();
      Iterator i = s.iterator();
      if (*) { i.next(); } else { s.add(); }
      i.next();
    }
  }
)";

const char *DeadTailClient = R"(
  class C {
    void main() {
      Set s = new Set();
      return;
      s.add();
    }
  }
)";

/// Minimum number of edges from the boundary node: a min-join lattice
/// exercising the solver with a non-bit-vector state.
struct DistanceProblem {
  using State = int;
  State boundary() const { return 0; }
  bool join(State &Dst, const State &Src) const {
    if (Src < Dst) {
      Dst = Src;
      return true;
    }
    return false;
  }
  State transfer(const cj::CFGEdge &, const State &In) const { return In + 1; }
};

TEST(CFGInfoTest, RPOIsATopologicalLikeOrder) {
  Client C(DiamondClient);
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);

  EXPECT_EQ(Info.rpoNumber(M.Entry), 0);
  EXPECT_EQ(Info.numReachable(), static_cast<unsigned>(M.NumNodes));

  // RPO numbers of reachable nodes are a permutation of 0..N-1.
  std::set<int> Seen;
  for (int N = 0; N != M.NumNodes; ++N) {
    ASSERT_TRUE(Info.reachable(N));
    EXPECT_TRUE(Seen.insert(Info.rpoNumber(N)).second);
  }
  EXPECT_EQ(*Seen.rbegin(), M.NumNodes - 1);

  // Succ/pred adjacency is consistent with the edge list.
  for (size_t E = 0; E != M.Edges.size(); ++E) {
    const auto &Succ = Info.succEdges(M.Edges[E].From);
    const auto &Pred = Info.predEdges(M.Edges[E].To);
    EXPECT_NE(std::find(Succ.begin(), Succ.end(), static_cast<int>(E)),
              Succ.end());
    EXPECT_NE(std::find(Pred.begin(), Pred.end(), static_cast<int>(E)),
              Pred.end());
  }
}

TEST(CFGInfoTest, CodeAfterReturnIsUnreachable) {
  Client C(DeadTailClient);
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);
  EXPECT_LT(Info.numReachable(), static_cast<unsigned>(M.NumNodes));
  EXPECT_TRUE(Info.reachable(M.Entry));
  EXPECT_TRUE(Info.reachable(M.Exit));
}

TEST(SolverTest, ForwardDistanceOnDiamond) {
  Client C(DiamondClient);
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);
  SolveResult<DistanceProblem> R = solve(Info, DistanceProblem{}, Direction::Forward);

  ASSERT_TRUE(R.reached(M.Entry));
  EXPECT_EQ(*R.States[M.Entry], 0);
  for (int N = 0; N != M.NumNodes; ++N)
    ASSERT_TRUE(R.reached(N)) << "node " << N;
  // The exit's shortest path crosses the whole method.
  EXPECT_GT(*R.States[M.Exit], 0);
  // Distances along each edge differ by at most one (shortest-path
  // triangle inequality).
  for (const cj::CFGEdge &E : M.Edges)
    EXPECT_LE(*R.States[E.To], *R.States[E.From] + 1);
}

TEST(SolverTest, BackwardDistanceToExit) {
  Client C(DiamondClient);
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);
  SolveResult<DistanceProblem> R =
      solve(Info, DistanceProblem{}, Direction::Backward);

  ASSERT_TRUE(R.reached(M.Exit));
  EXPECT_EQ(*R.States[M.Exit], 0);
  ASSERT_TRUE(R.reached(M.Entry));
  EXPECT_GT(*R.States[M.Entry], 0);
  for (const cj::CFGEdge &E : M.Edges)
    EXPECT_LE(*R.States[E.From], *R.States[E.To] + 1);
}

TEST(SolverTest, LoopConverges) {
  Client C(R"(
    class C {
      void main() {
        Set s = new Set();
        while (*) { s.add(); }
        Iterator i = s.iterator();
        i.next();
      }
    }
  )");
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);
  SolveResult<DistanceProblem> R = solve(Info, DistanceProblem{}, Direction::Forward);
  for (int N = 0; N != M.NumNodes; ++N)
    ASSERT_TRUE(R.reached(N));
  // With RPO priorities a reducible loop needs few node visits.
  EXPECT_LE(R.NodeVisits, 3u * static_cast<unsigned>(M.NumNodes));
}

TEST(SolverTest, CheckSolutionAcceptsFixpointAndRejectsTampering) {
  Client C(DiamondClient);
  const cj::CFGMethod &M = C.method("C", "main");
  CFGInfo Info(M);
  DistanceProblem P;
  for (Direction Dir : {Direction::Forward, Direction::Backward}) {
    SolveResult<DistanceProblem> R = solve(Info, P, Dir);
    std::string Why;
    EXPECT_TRUE(checkSolution(Info, P, Dir, R, &Why)) << Why;

    // The check certifies post-fixpoints, not the least one: in this
    // min-join lattice a smaller distance over-approximates, so
    // shifting every non-boundary node down by one still verifies.
    // Claiming a *longer* distance than derivable under-approximates
    // and must be caught by closure on the shortest-path edge.
    int Boundary = Dir == Direction::Forward ? M.Entry : M.Exit;
    SolveResult<DistanceProblem> Weak = R;
    for (int N = 0; N != M.NumNodes; ++N)
      if (N != Boundary)
        *Weak.States[N] -= 1;
    EXPECT_TRUE(checkSolution(Info, P, Dir, Weak, &Why)) << Why;

    SolveResult<DistanceProblem> Lie = R;
    *Lie.States[Boundary == M.Entry ? M.Exit : M.Entry] += 2;
    EXPECT_FALSE(checkSolution(Info, P, Dir, Lie, &Why));
    EXPECT_FALSE(Why.empty());

    // An uncovered boundary is rejected even with closure intact.
    SolveResult<DistanceProblem> Bad = R;
    *Bad.States[Boundary] = 5;
    EXPECT_FALSE(checkSolution(Info, P, Dir, Bad, &Why));

    // A missing annotation on a flowed-into node is rejected.
    SolveResult<DistanceProblem> Gap = R;
    Gap.States[Boundary == M.Entry ? M.Exit : M.Entry].reset();
    EXPECT_FALSE(checkSolution(Info, P, Dir, Gap, &Why));
  }
}

TEST(HelpersTest, DefsAndUsesOfActions) {
  Client C(R"(
    class C {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        Iterator j = i;
        j.next();
      }
    }
  )");
  const cj::CFGMethod &M = C.method("C", "main");
  CompVarMap Vars(M);
  EXPECT_GE(Vars.size(), 3u);
  EXPECT_GE(Vars.index("s"), 0);
  EXPECT_EQ(Vars.type(Vars.index("s")), "Set");
  EXPECT_EQ(Vars.index("nonexistent"), -1);

  std::set<std::string> Defs, Uses;
  for (const cj::CFGEdge &E : M.Edges) {
    if (const std::string *D = actionDef(E.Act))
      Defs.insert(*D);
    forEachActionUse(E.Act, [&](const std::string &U) { Uses.insert(U); });
  }
  EXPECT_TRUE(Defs.count("s"));
  EXPECT_TRUE(Defs.count("i"));
  EXPECT_TRUE(Defs.count("j"));
  EXPECT_TRUE(Uses.count("s")); // iterator() receiver.
  EXPECT_TRUE(Uses.count("i")); // copy source.
  EXPECT_TRUE(Uses.count("j")); // next() receiver.
}

TEST(HelpersTest, JoinUnionReportsChange) {
  BitVector A{false, true, false};
  BitVector B{true, true, false};
  EXPECT_TRUE(joinUnion(A, B));
  EXPECT_EQ(A, (BitVector{true, true, false}));
  EXPECT_FALSE(joinUnion(A, B));
}

} // namespace
