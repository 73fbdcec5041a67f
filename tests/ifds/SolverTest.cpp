//===----------------------------------------------------------------------===//
// Tests for the generic IFDS tabulation solver and witness
// reconstruction over small synthetic exploded problems (no boolean
// programs involved): reachability, call/return matching precision,
// genuine-entry gating, recursion termination, and shortest-trace
// shape.
//===----------------------------------------------------------------------===//

#include "ifds/Solver.h"
#include "ifds/Witness.h"

#include <gtest/gtest.h>

#include <map>

using namespace canvas;
using namespace canvas::ifds;

namespace {

/// A table-driven problem: per-proc edge flow tables, identity
/// call/return translation (fact f in the caller corresponds to fact f
/// in the callee), Lambda-only call-to-return bypass.
class TableProblem : public Problem {
public:
  struct Proc {
    ProcView View;
    /// Normal[edge][fact] -> facts; a missing fact maps to {} (kill).
    std::vector<std::map<int, std::vector<int>>> Normal;
  };

  std::vector<Proc> Ps;
  int Entry = 0;
  int NFacts = 2;
  /// Facts[f] == f, the storage flowCall's views point into.
  std::vector<int> Facts = {0, 1, 2, 3, 4, 5, 6, 7};

  int numProcs() const override { return static_cast<int>(Ps.size()); }
  const ProcView &proc(int P) const override { return Ps[P].View; }
  int entryProc() const override { return Entry; }
  int numFacts(int) const override { return NFacts; }

  void initialFacts(std::vector<int> &Out) const override {
    Out.push_back(LambdaFact);
  }

  void flowNormal(int P, int Edge, int Fact,
                  std::vector<int> &Out) const override {
    const auto &Table = Ps[P].Normal[Edge];
    auto It = Table.find(Fact);
    if (It != Table.end())
      Out = It->second;
  }

  std::span<const int> flowCall(int, int, int Fact) const override {
    return {&Facts.at(Fact), 1}; // Identity renaming.
  }

  void flowCallToReturn(int, int, int Fact,
                        std::vector<int> &Out) const override {
    if (Fact == LambdaFact)
      Out.push_back(LambdaFact);
  }

  void flowSummary(int, int, int Fact, int CalleeEntryFact,
                   int CalleeExitFact, std::vector<int> &Out) const override {
    // Identity translation both ways: the summary applies when the
    // caller holds exactly the fact the callee was entered with.
    if (Fact == CalleeEntryFact)
      Out.push_back(CalleeExitFact);
  }
};

/// Identity edge: Lambda -> Lambda, f -> f for all facts < NFacts.
std::map<int, std::vector<int>> identity(int NFacts) {
  std::map<int, std::vector<int>> T;
  for (int F = 0; F != NFacts; ++F)
    T[F] = {F};
  return T;
}

TEST(IFDSSolverTest, IntraproceduralGenAndKill) {
  TableProblem Prob;
  TableProblem::Proc P;
  P.View.Entry = 0;
  P.View.Exit = 3;
  P.View.NumNodes = 4;
  P.View.Edges = {{0, 1, -1}, {1, 2, -1}, {2, 3, -1}};
  P.Normal.resize(3, identity(2));
  P.Normal[0][0] = {0, 1}; // gen f from Lambda
  P.Normal[2][1] = {};     // kill f
  Prob.Ps.push_back(P);

  Solver S(Prob);
  S.solve();
  EXPECT_TRUE(S.reached(0, 1, 1));
  EXPECT_TRUE(S.reached(0, 2, 1));
  EXPECT_FALSE(S.reached(0, 3, 1));
  EXPECT_TRUE(S.reached(0, 3, 0));
  EXPECT_GT(S.stats().ExplodedNodes, 0u);
}

/// Two calls to the same callee with a kill between them: a
/// call/return-mismatched path would smuggle the fact past the kill.
TEST(IFDSSolverTest, CallReturnMatchingIsExact) {
  TableProblem Prob;
  TableProblem::Proc Main;
  Main.View.Entry = 0;
  Main.View.Exit = 4;
  Main.View.NumNodes = 5;
  Main.View.Edges = {
      {0, 1, -1}, // gen f
      {1, 2, 1},  // call p
      {2, 3, -1}, // kill f
      {3, 4, 1},  // call p
  };
  Main.Normal.resize(4, identity(2));
  Main.Normal[0][0] = {0, 1};
  Main.Normal[2][1] = {};
  Prob.Ps.push_back(Main);

  TableProblem::Proc Callee;
  Callee.View.Entry = 0;
  Callee.View.Exit = 1;
  Callee.View.NumNodes = 2;
  Callee.View.Edges = {{0, 1, -1}};
  Callee.Normal.resize(1, identity(2));
  Prob.Ps.push_back(Callee);

  Solver S(Prob);
  S.solve();
  EXPECT_TRUE(S.reached(0, 2, 1));  // survives the first call
  EXPECT_FALSE(S.reached(0, 3, 1)); // killed
  EXPECT_FALSE(S.reached(0, 4, 1)); // must NOT resurface via the callee
  EXPECT_TRUE(S.reached(0, 4, 0));
}

/// The solver tabulates every callee entry fact for summary reuse, but
/// reached() only reports facts fed by a genuine calling context.
TEST(IFDSSolverTest, GenuineEntryGating) {
  TableProblem Prob;
  TableProblem::Proc Main;
  Main.View.Entry = 0;
  Main.View.Exit = 1;
  Main.View.NumNodes = 2;
  Main.View.Edges = {{0, 1, 1}}; // call p; f never holds in main
  Main.Normal.resize(1, identity(2));
  Prob.Ps.push_back(Main);

  TableProblem::Proc Callee;
  Callee.View.Entry = 0;
  Callee.View.Exit = 1;
  Callee.View.NumNodes = 2;
  Callee.View.Edges = {{0, 1, -1}};
  Callee.Normal.resize(1, identity(2));
  Prob.Ps.push_back(Callee);

  Solver S(Prob);
  S.solve();
  EXPECT_TRUE(S.genuineEntry(1, 0));
  EXPECT_FALSE(S.genuineEntry(1, 1));
  // The (entry f -> exit f) summary exists for reuse, but f is not
  // genuinely reachable in the callee.
  EXPECT_NE(S.findPathEdge(1, 1, 1, 1), -1);
  EXPECT_FALSE(S.reached(1, 1, 1));
  EXPECT_TRUE(S.reached(1, 1, 0));
}

TEST(IFDSSolverTest, RecursionTerminates) {
  TableProblem Prob;
  TableProblem::Proc Main;
  Main.View.Entry = 0;
  Main.View.Exit = 1;
  Main.View.NumNodes = 2;
  Main.View.Edges = {{0, 1, 1}};
  Main.Normal.resize(1, identity(2));
  Prob.Ps.push_back(Main);

  TableProblem::Proc Rec;
  Rec.View.Entry = 0;
  Rec.View.Exit = 1;
  Rec.View.NumNodes = 2;
  Rec.View.Edges = {
      {0, 1, 1},  // recurse
      {0, 1, -1}, // base case: gen f
  };
  Rec.Normal.resize(2, identity(2));
  Rec.Normal[1][0] = {0, 1};
  Prob.Ps.push_back(Rec);

  Solver S(Prob);
  S.solve();
  EXPECT_TRUE(S.reached(1, 1, 1)); // f at the callee exit
  EXPECT_TRUE(S.reached(0, 1, 1)); // flows back out to main
}

TEST(IFDSSolverTest, WitnessIsShortestPath) {
  TableProblem Prob;
  TableProblem::Proc P;
  P.View.Entry = 0;
  P.View.Exit = 3;
  P.View.NumNodes = 4;
  P.View.Edges = {{0, 1, -1}, {1, 2, -1}, {2, 3, -1}};
  P.Normal.resize(3, identity(2));
  P.Normal[0][0] = {0, 1}; // early gen
  P.Normal[1][0] = {0, 1}; // late gen (same target node 2)
  Prob.Ps.push_back(P);

  Solver S(Prob);
  S.solve();
  WitnessBuilder WB(S);
  std::vector<TraceStep> Steps;
  int Seed = -1;
  ASSERT_TRUE(WB.reconstruct(0, 2, 1, Steps, Seed));
  EXPECT_EQ(Seed, LambdaFact);
  // Shortest realization: two edges, 0->1 then 1->2, ending in f.
  ASSERT_EQ(Steps.size(), 2u);
  EXPECT_EQ(Steps[0].CFGEdge, 0);
  EXPECT_EQ(Steps[1].CFGEdge, 1);
  EXPECT_EQ(Steps[1].Fact, 1);
  for (const TraceStep &T : Steps)
    EXPECT_EQ(T.K, TraceStep::Kind::Step);
}

TEST(IFDSSolverTest, InterproceduralWitnessHasMatchedCallReturn) {
  TableProblem Prob;
  TableProblem::Proc Main;
  Main.View.Entry = 0;
  Main.View.Exit = 2;
  Main.View.NumNodes = 3;
  Main.View.Edges = {{0, 1, 1}, {1, 2, -1}};
  Main.Normal.resize(2, identity(2));
  Prob.Ps.push_back(Main);

  TableProblem::Proc Gen;
  Gen.View.Entry = 0;
  Gen.View.Exit = 1;
  Gen.View.NumNodes = 2;
  Gen.View.Edges = {{0, 1, -1}};
  Gen.Normal.resize(1, identity(2));
  Gen.Normal[0][0] = {0, 1}; // the callee gens f
  Prob.Ps.push_back(Gen);

  Solver S(Prob);
  S.solve();
  ASSERT_TRUE(S.reached(0, 1, 1)); // f holds after the call returns

  WitnessBuilder WB(S);
  std::vector<TraceStep> Steps;
  int Seed = -1;
  ASSERT_TRUE(WB.reconstruct(0, 1, 1, Steps, Seed));
  ASSERT_EQ(Steps.size(), 3u);
  EXPECT_EQ(Steps[0].K, TraceStep::Kind::Call);
  EXPECT_EQ(Steps[0].Callee, 1);
  EXPECT_EQ(Steps[1].K, TraceStep::Kind::Step);
  EXPECT_EQ(Steps[1].Proc, 1);
  EXPECT_EQ(Steps[1].Fact, 1);
  EXPECT_EQ(Steps[2].K, TraceStep::Kind::Return);
  EXPECT_EQ(Steps[2].Proc, 0);
  EXPECT_EQ(Steps[2].CFGEdge, Steps[0].CFGEdge);
  EXPECT_EQ(Steps[2].Fact, 1);
}

} // namespace
