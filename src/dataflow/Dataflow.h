//===----------------------------------------------------------------------===//
///
/// \file
/// A generic monotone dataflow framework over cj::CFGMethod: CFG
/// adjacency with reverse-post-order numbering, a priority worklist
/// solver parameterized over a lattice/transfer "problem", and small
/// shared helpers for reading component-variable defs and uses off CFG
/// actions.
///
/// The framework is the substrate of the Stage-0 client pre-analysis
/// (see PreAnalysis.h): definite assignment, component liveness,
/// instance slicing, and unreachable-edge pruning all run here before
/// any certification engine executes.
///
/// A Problem supplies:
///   using State = ...;                  // a join-semilattice element
///   State boundary() const;             // state at the direction origin
///   bool join(State &Dst, const State &Src) const;   // true if changed
///   State transfer(const cj::CFGEdge &E, const State &In) const;
///
/// For Direction::Forward, transfer maps the state at E.From to the
/// contribution joined into E.To; for Direction::Backward it maps the
/// state at E.To to the contribution joined into E.From.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_DATAFLOW_DATAFLOW_H
#define CANVAS_DATAFLOW_DATAFLOW_H

#include "client/CFG.h"
#include "support/Budget.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace canvas {
namespace dataflow {

enum class Direction { Forward, Backward };

/// Precomputed adjacency and orderings for one method CFG. Nodes
/// unreachable from the entry (e.g. code after a return) have no
/// reverse-post-order number.
class CFGInfo {
public:
  explicit CFGInfo(const cj::CFGMethod &M);

  const cj::CFGMethod &method() const { return *M; }
  /// Outgoing / incoming edge indices of node \p N.
  const std::vector<int> &succEdges(int N) const { return Succ[N]; }
  const std::vector<int> &predEdges(int N) const { return Pred[N]; }
  /// True when \p N is reachable from the entry node.
  bool reachable(int N) const { return RPONumber[N] >= 0; }
  /// Reverse-post-order number of \p N (entry = 0), or -1 when
  /// unreachable from the entry.
  int rpoNumber(int N) const { return RPONumber[N]; }
  unsigned numReachable() const { return NumReachable; }

private:
  const cj::CFGMethod *M;
  std::vector<std::vector<int>> Succ;
  std::vector<std::vector<int>> Pred;
  std::vector<int> RPONumber;
  unsigned NumReachable = 0;
};

/// Maps the method's component-typed variable names to dense indices.
class CompVarMap {
public:
  explicit CompVarMap(const cj::CFGMethod &M) {
    for (const auto &[Name, Type] : M.CompVars) {
      Indices.emplace(Name, static_cast<int>(Names.size()));
      Names.push_back(Name);
      Types.push_back(Type);
    }
  }

  /// Dense index of \p Name, or -1 when it is not a component variable.
  int index(const std::string &Name) const {
    auto It = Indices.find(Name);
    return It == Indices.end() ? -1 : It->second;
  }
  size_t size() const { return Names.size(); }
  const std::string &name(int I) const { return Names[I]; }
  const std::string &type(int I) const { return Types[I]; }

private:
  std::vector<std::string> Names;
  std::vector<std::string> Types;
  std::map<std::string, int> Indices;
};

/// The component variable assigned by \p A, or null. The CFG builder
/// guarantees a nonempty Lhs is always component-typed.
inline const std::string *actionDef(const cj::Action &A) {
  switch (A.K) {
  case cj::Action::Kind::AllocComp:
  case cj::Action::Kind::CompCall:
  case cj::Action::Kind::Copy:
  case cj::Action::Kind::Havoc:
  case cj::Action::Kind::ClientCall:
    return A.Lhs.empty() ? nullptr : &A.Lhs;
  case cj::Action::Kind::Nop:
  case cj::Action::Kind::OpaqueEffect:
    return nullptr;
  }
  return nullptr;
}

/// Invokes \p F for every component-variable use of \p A: call
/// receivers, call/constructor arguments ("" marks an unknown argument
/// and is skipped), and copy sources. Uses are evaluated in the
/// pre-action state.
template <typename Fn> void forEachActionUse(const cj::Action &A, Fn &&F) {
  switch (A.K) {
  case cj::Action::Kind::CompCall:
    F(A.Recv);
    [[fallthrough]];
  case cj::Action::Kind::AllocComp:
  case cj::Action::Kind::ClientCall:
  case cj::Action::Kind::Copy:
    for (const std::string &Arg : A.Args)
      if (!Arg.empty())
        F(Arg);
    return;
  case cj::Action::Kind::Nop:
  case cj::Action::Kind::Havoc:
  case cj::Action::Kind::OpaqueEffect:
    return;
  }
}

/// Fixpoint of one dataflow problem: the state at each node on the
/// direction-origin side (forward: node entry; backward: node exit), or
/// nullopt when the node was never reached.
template <typename Problem> struct SolveResult {
  using State = typename Problem::State;
  std::vector<std::optional<State>> States;
  unsigned NodeVisits = 0;

  bool reached(int N) const { return States[N].has_value(); }
};

/// Runs the priority worklist fixpoint of \p P over \p Info's method.
/// Nodes are prioritized by reverse-post-order number (forward) or its
/// reverse (backward), which visits loop bodies before loop exits and
/// keeps the number of re-visits near the theoretical minimum for
/// reducible CFGs. \p Cancel, when given, is ticked once per worklist
/// pop (cooperative budget enforcement; see support/Budget.h).
template <typename Problem>
SolveResult<Problem> solve(const CFGInfo &Info, const Problem &P,
                           Direction Dir,
                           support::CancelToken *Cancel = nullptr) {
  const cj::CFGMethod &M = Info.method();
  SolveResult<Problem> R;
  R.States.resize(M.NumNodes);

  auto Priority = [&](int N) {
    int RPO = Info.rpoNumber(N);
    if (Dir == Direction::Forward)
      return RPO >= 0 ? RPO : M.NumNodes + N;
    // Backward: later nodes first; entry-unreachable islands last.
    return RPO >= 0 ? M.NumNodes - 1 - RPO : M.NumNodes + N;
  };

  std::set<std::pair<int, int>> Worklist;
  int Boundary = Dir == Direction::Forward ? M.Entry : M.Exit;
  R.States[Boundary] = P.boundary();
  Worklist.emplace(Priority(Boundary), Boundary);

  while (!Worklist.empty()) {
    support::faultProbe("dataflow.solve");
    if (Cancel)
      Cancel->tick();
    int N = Worklist.begin()->second;
    Worklist.erase(Worklist.begin());
    ++R.NodeVisits;
    const std::vector<int> &EdgeList =
        Dir == Direction::Forward ? Info.succEdges(N) : Info.predEdges(N);
    for (int EIdx : EdgeList) {
      const cj::CFGEdge &E = M.Edges[EIdx];
      int Tgt = Dir == Direction::Forward ? E.To : E.From;
      typename Problem::State Out = P.transfer(E, *R.States[N]);
      bool Changed;
      if (!R.States[Tgt]) {
        R.States[Tgt] = std::move(Out);
        Changed = true;
      } else {
        Changed = P.join(*R.States[Tgt], Out);
      }
      if (Changed)
        Worklist.emplace(Priority(Tgt), Tgt);
    }
  }
  return R;
}

/// Single-pass verification that a candidate solution \p R is a valid
/// post-fixpoint of problem \p P: (a) the boundary node carries an
/// annotation covering P.boundary(), and (b) every annotated state is
/// closed under the edge transfer functions — each transferred
/// contribution joins into its target annotation without change. A
/// candidate passing both over-approximates solve()'s least fixpoint,
/// so any property that holds of all annotated states holds of the
/// reachable concrete states. This is the generic form of the
/// coverage+closure obligation the proof-carrying certificate checker
/// (cert::Checker) discharges for the engine-specific formats; it
/// shares only the Problem's boundary/transfer/join evaluators with
/// solve(), never the worklist. Returns false on the first violated
/// obligation, describing it in \p WhyNot when non-null.
template <typename Problem>
bool checkSolution(const CFGInfo &Info, const Problem &P, Direction Dir,
                   const SolveResult<Problem> &R,
                   std::string *WhyNot = nullptr) {
  const cj::CFGMethod &M = Info.method();
  auto Fail = [&](std::string S) {
    if (WhyNot)
      *WhyNot = std::move(S);
    return false;
  };
  if (R.States.size() != static_cast<size_t>(M.NumNodes))
    return Fail("annotation size disagrees with the CFG");
  int Boundary = Dir == Direction::Forward ? M.Entry : M.Exit;
  if (!R.States[Boundary])
    return Fail("boundary node " + std::to_string(Boundary) +
                " has no annotation");
  {
    typename Problem::State Probe = *R.States[Boundary];
    if (P.join(Probe, P.boundary()))
      return Fail("boundary state not covered at node " +
                  std::to_string(Boundary));
  }
  for (int N = 0; N != M.NumNodes; ++N) {
    if (!R.States[N])
      continue;
    const std::vector<int> &EdgeList =
        Dir == Direction::Forward ? Info.succEdges(N) : Info.predEdges(N);
    for (int EIdx : EdgeList) {
      const cj::CFGEdge &E = M.Edges[EIdx];
      int Tgt = Dir == Direction::Forward ? E.To : E.From;
      typename Problem::State Out = P.transfer(E, *R.States[N]);
      if (!R.States[Tgt])
        return Fail("annotated node " + std::to_string(N) +
                    " flows into unannotated node " + std::to_string(Tgt));
      typename Problem::State Probe = *R.States[Tgt];
      if (P.join(Probe, Out))
        return Fail("annotation not closed across edge " +
                    std::to_string(E.From) + "->" + std::to_string(E.To));
    }
  }
  return true;
}

/// Shared state shape for the bit-vector problems (definite assignment,
/// liveness): one bit per component variable.
using BitVector = std::vector<bool>;

/// Joins \p Src into \p Dst by elementwise OR; returns true on change.
inline bool joinUnion(BitVector &Dst, const BitVector &Src) {
  bool Changed = false;
  for (size_t I = 0; I != Dst.size(); ++I)
    if (Src[I] && !Dst[I]) {
      Dst[I] = true;
      Changed = true;
    }
  return Changed;
}

} // namespace dataflow
} // namespace canvas

#endif // CANVAS_DATAFLOW_DATAFLOW_H
