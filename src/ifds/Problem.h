//===----------------------------------------------------------------------===//
///
/// \file
/// The IFDS problem interface (Reps, Horwitz & Sagiv, POPL '95): an
/// interprocedural dataflow problem whose domain is a finite fact set
/// per procedure and whose transfer functions distribute over union, so
/// the meet-over-all-valid-paths solution is reachability in the
/// *exploded supergraph* — nodes are (program point, fact) pairs, and a
/// fact holds at a point iff some call/return-matched path reaches it
/// from (entry, Lambda).
///
/// Facts are small integers local to each procedure; fact 0 is Lambda,
/// the unconditional "reachable" fact that seeds the analysis. Flow
/// functions are given in their exploded-edge form: for an input fact d
/// at the edge source, enumerate the facts that hold after the edge
/// (appended to an output vector the caller clears).
///
/// One deliberate extension over textbook IFDS: return-flow composition
/// is delegated to the problem via flowSummary, which sees the caller
/// fact, the callee entry fact, and the callee exit fact *together*.
/// Problems whose call/return translation must stay correlated across
/// the callee (here: ghost-variable tuple assignments, which bind
/// caller objects to callee ghosts consistently at entry and exit) are
/// inexpressible as independent call/return-site flow functions without
/// losing precision; the combined hook keeps the solver generic and the
/// translation exact.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_IFDS_PROBLEM_H
#define CANVAS_IFDS_PROBLEM_H

#include <span>
#include <vector>

namespace canvas {
namespace ifds {

/// Fact 0 in every procedure: holds unconditionally at entry, killed by
/// nothing; its reachability at a node is plain control-flow
/// reachability along valid paths.
constexpr int LambdaFact = 0;

/// The control-flow skeleton of one procedure as the solver sees it:
/// integer nodes, directed edges, and for call edges the callee
/// procedure index.
struct ProcView {
  struct Edge {
    int From = 0;
    int To = 0;
    /// Callee procedure index for call edges, -1 otherwise. A call edge
    /// with Callee == -1 is an opaque call: the solver treats it as a
    /// normal edge (flowNormal).
    int Callee = -1;
  };

  int Entry = 0;
  int Exit = 0;
  int NumNodes = 0;
  std::vector<Edge> Edges;
};

/// An IFDS problem instance. Facts are dense integers per procedure
/// ([0, numFacts(P))), with fact 0 reserved for Lambda.
class Problem {
public:
  virtual ~Problem();

  virtual int numProcs() const = 0;
  virtual const ProcView &proc(int P) const = 0;
  /// The procedure whose entry seeds the analysis.
  virtual int entryProc() const = 0;
  virtual int numFacts(int P) const = 0;

  /// Facts holding at the entry of the entry procedure, Lambda
  /// included. (The entry method's component variables are
  /// unconstrained, so problems typically seed every fact.)
  virtual void initialFacts(std::vector<int> &Out) const = 0;

  /// Exploded flow across a non-call edge: facts holding after \p Edge
  /// of procedure \p P given input fact \p Fact holds before it.
  virtual void flowNormal(int P, int Edge, int Fact,
                          std::vector<int> &Out) const = 0;

  /// Callee entry facts seeded by input fact \p Fact at call edge
  /// \p Edge (the call-flow function), each at most once. Lambda must
  /// map to Lambda. The view stays valid as long as the problem.
  virtual std::span<const int> flowCall(int P, int Edge,
                                        int Fact) const = 0;

  /// Facts that bypass the callee (locals not passed, and Lambda).
  virtual void flowCallToReturn(int P, int Edge, int Fact,
                                std::vector<int> &Out) const = 0;

  /// Return-flow composition: facts holding after call edge \p Edge
  /// given that caller fact \p Fact feeds callee entry fact
  /// \p CalleeEntryFact (per flowCall) and the callee's exit reaches
  /// \p CalleeExitFact from that entry fact. See the file comment for
  /// why entry and exit are presented together.
  virtual void flowSummary(int P, int Edge, int Fact, int CalleeEntryFact,
                           int CalleeExitFact,
                           std::vector<int> &Out) const = 0;
};

} // namespace ifds
} // namespace canvas

#endif // CANVAS_IFDS_PROBLEM_H
