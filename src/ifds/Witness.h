//===----------------------------------------------------------------------===//
///
/// \file
/// Shortest-witness reconstruction over a solved exploded supergraph:
/// for any genuinely reached exploded node (procedure, node, fact),
/// recover a shortest call/return-matched path from the program entry
/// that establishes the fact — the CFL-reachability certificate of the
/// IFDS answer, efficiently checkable by replaying it.
///
/// A witness has two parts. The *prefix* is the chain of still-pending
/// calls from the program entry down to the procedure's entry together
/// with the entry fact assumed there, reconstructed from the genuine
/// feed records of the solver. The *same-level* part realizes the path
/// edge inside the procedure by following justification links; a
/// summary step expands recursively into a Call step, the callee's own
/// same-level realization, and a Return step.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_IFDS_WITNESS_H
#define CANVAS_IFDS_WITNESS_H

#include "ifds/Solver.h"

#include <vector>

namespace canvas {
namespace ifds {

/// One step of a reconstructed witness path.
struct TraceStep {
  enum class Kind {
    Step,   ///< A non-call CFG edge (or a call crossed via
            ///< call-to-return flow, without descending).
    Call,   ///< Descend into the callee of a call edge.
    Return, ///< Ascend from the callee back past the same call edge.
  };

  Kind K = Kind::Step;
  int Proc = -1;    ///< Procedure containing CFGEdge.
  int CFGEdge = -1; ///< Edge index within Proc.
  int Callee = -1;  ///< Callee procedure, for Call/Return.
  /// For Step/Return: the fact holding in Proc after the edge. For
  /// Call: the entry fact assumed in the callee.
  int Fact = -1;
};

class WitnessBuilder {
public:
  /// \p S must be solved.
  explicit WitnessBuilder(const Solver &S);

  /// Reconstructs a shortest witness to (P, Node, Fact). Returns false
  /// when the exploded node is not genuinely reached. \p SeedFactOut
  /// receives the entry fact assumed at the program entry (LambdaFact
  /// when the path needs no entry assumption).
  bool reconstruct(int P, int Node, int Fact, std::vector<TraceStep> &Out,
                   int &SeedFactOut) const;

private:
  static constexpr long Inf = 1L << 60;

  long prefixDist(int P, int EntryFact) const;
  void emitPrefix(int P, int EntryFact, std::vector<TraceStep> &Out,
                  int &SeedFactOut) const;
  void emitSameLevel(int PathEdgeId, std::vector<TraceStep> &Out) const;

  const Solver &S;
  /// D[P][entry fact] = shortest prefix distance from the program
  /// entry (Inf when unfed); Pred the feed realizing it.
  std::vector<std::vector<long>> D;
  std::vector<std::vector<Solver::FactFeed>> Pred;
};

} // namespace ifds
} // namespace canvas

#endif // CANVAS_IFDS_WITNESS_H
