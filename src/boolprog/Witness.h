//===----------------------------------------------------------------------===//
///
/// \file
/// Witness support for the boolean-program certifiers: the exploded
/// (per-fact) reading of a boolean program's parallel assignments,
/// rendering of IFDS trace steps into the shared core::WitnessTrace
/// vocabulary, and the intraprocedural witnesses, read off the
/// possible-value fixpoint that decided the verdicts.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BOOLPROG_WITNESS_H
#define CANVAS_BOOLPROG_WITNESS_H

#include "boolprog/Analysis.h"
#include "boolprog/BooleanProgram.h"
#include "core/Verdict.h"
#include "ifds/Witness.h"

#include <vector>

namespace canvas {
namespace bp {

/// The exploded-edge reading of one edge's parallel assignment, over
/// facts 0 = Lambda, 1+v = "boolean variable v may be 1". Shared by
/// the intraprocedural witness walk and the interprocedural IFDS
/// adapter. An edge without assignments has empty tables.
struct EdgeFlow {
  /// Targets t whose assignment may produce 1 regardless of the input
  /// state (constant 1, havoc, or a PlusOne disjunction).
  std::vector<int> GenFromLambda;
  /// Assigned[v]: v is a target of the edge's parallel assignment (so
  /// its old value does not survive by identity).
  std::vector<char> Assigned;
  /// VarToTargets[v]: targets whose disjunction mentions v.
  std::vector<std::vector<int>> VarToTargets;
};

std::vector<EdgeFlow> computeEdgeFlows(const BooleanProgram &BP);

/// Per edge, the variables a requires check on that edge refines to 0
/// past the check (the assume-refinement); empty for an edge without a
/// checked variable.
std::vector<std::vector<char>> checkKills(const BooleanProgram &BP);

/// Applies \p Flow to input fact \p Fact (with Lambda always
/// surviving); \p Kills marks variables refined to 0 across the edge
/// (one row of checkKills, or null for none).
void applyEdgeFlow(const EdgeFlow &Flow, int Fact,
                   const std::vector<char> *Kills, std::vector<int> &Out);

/// Rendering context for one IFDS procedure index.
struct TraceRenderProc {
  const cj::CFGMethod *M = nullptr;   ///< Edge actions and locations.
  const BooleanProgram *BP = nullptr; ///< Fact display names.
};

/// Renders solver trace steps into the shared witness vocabulary.
/// \p SeedFact is the entry fact assumed at \p EntryProc's entry.
core::WitnessTrace renderTrace(const std::vector<ifds::TraceStep> &Steps,
                               const std::vector<TraceRenderProc> &Procs,
                               int EntryProc, int SeedFact);

/// The final Kind::Check step of a witness, from the flagged check.
core::WitnessStep renderCheckStep(const cj::CFGMethod &M,
                                  const BooleanProgram &BP, const Check &C);

/// Shortest witnesses for the flagged checks of \p BP, read off \p R,
/// its analyzeIntraproc fixpoint under AssumeChecksPass. One
/// breadth-first walk over the exploded (node, fact) graph, seeded with
/// Lambda and every entry fact, follows only the edges the fixpoint
/// keeps live (EdgeTransfer::apply succeeds on the source state), with
/// a checked variable killed past its check. Given those live edges the
/// walk's 1-facts are exactly the fixpoint's may-be-1 bits, so every
/// Potential or Definite check gets a witness. Indexed like BP.Checks;
/// empty for checks that are not flagged.
std::vector<core::WitnessTrace> intraWitnesses(const BooleanProgram &BP,
                                               const IntraResult &R);

} // namespace bp
} // namespace canvas

#endif // CANVAS_BOOLPROG_WITNESS_H
