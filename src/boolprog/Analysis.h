//===----------------------------------------------------------------------===//
///
/// \file
/// The intraprocedural possible-value analysis of Section 4.3: each
/// boolean variable's set of possible values (a subset of {0,1}) is
/// computed at every program point by a distributive fixpoint (an FDS
/// analysis in the paper's terminology), in O(E * B^2) time.
///
/// Precision: membership of 1 in a value set is exact with respect to
/// the meet-over-all-paths solution, because every assignment has the
/// form p0 := p1 || ... || pk (positive and monotone) — see DESIGN.md
/// decision 2; membership of 0 may be over-approximated across joins,
/// which can never induce a false alarm since requires checks only
/// consult 1-membership.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BOOLPROG_ANALYSIS_H
#define CANVAS_BOOLPROG_ANALYSIS_H

#include "boolprog/BooleanProgram.h"
#include "boolprog/StateVec.h"
#include "core/Verdict.h"
#include "support/Budget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace canvas {
namespace bp {

/// Verdict for one requires check — the shared vocabulary of
/// core/Verdict.h (every engine reports through core::CheckRecord).
using CheckOutcome = core::CheckOutcome;

struct IntraResult {
  /// In[n] = possible values of every variable on entry to node n,
  /// packed (see StateVec.h). A disengaged entry marks an unreachable
  /// node — except in a zero-variable program, where every state is
  /// zero-width and therefore disengaged by convention; Reached is the
  /// authoritative record there.
  std::vector<StateVec> In;
  /// Reached[n] != 0 iff the fixpoint ever propagated a state into
  /// node n. Engagement cannot encode this for zero-variable programs
  /// (see StateVec.h), and treating "disengaged" as "not yet seen"
  /// made the worklist requeue every node of a zero-variable loop
  /// forever.
  std::vector<uint8_t> Reached;
  std::vector<CheckOutcome> CheckResults; ///< Indexed like Checks.
  unsigned Iterations = 0;

  bool reachable(int Node) const {
    return Reached.empty() ? In[Node].engaged() : Reached[Node] != 0;
  }
  unsigned numFlagged() const;
  /// Renders the abstract state at \p Node (the Fig. 8 analogue),
  /// listing each boolean variable with its value set.
  std::string stateStr(const BooleanProgram &BP, int Node) const;
  /// One line per check: location, text, and verdict.
  std::string reportStr(const BooleanProgram &BP) const;
};

/// The one-edge transfer function of the possible-value analysis,
/// shared by the fixpoint driver and the proof-carrying-certificate
/// checker (cert::Checker): assume-refinement of the edge's checked
/// variables, then the parallel assignment, with every RHS evaluated
/// over the refined pre-state. The checker re-applies edges against a
/// claimed fixpoint annotation without running any worklist, so the
/// evaluator must be the single shared definition of edge semantics.
class EdgeTransfer {
public:
  explicit EdgeTransfer(const BooleanProgram &BP, bool AssumeChecksPass = true);

  /// Evaluates one parallel-assignment RHS over pre-state \p In.
  static ValueSet evalRhs(const BoolRhs &R, const StateVec &In);
  static ValueSet evalRhs(const BoolRhs &R, const std::vector<ValueSet> &In);

  /// Applies CFG edge \p EIdx to \p In. Returns false when no execution
  /// continues past the edge (a checked variable cannot be 0, so every
  /// path throws); \p Out is unspecified then.
  bool apply(int EIdx, const StateVec &In, StateVec &Out) const;
  bool apply(int EIdx, const std::vector<ValueSet> &In,
             std::vector<ValueSet> &Out) const;

  const BooleanProgram &program() const { return BP; }

private:
  const BooleanProgram &BP;
  /// Checked variables per edge (empty when !AssumeChecksPass).
  std::vector<std::vector<int>> AssumedZero;
};

/// Runs the worklist fixpoint on \p BP. On entry every variable may hold
/// either value (component variables are unconstrained/uninitialized at
/// method entry); pass \p EntryState to override (used by the
/// interprocedural analysis and by tests).
///
/// \p AssumeChecksPass models the exception semantics of the dynamic
/// check: a failed requires clause throws, so executions continuing past
/// a call satisfied it — the checked variable is refined to 0 on the
/// outgoing edge. Without it the analysis computes the exact
/// possible-value MOP of the (non-aborting) transformed program of
/// Section 4.3.
/// \p Cancel, when given, is ticked once per worklist pop (cooperative
/// budget enforcement; see support/Budget.h).
IntraResult analyzeIntraproc(const BooleanProgram &BP,
                             support::CancelToken *Cancel = nullptr);
IntraResult analyzeIntraproc(const BooleanProgram &BP,
                             const std::vector<ValueSet> &EntryState,
                             bool AssumeChecksPass = true,
                             support::CancelToken *Cancel = nullptr);

} // namespace bp
} // namespace canvas

#endif // CANVAS_BOOLPROG_ANALYSIS_H
