//===----------------------------------------------------------------------===//
///
/// \file
/// The shared per-check verdict vocabulary of every certification
/// engine: the four-way CheckOutcome, the evidence-bearing WitnessTrace
/// (a call/return-matched path through the exploded supergraph, one
/// step per CFG edge with the component-operation history at each
/// step), and CheckRecord, the one record type carried by
/// bp::InterResult, bp::SlicedIntraResult and core::CertificationReport
/// alike — so witness attachment lands in a single place.
///
/// Header-only on purpose: boolprog and tvla sit below canvas_core in
/// the link order but share this vocabulary.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CORE_VERDICT_H
#define CANVAS_CORE_VERDICT_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace canvas {
namespace core {

/// Verdict for one requires check.
enum class CheckOutcome {
  Safe,        ///< 1 is not a possible value: verified.
  Potential,   ///< 1 is possible but not the only value: may violate.
  Definite,    ///< The only possible value is 1: violates on every path
               ///< reaching the call.
  Unreachable, ///< The call site is unreachable.
};

/// One step of a witness trace: a CFG edge traversed by the path, with
/// enough identity (method name + edge index) for the replay checker to
/// drive the concrete interpreter along it, plus rendered location,
/// action text, and the abstract fact established after the step.
struct WitnessStep {
  enum class Kind {
    Step,   ///< An intraprocedural edge (or a call the engine skipped).
    Call,   ///< Descend into a client callee (edge is the call edge).
    Return, ///< Ascend back to the caller (edge is the same call edge).
    Check,  ///< The final, violated-obligation edge (not executed).
  };

  Kind K = Kind::Step;
  std::string Method; ///< "Class::method" owning Edge.
  int Edge = -1;      ///< Edge index within that method's CFG.
  SourceLoc Loc;
  std::string ActionText;
  /// The tracked fact that may be 1 after this step (boolean-variable
  /// display name, possibly mentioning callee ghost variables); empty
  /// when only plain reachability is carried (the Lambda fact).
  std::string Fact;

  std::string str() const {
    std::string Out;
    switch (K) {
    case Kind::Step:
      Out = "step  ";
      break;
    case Kind::Call:
      Out = "call  ";
      break;
    case Kind::Return:
      Out = "return";
      break;
    case Kind::Check:
      Out = "check ";
      break;
    }
    Out += " " + Method + " " + Loc.str() + ": " + ActionText;
    if (!Fact.empty())
      Out += "   [may be 1: " + Fact + "]";
    return Out;
  }
};

/// A shortest interprocedurally-valid (call/return-matched) path from
/// the analyzed entry to a flagged check, ending in a Kind::Check step.
struct WitnessTrace {
  std::vector<WitnessStep> Steps;
  /// Nonempty when the path relies on a non-Lambda fact assumed 1 at
  /// the entry of the analyzed method (component variables are
  /// unconstrained at entry); the replay checker treats this as a
  /// nondeterministic assumption.
  std::string SeedFact;

  bool empty() const { return Steps.empty(); }
  size_t size() const { return Steps.size(); }

  /// True when Call and Return steps nest properly (every Return
  /// matches the innermost pending Call's edge and method) — the
  /// structural half of witness validity; the replay checker is the
  /// semantic half.
  bool callReturnMatched() const {
    std::vector<const WitnessStep *> Pending;
    for (const WitnessStep &S : Steps) {
      if (S.K == WitnessStep::Kind::Call) {
        Pending.push_back(&S);
      } else if (S.K == WitnessStep::Kind::Return) {
        if (Pending.empty() || Pending.back()->Edge != S.Edge ||
            Pending.back()->Method != S.Method)
          return false;
        Pending.pop_back();
      }
    }
    return Pending.empty();
  }

  /// Indented multi-line rendering ("the alarm as a story").
  std::string str() const {
    std::string Out;
    if (!SeedFact.empty())
      Out += "    assume at entry: [" + SeedFact + "] may be 1\n";
    unsigned Depth = 0;
    for (const WitnessStep &S : Steps) {
      if (S.K == WitnessStep::Kind::Return && Depth)
        --Depth;
      Out += "    ";
      for (unsigned I = 0; I != Depth; ++I)
        Out += "  ";
      Out += S.str() + "\n";
      if (S.K == WitnessStep::Kind::Call)
        ++Depth;
    }
    return Out;
  }
};

/// One requires obligation with its verdict — the unified record shared
/// by the intraprocedural and interprocedural engines.
struct CheckRecord {
  std::string Method; ///< "Class::method" containing the call.
  SourceLoc Loc;      ///< Client call location.
  std::string What;   ///< "i.next() requires !stale(i)" style text.
  CheckOutcome Outcome = CheckOutcome::Safe;
  SourceLoc ReqLoc;   ///< The requires clause in the component spec.
  /// Non-empty for Potential verdicts produced by a witness-recording
  /// engine: the evidence path.
  WitnessTrace Witness;
  /// True when the verdict came from a cheaper engine than requested
  /// (the supervisor degraded down the ladder after a budget or engine
  /// failure) and so may be more conservative than the requested engine
  /// would have reported. Only unproven outcomes are marked: a Safe
  /// verdict from any engine is sound and stays unmarked.
  bool Degraded = false;
  /// Why the supervisor degraded (empty unless Degraded).
  std::string DegradeNote;
};

inline const char *outcomeStr(CheckOutcome O) {
  switch (O) {
  case CheckOutcome::Safe:
    return "verified";
  case CheckOutcome::Potential:
    return "POTENTIAL VIOLATION";
  case CheckOutcome::Definite:
    return "DEFINITE VIOLATION";
  case CheckOutcome::Unreachable:
    return "unreachable";
  }
  return "?";
}

} // namespace core
} // namespace canvas

#endif // CANVAS_CORE_VERDICT_H
