//===----------------------------------------------------------------------===//
///
/// \file
/// The output of the staged abstraction-derivation process of Section 4:
/// instrumentation-predicate families (Fig. 4) and component-method
/// abstractions (Fig. 5), derived automatically from an Easl spec by
/// iterated weakest-precondition computation.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_WP_ABSTRACTION_H
#define CANVAS_WP_ABSTRACTION_H

#include "easl/AST.h"
#include "logic/Formula.h"
#include "support/Diagnostics.h"
#include "wp/Templates.h"

#include <string>
#include <vector>

namespace canvas {
namespace wp {

/// A family of instrumentation predicates (Sec. 4.1 "Predicate
/// Families"): a conjunction of path equality/disequality literals over
/// canonical typed free variables "$p0", "$p1", ... For a given client it
/// is instantiated once per tuple of client variables of matching types.
///
/// Example (CMP "mutx"): VarTypes = {Iterator, Iterator},
/// Body = ($p0 != $p1 && $p0.set == $p1.set).
struct PredicateFamily {
  std::vector<std::string> VarTypes;
  Conjunction Body;
  /// Canonical identity: type signature plus normalized body rendering.
  std::string Key;
  /// Auto-assigned display name ("P0", "P1", ...).
  std::string DisplayName;

  unsigned arity() const { return VarTypes.size(); }
  /// Canonical free-variable name of slot \p I.
  static std::string slotName(unsigned I) { return "$p" + std::to_string(I); }
  std::string str() const;
};

/// A reference to a predicate family applied to named variables. The
/// variable namespace depends on context: in update rules it is the
/// method's binders ("this", parameter names, "ret") plus universally
/// quantified slots ("$q0", ...); after client instantiation it is client
/// variable names.
struct PredApp {
  int Family = -1;
  std::vector<std::string> Args;

  std::string str(const std::vector<PredicateFamily> &Families) const;

  friend bool operator==(const PredApp &A, const PredApp &B) {
    return A.Family == B.Family && A.Args == B.Args;
  }
};

/// One row of a derived method abstraction (Fig. 5): how a call updates
/// one shape of target predicate instance.
///
/// The target is Family applied to a tuple whose slot I is either the
/// method result ("ret") or the universally quantified variable "$qI"
/// (ranging over all client variables of the slot type that are not
/// assigned by the call). The new value is ConstantTrue || OR(Sources),
/// all sources evaluated in the pre-call state.
struct UpdateRule {
  int Family = -1;
  /// Per target slot: true when the slot is bound to "ret".
  std::vector<bool> RetSlots;
  bool ConstantTrue = false;
  std::vector<PredApp> Sources;
  /// True when the rule is "p := p" (value unaffected); such rules are
  /// kept out of the printed table, mirroring the paper's optimization.
  bool IsIdentity = false;

  /// The target as a PredApp over "$qI"/"ret" names.
  PredApp target() const;
  std::string str(const std::vector<PredicateFamily> &Families) const;
};

/// The derived abstraction of one component method (or of a constructor,
/// exposed to clients as the pseudo-method "new").
struct MethodAbstraction {
  std::string ClassName;
  std::string MethodName; ///< "new" for the constructor pseudo-method.
  bool HasThis = true;    ///< False for "new".
  bool ReturnsValue = false;
  std::string ReturnType; ///< Valid when ReturnsValue.
  /// True when the returned reference is provably a freshly allocated
  /// object (WP of "ret == q" is false for a fresh symbolic q). The
  /// first-order engine then models the call as an allocation.
  bool ReturnsFresh = false;
  /// Binder parameter names and types, excluding this/ret.
  std::vector<std::pair<std::string, std::string>> Params;
  /// Predicates (over binder names) that must be FALSE on entry; each
  /// derives from one disjunct of the negation of a requires clause.
  /// Source location of the requires clause is kept for reporting.
  std::vector<std::pair<PredApp, SourceLoc>> RequiresFalse;
  std::vector<UpdateRule> Rules;

  std::string str(const std::vector<PredicateFamily> &Families) const;
};

/// The complete derived component abstraction: the analogue of Fig. 4
/// (Families) plus Fig. 5 (Methods).
struct DerivedAbstraction {
  std::vector<PredicateFamily> Families;
  std::vector<MethodAbstraction> Methods;
  /// False when the derivation hit the family cap before reaching a
  /// fixpoint (possible in general, Sec. 4.5; never for the built-ins).
  bool Converged = true;
  /// Number of WP computations performed (reported by the derivation
  /// benchmarks).
  unsigned NumWPComputations = 0;
  /// Families, update rules, and requires clauses compiled for client
  /// instantiation by integer substitution (wp/Templates.h). Not part of
  /// str(): they are a function of the rest.
  InstanceTemplates Templates;

  const MethodAbstraction *findMethod(const std::string &ClassName,
                                      const std::string &MethodName) const;
  /// Renders the Fig. 4 + Fig. 5 analogue.
  std::string str() const;
};

/// Options controlling the derivation; the defaults reproduce the paper.
struct DerivationOptions {
  /// Hard cap on discovered families; hitting it clears Converged.
  unsigned MaxFamilies = 64;
  /// Use congruence-closure simplification of WP disjuncts (removing
  /// literals entailed by the rest). Disabling this is the ablation of
  /// DESIGN.md decision 1.
  bool SimplifyWithCC = true;
  /// Simplify WP results under the method's requires precondition
  /// (sound: executions violating it are reported separately).
  bool AssumePrecondition = true;
};

/// Runs the staged derivation of Sections 4.1/4.2 on \p S. Diagnostics
/// (e.g. unsupported constructs) are reported to \p Diags.
DerivedAbstraction deriveAbstraction(const easl::Spec &S,
                                     const DerivationOptions &Opts,
                                     DiagnosticEngine &Diags);

/// Convenience overload with default options.
DerivedAbstraction deriveAbstraction(const easl::Spec &S,
                                     DiagnosticEngine &Diags);

/// Result of instantiating a predicate-family body with concrete
/// variable names.
enum class InstResult { False, True, Conj };

/// Substitutes \p Args for the family's canonical variables and
/// normalizes. Returns False/True when the instance folds to a constant
/// (e.g. mutx(i, i) = 0, same(v, v) = 1), otherwise fills \p Out with
/// the canonical conjunction identifying the instance.
InstResult instantiateFamily(const PredicateFamily &F,
                             const std::vector<std::string> &Args,
                             const std::vector<std::string> &ArgTypes,
                             Conjunction &Out);

} // namespace wp
} // namespace canvas

#endif // CANVAS_WP_ABSTRACTION_H
