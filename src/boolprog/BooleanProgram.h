//===----------------------------------------------------------------------===//
///
/// \file
/// The transformed client program of Section 4.3: component-typed client
/// variables are replaced by boolean variables (the nullary
/// instrumentation-predicate instances of the derived abstraction), and
/// component calls are replaced by the corresponding instantiated method
/// abstractions — parallel assignments of the special form
/// p0 := p1 || ... || pk, p := 0, p := 1.
///
/// Boolean-variable identity is the canonical conjunction over client
/// variables, which uniformly folds the paper's side conditions
/// (same_{x,x} = 1, mutx_{x,x} = 0, mutx symmetry). The conjunctions
/// themselves are never built per client: instantiation substitutes
/// variable indices into the rule templates compiled with the
/// abstraction (wp/Templates.h), whose instance keys are equal exactly
/// when the instantiated conjunctions are.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BOOLPROG_BOOLEANPROGRAM_H
#define CANVAS_BOOLPROG_BOOLEANPROGRAM_H

#include "client/CFG.h"
#include "wp/Abstraction.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace canvas {
namespace bp {

/// One boolean variable: family instance over a tuple of client
/// variables (the first instantiation that denoted it), identified
/// canonically by its instantiated body.
struct BoolVar {
  int Family = -1;
  std::vector<std::string> Args;
  /// The instantiated body's rendering, e.g.
  /// "i1 != i2 && i1.set == i2.set".
  std::string Name;
};

/// The right-hand side of one parallel assignment slot.
struct BoolRhs {
  enum class Kind {
    Const, ///< PlusOne ? 1 : 0 with no sources.
    Or,    ///< OR of Sources (plus 1 when PlusOne).
    Unknown, ///< Havoc: both values possible.
  };
  Kind K = Kind::Const;
  bool PlusOne = false;
  std::vector<int> Sources; ///< BoolVar indices, evaluated pre-state.
};

/// One "requires !p" obligation attached to a CFG edge; checked against
/// the state before the edge executes.
struct Check {
  int Edge = -1;
  /// BoolVar index; -1 when the obligation folded to a constant.
  int Var = -1;
  /// Valid when Var == -1: true means the requires clause is violated on
  /// every execution reaching it (e.g. i.remove() twice on one iterator
  /// variable folds mutx(i,i) checks away but stale stays; constant
  /// violations arise from degenerate instantiations).
  bool ConstantViolated = false;
  SourceLoc Loc;
  /// Location of the requires clause in the component specification.
  SourceLoc ReqLoc;
  std::string What; ///< "i2.next() requires !stale(i2)" style text.
};

/// The boolean program for one client method.
struct BooleanProgram {
  const cj::CFGMethod *CFG = nullptr;
  const wp::DerivedAbstraction *Abs = nullptr;
  std::vector<BoolVar> Vars;
  /// Parallel assignment per CFG edge (indexed like CFG->Edges):
  /// (target var, rhs) pairs; unlisted vars are unchanged.
  std::vector<std::vector<std::pair<int, BoolRhs>>> EdgeAssignments;
  std::vector<Check> Checks;
  /// The client-variable names instance keys index: the method's
  /// component variables, then any other operand the build met.
  std::vector<std::string> KeyNames;
  /// Instance key -> Vars index.
  std::unordered_map<wp::InstanceKey, int, wp::InstanceKeyHash> VarOf;

  /// Folds instance Family(Args) over KeyNames indices, one per slot
  /// of the family; an index past KeyNames stands for a name this
  /// program never met (distinct names, distinct indices). For
  /// wp::Folded::Var, \p VarOut is the variable it denotes, or -1 when
  /// this program has none.
  wp::Folded instance(int Family, const int *Args, int &VarOut) const;
  std::string str() const;
};

/// Instantiates \p Abs over the component-typed variables of \p M
/// (Section 4.3 "the first step in the certification process").
/// Unsupported constructs are lowered conservatively (havoc/clobber).
BooleanProgram buildBooleanProgram(const wp::DerivedAbstraction &Abs,
                                   const cj::CFGMethod &M,
                                   DiagnosticEngine &Diags);

/// Instantiates \p Abs over \p M with its component variables split
/// into \p Parts, a partition no action relates across (the Stage-0
/// slice partition, dataflow::computeSlices). Instances whose
/// component-variable arguments fall in two different parts fold to
/// constant false — no action ever relates their objects, so the
/// unpartitioned program never makes them true either (DESIGN.md
/// "Stage 0 pre-analysis"). Every other operand, copy and check lowers
/// exactly as in the unpartitioned build, so Checks keeps its count,
/// order and text; only Var differs, for a check over a cross-part
/// instance. A one-part partition yields the unpartitioned program.
BooleanProgram
buildBooleanProgram(const wp::DerivedAbstraction &Abs, const cj::CFGMethod &M,
                    DiagnosticEngine &Diags,
                    const std::vector<std::vector<std::string>> &Parts);

} // namespace bp
} // namespace canvas

#endif // CANVAS_BOOLPROG_BOOLEANPROGRAM_H
