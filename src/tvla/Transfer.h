//===----------------------------------------------------------------------===//
///
/// \file
/// The one-edge transfer function of the TVLA engines (Section 5.5):
/// application of a CFG action to a 3-valued structure, including
/// requires-clause evaluation, derived-rule instrumentation updates,
/// result modeling, and canonical abstraction (blur). Shared by both
/// fixpoint configurations (relational and independent-attribute) and
/// by the proof-carrying-certificate checker (cert::Checker), which
/// re-applies edges against a claimed fixpoint annotation without
/// running any worklist — so this class must be the single definition
/// of edge semantics, independent of any driver, memo cache, or
/// structure cap.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_TVLA_TRANSFER_H
#define CANVAS_TVLA_TRANSFER_H

#include "client/CFG.h"
#include "tvla/Structure.h"
#include "tvp/Program.h"
#include "wp/Abstraction.h"

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace canvas {
namespace tvla {

/// One requires obligation discovered on a CFG edge: the \p Req -th
/// RequiresFalse clause of the component method called on edge \p Edge.
struct TransferCheck {
  int Edge = -1;
  int Req = -1;
  SourceLoc Loc;
  std::string What;
};

/// Kleene accumulation cells, indexed like Transfer::checks(). The
/// fixpoint joins every evaluation of a check over all structures that
/// reach it; the final cell decides the verdict (False = Safe, True =
/// Definite, Half = Potential, unseen = Unreachable).
struct CheckAccum {
  struct Cell {
    bool Seen = false;
    Kleene Acc = Kleene::False;
  };
  std::vector<Cell> Cells;

  void note(size_t Check, Kleene V) {
    Cell &C = Cells[Check];
    C.Acc = C.Seen ? kJoin(C.Acc, V) : V;
    C.Seen = true;
  }
};

class Transfer {
public:
  /// Builds the vocabulary for \p M (types, variables, instrumentation
  /// families) and enumerates the requires obligations of its edges.
  Transfer(const wp::DerivedAbstraction &Abs, const cj::CFGMethod &M,
           DiagnosticEngine &Diags);

  const tvp::Vocabulary &vocabulary() const { return Vocab; }

  /// The requires obligations of the method, in (edge, clause) order.
  const std::vector<TransferCheck> &checks() const { return Checks; }

  CheckAccum makeAccum() const {
    CheckAccum A;
    A.Cells.resize(Checks.size());
    return A;
  }

  /// Applies CFG edge \p EdgeIdx to \p In; returns the successor
  /// structure (always exactly one — variable predicates stay definite,
  /// so no focus is required). Requires evaluations are joined into
  /// \p Acc when non-null. Sets \p Dead when no execution continues
  /// past the edge (every path violates a requires clause and throws);
  /// the returned structure is meaningless then.
  Structure apply(const Structure &In, int EdgeIdx, bool &Dead,
                  CheckAccum *Acc) const;

  /// Optional bump arena for apply()'s temporaries *and* its returned
  /// structure. The owner must copy out any result it keeps (interning
  /// and copy-assignment into heap structures both detach) and reset
  /// the arena between fixpoint visits; see support/Arena.h.
  void setScratchArena(support::Arena *A) { Scratch = A; }

private:
  /// Maximum predicate-application arity the compiled evaluator
  /// supports (vocabulary building already treats wider families
  /// conservatively) and maximum binder count per call edge.
  static constexpr size_t kMaxArity = 4;
  static constexpr size_t kMaxBinders = 16;

  /// One argument of a compiled predicate application: either a
  /// quantified target-tuple slot or a binder whose candidates are
  /// weighted by a points-to predicate. All names are resolved to
  /// integers when the edge plan is built, so evaluation never touches
  /// a string or a string-keyed map.
  struct CompiledArg {
    int QSlot = -1;    ///< >= 0: index into the target tuple.
    int BinderId = -1; ///< >= 0: binder choice, weighted by PtPred.
    int PtPred = -1;
  };

  /// A compiled predicate application. !Valid marks the conservative
  /// cases the string evaluator answered with 1/2 (unsupported arity,
  /// unknown binder, a source naming a ret-bound slot).
  struct CompiledApp {
    int Pred = -1;
    bool Valid = false;
    std::vector<CompiledArg> Args;
  };

  /// A non-identity update rule applicable on an edge, with the target
  /// family's per-slot type predicates resolved.
  struct CompiledRule {
    const wp::UpdateRule *Rule = nullptr;
    int Pred = -1;
    unsigned Arity = 0;
    std::vector<int> SlotTypePred; ///< -1 when the slot type is untracked.
    std::vector<CompiledApp> Sources;
  };

  /// Everything Transfer::apply needs for one CFG edge, resolved to
  /// integers at construction time (the transfer function is applied
  /// thousands of times per fixpoint; the plan is built once).
  struct EdgePlan {
    const wp::MethodAbstraction *MA = nullptr; ///< Component-call edges.
    unsigned NumBinders = 0;
    std::vector<int> BinderPt;            ///< Binder id -> pt var pred.
    std::vector<CompiledApp> Requires;    ///< Aligned with RequiresFalse.
    std::vector<int> CheckIdx;            ///< Aligned with RequiresFalse.
    std::vector<CompiledRule> Rules;
    bool NewNode = false;
    bool HavocLhsAfter = false;
    int LhsVarPred = -1;
    int RetTypePred = -1;
    /// Copy edges: lhs/rhs variable predicates.
    int CopyL = -1, CopyR = -1;
    /// Havoc'd variable (Havoc edges, opaque lhs, non-fresh results).
    int HavocVarPred = -1, HavocTypePred = -1;
  };

  const wp::MethodAbstraction *abstractionFor(const cj::Action &A) const;
  void collectChecks();
  void buildPlans();
  CompiledApp compileApp(const wp::PredApp &App,
                         const std::vector<std::string> &BinderNames,
                         const std::vector<int> &BinderPt,
                         const wp::UpdateRule *Rule) const;

  Kleene evalApp(const Structure &S, const CompiledApp &App,
                 const unsigned *QTuple, int *Bound,
                 unsigned NumBinders) const;
  Kleene evalChoices(const Structure &S, const CompiledApp &App,
                     const unsigned *QTuple, int *Bound, size_t I,
                     unsigned *Tuple, Kleene Weight) const;

  bool nodeHasType(const Structure &S, unsigned Node, int TypePred) const {
    return TypePred >= 0 && S.unary(TypePred, Node) == Kleene::True;
  }
  void havocVar(Structure &S, int VarPred, int TypePred) const;
  void setInstrHalfAround(Structure &S, unsigned U) const;
  void clobberInstr(Structure &S) const;

  Structure transferComponentCall(Structure S, const EdgePlan &Plan,
                                  const cj::Action &A, bool &Dead,
                                  CheckAccum *Acc) const;
  void assumeAppFalse(Structure &S, const CompiledApp &App) const;
  void enumerateTargets(Structure &S, const Structure &Snapshot,
                        const CompiledRule &CR, const EdgePlan &Plan,
                        unsigned N, unsigned Slot, unsigned *Tuple,
                        int *Bound) const;
  void applyConstantDiagonals(Structure &S, unsigned N) const;

  const wp::DerivedAbstraction &Abs;
  const cj::CFGMethod &M;
  DiagnosticEngine &Diags;
  tvp::Vocabulary Vocab;
  std::vector<int> FamPred; ///< Family index -> instrumentation pred.
  /// Family index -> resolved type predicate per slot (-1 untracked).
  std::vector<std::array<int, 2>> FamTypePred;
  /// Arity-2 families with equal slot types whose (ret, ret) diagonal
  /// folds to a constant: (pred, value), precomputed once.
  std::vector<std::pair<int, Kleene>> Diagonals;
  std::vector<TransferCheck> Checks;
  std::vector<EdgePlan> Plans; ///< One per CFG edge.
  support::Arena *Scratch = nullptr; ///< See setScratchArena().
};

} // namespace tvla
} // namespace canvas

#endif // CANVAS_TVLA_TRANSFER_H
