//===----------------------------------------------------------------------===//
///
/// \file
/// Staged rule templates: the symbolic half of client instantiation,
/// compiled once per derived abstraction (Sec. 1.3's staging argument).
///
/// Instantiating a predicate family over client variables substitutes
/// them for the family's slots, normalizes, and checks consistency
/// (wp::instantiateFamily). The outcome depends only on which slots
/// receive the same variable — the slots' *aliasing pattern* — never on
/// the variables themselves: a bijective renaming maps literal sets to
/// literal sets. So every family is instantiated here once per aliasing
/// pattern over placeholder variables, and the folded result is stored:
/// constant false, constant true, or a canonical body plus the slot
/// order that fills it. A client then lowers an instance by integer
/// substitution: compute the pattern of the argument indices, look up
/// the folded result, and read off an InstanceKey.
///
/// Canonical bodies are conjunctions over slots $p0, $p1, ... up to
/// renaming (the least rendering over all slot orders, without types),
/// so two instances — of one family or of two — have equal keys exactly
/// when their instantiated conjunctions are equal: same canonical body,
/// and argument tuples related by one of the body's symmetries (slot
/// permutations mapping the body onto itself, e.g. mutx(a, b) and
/// mutx(b, a)). Keys fold symmetric orders to the least tuple.
///
/// Update rules and requires clauses are compiled alongside: predicate
/// applications over binder names ("this", parameters, "ret", and the
/// quantified "$qI") become applications over environment slots.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_WP_TEMPLATES_H
#define CANVAS_WP_TEMPLATES_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace canvas {
namespace wp {

struct DerivedAbstraction;

/// Most slots a predicate family has: the derivation skips candidate
/// predicates with more than six free variables.
inline constexpr unsigned MaxSlots = 6;

/// Identity of one non-constant predicate instance: the canonical body
/// it equals and the variable indices filling that body's slots (unused
/// slots hold -1), symmetric orders folded to the least tuple.
struct InstanceKey {
  int Canon = -1;
  std::array<int, MaxSlots> Args;

  InstanceKey() { Args.fill(-1); }
  friend bool operator==(const InstanceKey &A, const InstanceKey &B) {
    return A.Canon == B.Canon && A.Args == B.Args;
  }
};

struct InstanceKeyHash {
  size_t operator()(const InstanceKey &K) const {
    uint64_t H = static_cast<uint64_t>(K.Canon) * 0x9e3779b97f4a7c15ull;
    for (int A : K.Args)
      H = (H ^ static_cast<uint32_t>(A)) * 0x100000001b3ull;
    return static_cast<size_t>(H ^ (H >> 29));
  }
};

/// Instantiation outcome, as in wp::InstResult.
enum class Folded : uint8_t { False, True, Var };

/// A body instantiated under one aliasing pattern, folded.
struct FoldedInstance {
  Folded K = Folded::False;
  int Canon = -1; ///< Var only.
  /// Var only: canonical slot J is filled by the argument at slot
  /// From[J] of the instantiated body.
  std::array<uint8_t, MaxSlots> From{};
};

/// A conjunction over slots in canonical order, kept in a form that
/// renders an instance's display name without building paths. Every
/// root is a slot: family bodies have no other variables.
struct CanonicalBody {
  struct Side {
    unsigned Slot = 0;
    std::vector<std::string> Fields;
  };
  struct Lit {
    bool Negated = false;
    Side Lhs, Rhs;
  };
  unsigned Arity = 0;
  std::vector<Lit> Lits;
  /// Non-identity slot permutations S with body(S) == body.
  std::vector<std::array<uint8_t, MaxSlots>> Symmetries;
};

/// Environment slot reserved for names a method's binders never bind.
inline constexpr uint8_t UnboundSlot = 0xff;

/// A predicate application over environment slots. A call's
/// environment is [this, parameters..., ret, $q0, $q1, ...].
struct CompiledApp {
  int Family = -1;
  std::array<uint8_t, MaxSlots> Env{};
};

struct CompiledRule {
  int Family = -1;
  std::vector<bool> RetSlots;
  bool UsesRet = false;
  bool ConstantTrue = false;
  std::vector<CompiledApp> Sources;
};

struct CompiledMethod {
  std::vector<CompiledApp> Requires; ///< Parallel to RequiresFalse.
  /// " requires !P(...)": the check text after the call's rendering.
  std::vector<std::string> RequiresText;
  std::vector<CompiledRule> Rules; ///< Non-identity rules, in order.
};

struct InstanceTemplates {
  std::vector<CanonicalBody> Canon;
  /// Per family: folded instance per aliasing pattern (indexed by the
  /// pattern's code, see Templates.cpp).
  std::vector<std::vector<FoldedInstance>> Families;
  /// Distinct slot types of all families, and per family the type id
  /// of each slot.
  std::vector<std::string> Types;
  std::vector<std::vector<int>> SlotTypes;
  std::vector<CompiledMethod> Methods; ///< Parallel to Abs.Methods.

  /// Folds family \p Family over variable indices \p Args (one per
  /// slot; equal indices are the same variable), filling \p Key for
  /// Folded::Var.
  Folded fold(int Family, const int *Args, InstanceKey &Key) const;
  /// The instance's conjunction rendered over \p Names, exactly as
  /// conjunctionStr renders the instantiated body.
  std::string render(const InstanceKey &Key,
                     const std::vector<std::string> &Names) const;
};

/// Compiles \p Abs's families, update rules, and requires clauses into
/// Abs.Templates; the last step of wp::deriveAbstraction.
void compileTemplates(DerivedAbstraction &Abs);

} // namespace wp
} // namespace canvas

#endif // CANVAS_WP_TEMPLATES_H
