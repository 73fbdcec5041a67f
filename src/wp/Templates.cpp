#include "wp/Templates.h"

#include "wp/Abstraction.h"

#include <algorithm>
#include <map>

using namespace canvas;
using namespace canvas::wp;

namespace {

/// Side of a rendered literal: a root name and its field selections,
/// ordered exactly like Path::compare orders variable-rooted paths.
struct SideView {
  const std::string *Root;
  const std::vector<std::string> *Fields;

  int compare(const SideView &O) const {
    if (int C = Root->compare(*O.Root))
      return C;
    size_t N = std::min(Fields->size(), O.Fields->size());
    for (size_t I = 0; I != N; ++I)
      if (int C = (*Fields)[I].compare((*O.Fields)[I]))
        return C;
    if (Fields->size() != O.Fields->size())
      return Fields->size() < O.Fields->size() ? -1 : 1;
    return 0;
  }
};

struct LitView {
  bool Negated;
  SideView Lhs, Rhs;

  bool operator<(const LitView &O) const {
    if (int C = Lhs.compare(O.Lhs))
      return C < 0;
    if (int C = Rhs.compare(O.Rhs))
      return C < 0;
    return Negated < O.Negated;
  }
};

/// The aliasing pattern of \p Args as a table index: slot I contributes
/// the first slot holding the same variable, in mixed radix (I + 1), so
/// a family of arity K has K! codes.
unsigned patternCode(const int *Args, size_t Arity) {
  unsigned Code = 0, Weight = 1;
  for (unsigned I = 1; I < Arity; ++I) {
    Weight *= I;
    unsigned First = I;
    for (unsigned J = 0; J != I; ++J)
      if (Args[J] == Args[I]) {
        First = J;
        break;
      }
    Code += First * Weight;
  }
  return Code;
}

std::string placeholder(unsigned I) { return "$c" + std::to_string(I); }

/// Distinct variable roots of \p C in order of first occurrence.
std::vector<std::string> freeVarsOf(const Conjunction &C) {
  std::vector<std::string> Vars;
  auto Add = [&](const Path &P) {
    if (P.rootKind() == Path::RootKind::Var &&
        std::find(Vars.begin(), Vars.end(), P.rootName()) == Vars.end())
      Vars.push_back(P.rootName());
  };
  for (const Literal &L : C) {
    Add(L.Lhs);
    Add(L.Rhs);
  }
  return Vars;
}

/// \p C with variable root Vars[Order[J]] renamed to slot J, normalized.
Conjunction renameToSlots(const Conjunction &C,
                          const std::vector<std::string> &Vars,
                          const std::vector<unsigned> &Order) {
  Conjunction Out;
  for (const Literal &L : C) {
    auto Rename = [&](const Path &P) {
      if (P.rootKind() == Path::RootKind::Var)
        for (unsigned J = 0; J != Order.size(); ++J)
          if (P.rootName() == Vars[Order[J]])
            return P.withRoot(PredicateFamily::slotName(J), P.rootType());
      return P;
    };
    Out.emplace_back(L.Negated, Rename(L.Lhs), Rename(L.Rhs));
  }
  normalizeConjunction(Out);
  return Out;
}

class Compiler {
public:
  explicit Compiler(DerivedAbstraction &Abs)
      : Abs(Abs), T(Abs.Templates) {}

  void run() {
    T = InstanceTemplates();
    for (const PredicateFamily &F : Abs.Families) {
      std::vector<int> Ids;
      Ids.reserve(F.arity());
      for (const std::string &Ty : F.VarTypes) {
        auto It = std::find(T.Types.begin(), T.Types.end(), Ty);
        if (It == T.Types.end())
          It = T.Types.insert(T.Types.end(), Ty);
        Ids.push_back(static_cast<int>(It - T.Types.begin()));
      }
      T.SlotTypes.push_back(std::move(Ids));
      T.Families.push_back(foldAllPatterns(F));
    }
    T.Methods.reserve(Abs.Methods.size());
    for (const MethodAbstraction &M : Abs.Methods)
      T.Methods.push_back(compileMethod(M));
  }

private:
  /// Folds \p F under every aliasing pattern of its slots.
  std::vector<FoldedInstance> foldAllPatterns(const PredicateFamily &F) {
    const unsigned K = F.arity();
    unsigned Size = 1;
    for (unsigned I = 2; I <= K; ++I)
      Size *= I;
    std::vector<FoldedInstance> Table(Size);
    std::vector<int> First(K);
    enumeratePatterns(F, 0, First, Table);
    return Table;
  }

  void enumeratePatterns(const PredicateFamily &F, unsigned Slot,
                         std::vector<int> &First,
                         std::vector<FoldedInstance> &Table) {
    if (Slot == F.arity()) {
      Table[patternCode(First.data(), F.arity())] = foldPattern(F, First);
      return;
    }
    // Slot joins an earlier representative's class or starts its own.
    for (unsigned J = 0; J <= Slot; ++J) {
      if (J != Slot && First[J] != static_cast<int>(J))
        continue;
      First[Slot] = static_cast<int>(J);
      enumeratePatterns(F, Slot + 1, First, Table);
    }
  }

  /// Instantiates \p F with slot I bound to the placeholder of its
  /// class representative First[I].
  FoldedInstance foldPattern(const PredicateFamily &F,
                             const std::vector<int> &First) {
    std::vector<std::string> Args;
    Args.reserve(First.size());
    for (int R : First)
      Args.push_back(placeholder(R));
    Conjunction Body;
    FoldedInstance Out;
    switch (instantiateFamily(F, Args, F.VarTypes, Body)) {
    case InstResult::False:
      Out.K = Folded::False;
      return Out;
    case InstResult::True:
      Out.K = Folded::True;
      return Out;
    case InstResult::Conj:
      break;
    }
    Out.K = Folded::Var;
    std::vector<std::string> Order;
    Out.Canon = canonicalize(Body, Order);
    for (size_t J = 0; J != Order.size(); ++J)
      Out.From[J] = static_cast<uint8_t>(std::stoi(Order[J].substr(2)));
    return Out;
  }

  /// Interns \p C's canonical body; \p Order receives C's variables in
  /// the canonical slot order.
  int canonicalize(const Conjunction &C, std::vector<std::string> &Order) {
    std::vector<std::string> Vars = freeVarsOf(C);
    std::vector<unsigned> Perm(Vars.size());
    for (unsigned I = 0; I != Perm.size(); ++I)
      Perm[I] = I;
    std::string BestKey;
    std::vector<unsigned> BestPerm;
    Conjunction BestBody;
    bool First = true;
    do {
      Conjunction Renamed = renameToSlots(C, Vars, Perm);
      std::string Key = conjunctionStr(Renamed);
      if (First || Key < BestKey) {
        BestKey = std::move(Key);
        BestPerm = Perm;
        BestBody = std::move(Renamed);
        First = false;
      }
    } while (std::next_permutation(Perm.begin(), Perm.end()));

    Order.clear();
    Order.reserve(BestPerm.size());
    for (unsigned P : BestPerm)
      Order.push_back(Vars[P]);
    auto [It, New] = CanonIndex.emplace(BestKey, T.Canon.size());
    if (New)
      addCanonical(BestBody, BestKey, static_cast<unsigned>(Vars.size()));
    return It->second;
  }

  void addCanonical(const Conjunction &Body, const std::string &Key,
                    unsigned Arity) {
    CanonicalBody CB;
    CB.Arity = Arity;
    auto SideOf = [&](const Path &P) {
      CanonicalBody::Side S;
      for (unsigned J = 0; J != Arity; ++J)
        if (P.rootName() == PredicateFamily::slotName(J))
          S.Slot = J;
      S.Fields = P.fields();
      return S;
    };
    CB.Lits.reserve(Body.size());
    for (const Literal &L : Body)
      CB.Lits.push_back({L.Negated, SideOf(L.Lhs), SideOf(L.Rhs)});
    // Symmetries: slot permutations under which the body is unchanged.
    std::vector<std::string> Slots;
    Slots.reserve(Arity);
    for (unsigned J = 0; J != Arity; ++J)
      Slots.push_back(PredicateFamily::slotName(J));
    std::vector<unsigned> Perm(Arity);
    for (unsigned J = 0; J != Arity; ++J)
      Perm[J] = J;
    while (std::next_permutation(Perm.begin(), Perm.end())) {
      // Renaming slot Perm[J] to J maps the body onto itself exactly
      // when slot J's argument may be swapped for slot Perm[J]'s.
      if (conjunctionStr(renameToSlots(Body, Slots, Perm)) != Key)
        continue;
      std::array<uint8_t, MaxSlots> S{};
      for (unsigned J = 0; J != Arity; ++J)
        S[J] = static_cast<uint8_t>(Perm[J]);
      CB.Symmetries.push_back(S);
    }
    T.Canon.push_back(std::move(CB));
  }

  CompiledMethod compileMethod(const MethodAbstraction &M) {
    CompiledMethod Out;
    const unsigned NParams = static_cast<unsigned>(M.Params.size());
    const unsigned Ret = 1 + NParams;
    // Binder name -> environment slot. Later binders shadow earlier
    // ones, as in the call binding the builder assembles.
    auto Resolve = [&](const std::string &Name,
                       const std::vector<bool> *RetSlots) -> uint8_t {
      for (unsigned I = 0; RetSlots && I != RetSlots->size(); ++I)
        if (!(*RetSlots)[I] && Name == "$q" + std::to_string(I))
          return static_cast<uint8_t>(Ret + 1 + I);
      if (Name == "ret")
        return static_cast<uint8_t>(Ret);
      for (unsigned I = NParams; I-- != 0;)
        if (M.Params[I].first == Name)
          return static_cast<uint8_t>(1 + I);
      if (M.HasThis && Name == "this")
        return 0;
      return UnboundSlot;
    };
    auto Compile = [&](const PredApp &App, const std::vector<bool> *RetSlots) {
      CompiledApp C;
      C.Family = App.Family;
      for (size_t I = 0; I != App.Args.size(); ++I)
        C.Env[I] = Resolve(App.Args[I], RetSlots);
      return C;
    };
    Out.Requires.reserve(M.RequiresFalse.size());
    Out.RequiresText.reserve(M.RequiresFalse.size());
    for (const auto &[App, Loc] : M.RequiresFalse) {
      Out.Requires.push_back(Compile(App, nullptr));
      Out.RequiresText.push_back(" requires !" + App.str(Abs.Families));
    }
    for (const UpdateRule &R : M.Rules) {
      if (R.IsIdentity)
        continue;
      CompiledRule CR;
      CR.Family = R.Family;
      CR.RetSlots = R.RetSlots;
      for (bool S : R.RetSlots)
        CR.UsesRet |= S;
      CR.ConstantTrue = R.ConstantTrue;
      CR.Sources.reserve(R.Sources.size());
      for (const PredApp &Src : R.Sources)
        CR.Sources.push_back(Compile(Src, &R.RetSlots));
      Out.Rules.push_back(std::move(CR));
    }
    return Out;
  }

  DerivedAbstraction &Abs;
  InstanceTemplates &T;
  std::map<std::string, size_t> CanonIndex;
};

} // namespace

Folded InstanceTemplates::fold(int Family, const int *Args,
                               InstanceKey &Key) const {
  const FoldedInstance &F =
      Families[Family][patternCode(Args, SlotTypes[Family].size())];
  if (F.K != Folded::Var)
    return F.K;
  const CanonicalBody &CB = Canon[F.Canon];
  Key.Canon = F.Canon;
  Key.Args.fill(-1);
  for (unsigned J = 0; J != CB.Arity; ++J)
    Key.Args[J] = Args[F.From[J]];
  // Fold symmetric slot orders to the least tuple.
  for (const std::array<uint8_t, MaxSlots> &S : CB.Symmetries) {
    std::array<int, MaxSlots> Cand;
    Cand.fill(-1);
    for (unsigned J = 0; J != CB.Arity; ++J)
      Cand[J] = Key.Args[S[J]];
    if (Cand < Key.Args)
      Key.Args = Cand;
  }
  return Folded::Var;
}

std::string InstanceTemplates::render(const InstanceKey &Key,
                                      const std::vector<std::string> &Names)
    const {
  const CanonicalBody &CB = Canon[Key.Canon];
  std::vector<LitView> Lits;
  Lits.reserve(CB.Lits.size());
  for (const CanonicalBody::Lit &L : CB.Lits) {
    auto View = [&](const CanonicalBody::Side &S) {
      return SideView{&Names[Key.Args[S.Slot]], &S.Fields};
    };
    LitView V{L.Negated, View(L.Lhs), View(L.Rhs)};
    if (V.Rhs.compare(V.Lhs) < 0)
      std::swap(V.Lhs, V.Rhs);
    Lits.push_back(V);
  }
  std::sort(Lits.begin(), Lits.end());
  std::string Out;
  auto Append = [&](const SideView &S) {
    Out += *S.Root;
    for (const std::string &F : *S.Fields) {
      Out += '.';
      Out += F;
    }
  };
  for (size_t I = 0; I != Lits.size(); ++I) {
    if (I)
      Out += " && ";
    Append(Lits[I].Lhs);
    Out += Lits[I].Negated ? " != " : " == ";
    Append(Lits[I].Rhs);
  }
  return Out.empty() ? "true" : Out;
}

void wp::compileTemplates(DerivedAbstraction &Abs) { Compiler(Abs).run(); }
