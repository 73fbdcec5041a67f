//===----------------------------------------------------------------------===//
///
/// \file
/// The staged abstraction-derivation fixpoint of Sections 4.1/4.2:
///
///  1. Every "requires phi" contributes the disjuncts of !phi as seed
///     candidate instrumentation predicates.
///  2. For every predicate family and component method, the weakest
///     precondition of the (possibly ret-instantiated) family body is
///     computed symbolically, simplified with congruence closure under
///     the method precondition, and split at disjunctions (rule 2); each
///     disjunct becomes (or rediscovers) a family and a source of the
///     method's update rule.
///  3. Repeat until no new families appear (guaranteed for
///     mutation-restricted specifications, Section 6) or the family cap
///     is hit.
///
//===----------------------------------------------------------------------===//

#include "logic/CongruenceClosure.h"
#include "support/ErrorHandling.h"
#include "wp/Abstraction.h"
#include "wp/WPEngine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

using namespace canvas;
using namespace canvas::wp;
using namespace canvas::easl;

namespace {

/// A typed variable occurring free in a conjunction.
struct TypedVar {
  std::string Name;
  std::string Type;

  friend bool operator==(const TypedVar &A, const TypedVar &B) {
    return A.Name == B.Name && A.Type == B.Type;
  }
};

/// Collects the distinct root variables of \p C in order of first
/// occurrence.
std::vector<TypedVar> freeVarsOf(const Conjunction &C) {
  std::vector<TypedVar> Vars;
  auto Add = [&](const Path &P) {
    if (P.rootKind() != Path::RootKind::Var)
      return;
    TypedVar V{P.rootName(), P.rootType()};
    if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
      Vars.push_back(V);
  };
  for (const Literal &L : C) {
    Add(L.Lhs);
    Add(L.Rhs);
  }
  return Vars;
}

class Derivation {
public:
  Derivation(const Spec &S, const DerivationOptions &Opts,
             DiagnosticEngine &Diags)
      : S(S), Opts(Opts), Diags(Diags), Engine(S, Diags) {}

  DerivedAbstraction run() {
    buildMethodEntries();
    seedFromRequires();
    processWorklist();
    for (Entry &E : Entries)
      Result.Methods.push_back(std::move(E.Abs));
    compileTemplates(Result);
    return std::move(Result);
  }

private:
  struct Entry {
    const ClassDecl *Class = nullptr;
    const MethodDecl *Method = nullptr; ///< Null for ctor-less "new".
    bool IsCtor = false;
    /// Precondition literals (conjunction), usable as simplification
    /// context; empty when the precondition is absent or not a single
    /// conjunction.
    Conjunction Precondition;
    MethodAbstraction Abs;
  };

  void buildMethodEntries() {
    for (const ClassDecl &C : S.Classes) {
      // The constructor pseudo-method "new", used by client statements
      // "x = new C(...)".
      Entry Ctor;
      Ctor.Class = &C;
      Ctor.Method = C.constructor();
      Ctor.IsCtor = true;
      Ctor.Abs.ClassName = C.Name;
      Ctor.Abs.MethodName = "new";
      Ctor.Abs.HasThis = false;
      Ctor.Abs.ReturnsValue = true;
      Ctor.Abs.ReturnType = C.Name;
      if (Ctor.Method)
        for (const Param &P : Ctor.Method->Params)
          Ctor.Abs.Params.emplace_back(P.Name, P.Type);
      Entries.push_back(std::move(Ctor));

      for (const MethodDecl &M : C.Methods) {
        if (M.IsConstructor)
          continue;
        Entry E;
        E.Class = &C;
        E.Method = &M;
        E.Abs.ClassName = C.Name;
        E.Abs.MethodName = M.Name;
        E.Abs.HasThis = true;
        E.Abs.ReturnsValue = M.ReturnType != "void";
        if (E.Abs.ReturnsValue)
          E.Abs.ReturnType = M.ReturnType;
        for (const Param &P : M.Params)
          E.Abs.Params.emplace_back(P.Name, P.Type);
        E.Precondition = preconditionOf(C, M);
        Entries.push_back(std::move(E));
      }
    }
  }

  /// Entry requires clauses as one conjunction, when each clause's
  /// condition has a single-disjunct DNF.
  Conjunction preconditionOf(const ClassDecl &C, const MethodDecl &M) {
    Conjunction Pre;
    for (const StmtPtr &St : M.Body) {
      const auto *Req = dyn_cast<RequiresStmt>(St.get());
      if (!Req)
        break;
      FormulaRef Cond = Engine.translateMethodCondition(C, M, *Req->Cond);
      std::vector<Conjunction> DNF = toDNF(Cond);
      if (DNF.size() != 1)
        continue;
      Pre.insert(Pre.end(), DNF.front().begin(), DNF.front().end());
    }
    normalizeConjunction(Pre);
    return Pre;
  }

  void seedFromRequires() {
    for (Entry &E : Entries) {
      if (!E.Method || E.IsCtor)
        continue;
      for (const StmtPtr &St : E.Method->Body) {
        const auto *Req = dyn_cast<RequiresStmt>(St.get());
        if (!Req)
          break;
        FormulaRef Violation = Formula::notOf(
            Engine.translateMethodCondition(*E.Class, *E.Method, *Req->Cond));
        for (Conjunction D : toDNF(Violation)) {
          if (Opts.SimplifyWithCC && !simplifyDisjunct(D, Conjunction()))
            continue;
          if (D.empty()) {
            Diags.error(Req->Loc, "requires clause is unsatisfiable");
            continue;
          }
          auto [FamIdx, Args] = internConjunction(D);
          if (FamIdx < 0)
            continue;
          E.Abs.RequiresFalse.push_back(
              {PredApp{FamIdx, std::move(Args)}, Req->Loc});
        }
      }
    }
  }

  /// Determines whether a value-returning method always returns a fresh
  /// object: WP of "ret == q" (q a symbolic pre-state variable) must be
  /// identically false.
  void computeReturnsFresh(Entry &E) {
    if (!E.Abs.ReturnsValue)
      return;
    FormulaRef Post =
        Formula::eq(Path::var("ret", E.Abs.ReturnType),
                    Path::var("$qret", E.Abs.ReturnType));
    FormulaRef Pre = E.IsCtor
                         ? Engine.wpConstructorCall(*E.Class, Post)
                         : Engine.wpMethodCall(*E.Class, *E.Method, Post);
    E.Abs.ReturnsFresh = Pre->isFalse();
  }

  void processWorklist() {
    for (Entry &E : Entries)
      computeReturnsFresh(E);
    while (!Worklist.empty()) {
      int FamIdx = Worklist.front();
      Worklist.pop_front();
      for (Entry &E : Entries)
        deriveRules(FamIdx, E);
      if (Result.Families.size() > Opts.MaxFamilies) {
        Result.Converged = false;
        Diags.warning(SourceLoc(),
                      "derivation stopped: family cap (" +
                          std::to_string(Opts.MaxFamilies) + ") exceeded");
        Worklist.clear();
      }
    }
  }

  void deriveRules(int FamIdx, Entry &E) {
    // Copy: interning new families may reallocate Result.Families.
    const PredicateFamily Fam = Result.Families[FamIdx];
    unsigned K = Fam.arity();
    for (unsigned Mask = 0; Mask != (1u << K); ++Mask) {
      std::vector<bool> RetSlots(K, false);
      std::vector<std::string> Args(K);
      bool Feasible = true;
      for (unsigned I = 0; I != K; ++I) {
        if (Mask & (1u << I)) {
          if (!E.Abs.ReturnsValue || Fam.VarTypes[I] != E.Abs.ReturnType) {
            Feasible = false;
            break;
          }
          RetSlots[I] = true;
          Args[I] = "ret";
        } else {
          Args[I] = "$q" + std::to_string(I);
        }
      }
      if (!Feasible)
        continue;

      Conjunction Body;
      if (instantiateFamily(Fam, Args, Fam.VarTypes, Body) !=
          InstResult::Conj)
        continue; // Constant instances are folded by the client analysis.

      FormulaRef Post = fromDNF({Body});
      FormulaRef Pre =
          E.IsCtor ? Engine.wpConstructorCall(*E.Class, Post)
                   : Engine.wpMethodCall(*E.Class, *E.Method, Post);
      ++Result.NumWPComputations;

      UpdateRule Rule;
      Rule.Family = FamIdx;
      Rule.RetSlots = RetSlots;
      const Conjunction &Context =
          Opts.AssumePrecondition ? E.Precondition : EmptyConjunction;
      std::set<std::string> SeenSources;
      std::vector<Conjunction> Disjuncts;
      for (Conjunction D : toDNF(Pre)) {
        if (Opts.SimplifyWithCC) {
          if (!simplifyDisjunct(D, Context))
            continue;
        } else if (!Context.empty()) {
          Conjunction WithCtx = D;
          WithCtx.insert(WithCtx.end(), Context.begin(), Context.end());
          if (!conjunctionConsistent(WithCtx))
            continue;
        }
        Disjuncts.push_back(std::move(D));
      }
      if (Opts.SimplifyWithCC)
        removeSubsumedDisjuncts(Disjuncts, Context);
      for (Conjunction &D : Disjuncts) {
        if (D.empty()) {
          Rule.ConstantTrue = true;
          continue;
        }
        if (mentionsRet(D)) {
          Diags.error(SourceLoc(),
                      "internal: WP disjunct mentions 'ret' (method '" +
                          E.Abs.ClassName + "::" + E.Abs.MethodName + "')");
          continue;
        }
        auto [SrcIdx, SrcArgs] = internConjunction(D);
        if (SrcIdx < 0)
          continue;
        PredApp App{SrcIdx, std::move(SrcArgs)};
        if (SeenSources.insert(App.str(Result.Families)).second)
          Rule.Sources.push_back(std::move(App));
      }
      Rule.IsIdentity = !Rule.ConstantTrue && Rule.Sources.size() == 1 &&
                        Rule.Sources.front() == Rule.target();
      E.Abs.Rules.push_back(std::move(Rule));
    }
  }

  static bool mentionsRet(const Conjunction &C) {
    for (const TypedVar &V : freeVarsOf(C))
      if (V.Name == "ret")
        return true;
    return false;
  }

  /// Finds or creates the family whose body is \p C up to variable
  /// renaming. Returns the family index and the argument names (C's free
  /// variables in the family's canonical slot order).
  std::pair<int, std::vector<std::string>>
  internConjunction(const Conjunction &C) {
    std::vector<TypedVar> Vars = freeVarsOf(C);
    unsigned N = Vars.size();
    if (N == 0) {
      Diags.error(SourceLoc(), "internal: variable-free candidate predicate");
      return {-1, {}};
    }
    if (N > 6) {
      Diags.warning(SourceLoc(), "candidate predicate with more than 6 free "
                                 "variables; skipping");
      return {-1, {}};
    }

    std::vector<unsigned> Perm(N);
    for (unsigned I = 0; I != N; ++I)
      Perm[I] = I;

    std::string BestKey;
    std::vector<unsigned> BestPerm;
    Conjunction BestBody;
    do {
      Conjunction Renamed;
      for (const Literal &L : C) {
        auto Rename = [&](const Path &P) {
          if (P.rootKind() != Path::RootKind::Var)
            return P;
          for (unsigned J = 0; J != N; ++J)
            if (P.rootName() == Vars[Perm[J]].Name)
              return P.withRoot(PredicateFamily::slotName(J),
                                Vars[Perm[J]].Type);
          return P;
        };
        Renamed.emplace_back(L.Negated, Rename(L.Lhs), Rename(L.Rhs));
      }
      normalizeConjunction(Renamed);
      std::string Key;
      for (unsigned J = 0; J != N; ++J)
        Key += Vars[Perm[J]].Type + ",";
      Key += "|" + conjunctionStr(Renamed);
      if (BestKey.empty() || Key < BestKey) {
        BestKey = std::move(Key);
        BestPerm = Perm;
        BestBody = std::move(Renamed);
      }
    } while (std::next_permutation(Perm.begin(), Perm.end()));

    std::vector<std::string> Args(N);
    for (unsigned J = 0; J != N; ++J)
      Args[J] = Vars[BestPerm[J]].Name;

    auto It = FamilyIndex.find(BestKey);
    if (It != FamilyIndex.end())
      return {It->second, Args};

    PredicateFamily Fam;
    for (unsigned J = 0; J != N; ++J)
      Fam.VarTypes.push_back(Vars[BestPerm[J]].Type);
    Fam.Body = std::move(BestBody);
    Fam.Key = BestKey;
    Fam.DisplayName = "P" + std::to_string(Result.Families.size());
    int Idx = static_cast<int>(Result.Families.size());
    Result.Families.push_back(std::move(Fam));
    FamilyIndex.emplace(std::move(BestKey), Idx);
    Worklist.push_back(Idx);
    return {Idx, Args};
  }

  const Spec &S;
  DerivationOptions Opts;
  DiagnosticEngine &Diags;
  WPEngine Engine;
  DerivedAbstraction Result;
  std::vector<Entry> Entries;
  std::map<std::string, int> FamilyIndex;
  std::deque<int> Worklist;
  Conjunction EmptyConjunction;
};

} // namespace

DerivedAbstraction wp::deriveAbstraction(const Spec &S,
                                         const DerivationOptions &Opts,
                                         DiagnosticEngine &Diags) {
  return Derivation(S, Opts, Diags).run();
}

DerivedAbstraction wp::deriveAbstraction(const Spec &S,
                                         DiagnosticEngine &Diags) {
  return deriveAbstraction(S, DerivationOptions(), Diags);
}
