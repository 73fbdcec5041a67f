#include "tvla/Transfer.h"

#include <cstdlib>

using namespace canvas;
using namespace canvas::tvla;
using namespace canvas::wp;

Transfer::Transfer(const DerivedAbstraction &Abs, const cj::CFGMethod &M,
                   DiagnosticEngine &Diags)
    : Abs(Abs), M(M), Diags(Diags),
      Vocab(tvp::buildVocabulary(Abs, M, Diags)) {
  FamPred.assign(Abs.Families.size(), -1);
  FamTypePred.assign(Abs.Families.size(), {-1, -1});
  for (size_t F = 0; F != Abs.Families.size(); ++F) {
    FamPred[F] = Vocab.findInstrPred(static_cast<int>(F));
    const PredicateFamily &Fam = Abs.Families[F];
    FamTypePred[F][0] = Vocab.findTypePred(Fam.VarTypes[0]);
    if (Fam.arity() >= 2)
      FamTypePred[F][1] = Vocab.findTypePred(Fam.VarTypes[1]);
  }
  // Constant (ret, ret) diagonals, shared by every allocating edge.
  for (size_t F = 0; F != Abs.Families.size(); ++F) {
    int P = FamPred[F];
    const PredicateFamily &Fam = Abs.Families[F];
    if (P < 0 || Fam.arity() != 2 || Fam.VarTypes[0] != Fam.VarTypes[1])
      continue;
    Conjunction Body;
    InstResult IR = instantiateFamily(Fam, {"$d", "$d"}, Fam.VarTypes, Body);
    if (IR == InstResult::True)
      Diagonals.emplace_back(P, Kleene::True);
    else if (IR == InstResult::False)
      Diagonals.emplace_back(P, Kleene::False);
    // Non-constant diagonals are handled by a (ret, ret) rule.
  }
  collectChecks();
  buildPlans();
}

const MethodAbstraction *Transfer::abstractionFor(const cj::Action &A) const {
  if (A.K == cj::Action::Kind::AllocComp)
    return Abs.findMethod(A.Callee, "new");
  if (A.K != cj::Action::Kind::CompCall)
    return nullptr;
  for (const auto &[V, T] : M.CompVars)
    if (V == A.Recv)
      return Abs.findMethod(T, A.Callee);
  return nullptr;
}

void Transfer::collectChecks() {
  for (size_t E = 0; E != M.Edges.size(); ++E) {
    const MethodAbstraction *MA = abstractionFor(M.Edges[E].Act);
    if (!MA)
      continue;
    for (size_t R = 0; R != MA->RequiresFalse.size(); ++R) {
      TransferCheck C;
      C.Edge = static_cast<int>(E);
      C.Req = static_cast<int>(R);
      C.Loc = M.Edges[E].Act.Loc;
      C.What = M.Edges[E].Act.str() + " requires !" +
               MA->RequiresFalse[R].first.str(Abs.Families);
      Checks.push_back(std::move(C));
    }
  }
}

//===----------------------------------------------------------------------===//
// Edge-plan compilation
//===----------------------------------------------------------------------===//

/// Resolves one predicate application's names to integers. Arguments
/// are either quantified target slots ("$qI"), binders of the called
/// method (weighted by their points-to predicate), or unresolvable —
/// in which case the application is marked !Valid and evaluates to 1/2,
/// exactly as the name-by-name evaluation answered for an unknown name.
Transfer::CompiledApp
Transfer::compileApp(const PredApp &App,
                     const std::vector<std::string> &BinderNames,
                     const std::vector<int> &BinderPt,
                     const UpdateRule *Rule) const {
  CompiledApp C;
  C.Pred = App.Family >= 0 && static_cast<size_t>(App.Family) < FamPred.size()
               ? FamPred[App.Family]
               : -1;
  if (C.Pred < 0 || App.Args.empty() || App.Args.size() > kMaxArity ||
      App.Args.size() > 2 || BinderNames.size() > kMaxBinders)
    return C; // Conservative: evaluates to 1/2.
  C.Args.resize(App.Args.size());
  for (size_t I = 0; I != App.Args.size(); ++I) {
    const std::string &A = App.Args[I];
    if (Rule && A.size() > 2 && A[0] == '$' && A[1] == 'q') {
      int Slot = std::atoi(A.c_str() + 2);
      // Ret-bound slots are not quantified; the string evaluator had
      // no binding for them and answered 1/2.
      if (Slot < 0 || static_cast<size_t>(Slot) >= Rule->RetSlots.size() ||
          Rule->RetSlots[Slot]) {
        C.Args.clear();
        return C;
      }
      C.Args[I].QSlot = Slot;
      continue;
    }
    bool Found = false;
    for (size_t B = 0; B != BinderNames.size(); ++B)
      if (BinderNames[B] == A) {
        C.Args[I].BinderId = static_cast<int>(B);
        C.Args[I].PtPred = BinderPt[B];
        Found = true;
        break;
      }
    if (!Found || C.Args[I].PtPred < 0) {
      C.Args.clear();
      return C; // Unknown binder / untracked pointer: conservative.
    }
  }
  C.Valid = true;
  return C;
}

void Transfer::buildPlans() {
  Plans.resize(M.Edges.size());
  // Check indices in (edge, clause) order, mirroring collectChecks.
  size_t NextCheck = 0;
  for (size_t E = 0; E != M.Edges.size(); ++E) {
    const cj::Action &A = M.Edges[E].Act;
    EdgePlan &P = Plans[E];
    switch (A.K) {
    case cj::Action::Kind::Nop:
      break;
    case cj::Action::Kind::Copy:
      P.CopyL = Vocab.findVarPred(A.Lhs);
      P.CopyR = Vocab.findVarPred(A.Args[0]);
      break;
    case cj::Action::Kind::Havoc:
    case cj::Action::Kind::ClientCall:
    case cj::Action::Kind::OpaqueEffect:
      if (!A.Lhs.empty()) {
        P.HavocVarPred = Vocab.findVarPred(A.Lhs);
        std::string T;
        for (const auto &[Name, Ty] : M.CompVars)
          if (Name == A.Lhs)
            T = Ty;
        P.HavocTypePred = T.empty() ? -1 : Vocab.findTypePred(T);
      }
      break;
    case cj::Action::Kind::AllocComp:
    case cj::Action::Kind::CompCall: {
      const MethodAbstraction *MA = abstractionFor(A);
      P.MA = MA;
      if (!MA)
        break;
      std::vector<std::string> BinderNames;
      if (MA->HasThis) {
        BinderNames.push_back("this");
        P.BinderPt.push_back(Vocab.findVarPred(A.Recv));
      }
      for (size_t I = 0; I != MA->Params.size() && I != A.Args.size(); ++I) {
        BinderNames.push_back(MA->Params[I].first);
        P.BinderPt.push_back(Vocab.findVarPred(A.Args[I]));
      }
      P.NumBinders = static_cast<unsigned>(BinderNames.size());
      for (size_t R = 0; R != MA->RequiresFalse.size(); ++R) {
        P.Requires.push_back(
            compileApp(MA->RequiresFalse[R].first, BinderNames, P.BinderPt, nullptr));
        P.CheckIdx.push_back(static_cast<int>(NextCheck++));
      }
      P.NewNode = A.K == cj::Action::Kind::AllocComp ||
                  (!A.Lhs.empty() && MA->ReturnsFresh);
      P.HavocLhsAfter = !A.Lhs.empty() && !P.NewNode;
      if (!A.Lhs.empty()) {
        P.LhsVarPred = Vocab.findVarPred(A.Lhs);
        P.HavocVarPred = P.LhsVarPred;
        std::string T;
        for (const auto &[Name, Ty] : M.CompVars)
          if (Name == A.Lhs)
            T = Ty;
        P.HavocTypePred = T.empty() ? -1 : Vocab.findTypePred(T);
      }
      if (P.NewNode)
        P.RetTypePred = Vocab.findTypePred(MA->ReturnType);
      for (const UpdateRule &R : MA->Rules) {
        if (R.IsIdentity)
          continue;
        int Pred = FamPred[R.Family];
        if (Pred < 0)
          continue;
        bool UsesRet = false;
        for (bool B : R.RetSlots)
          UsesRet |= B;
        if (UsesRet && !P.NewNode)
          continue;
        CompiledRule CR;
        CR.Rule = &R;
        CR.Pred = Pred;
        const PredicateFamily &Fam = Abs.Families[R.Family];
        CR.Arity = Fam.arity();
        CR.SlotTypePred.resize(CR.Arity, -1);
        for (unsigned S = 0; S != CR.Arity && S != 2; ++S)
          CR.SlotTypePred[S] = FamTypePred[R.Family][S];
        for (const PredApp &Src : R.Sources)
          CR.Sources.push_back(compileApp(Src, BinderNames, P.BinderPt, &R));
        P.Rules.push_back(std::move(CR));
      }
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Predicate application evaluation
//===----------------------------------------------------------------------===//

/// Evaluates OR over binder assignments of
/// AND(points-to weights, instrumentation value).
Kleene Transfer::evalApp(const Structure &S, const CompiledApp &App,
                         const unsigned *QTuple, int *Bound,
                         unsigned NumBinders) const {
  if (!App.Valid)
    return Kleene::Half; // Unsupported shape: conservative.
  for (unsigned B = 0; B != NumBinders; ++B)
    Bound[B] = -1;
  unsigned Tuple[kMaxArity];
  return evalChoices(S, App, QTuple, Bound, 0, Tuple, Kleene::True);
}

Kleene Transfer::evalChoices(const Structure &S, const CompiledApp &App,
                             const unsigned *QTuple, int *Bound, size_t I,
                             unsigned *Tuple, Kleene Weight) const {
  if (Weight == Kleene::False)
    return Kleene::False;
  if (I == App.Args.size()) {
    Kleene V = App.Args.size() == 1 ? S.unary(App.Pred, Tuple[0])
                                    : S.binary(App.Pred, Tuple[0], Tuple[1]);
    return kAnd(Weight, V);
  }
  const CompiledArg &C = App.Args[I];
  if (C.QSlot >= 0) {
    Tuple[I] = QTuple[C.QSlot];
    return evalChoices(S, App, QTuple, Bound, I + 1, Tuple, Weight);
  }
  if (Bound[C.BinderId] >= 0) {
    Tuple[I] = static_cast<unsigned>(Bound[C.BinderId]);
    return evalChoices(S, App, QTuple, Bound, I + 1, Tuple, Weight);
  }
  Kleene Acc = Kleene::False;
  for (unsigned Node = 0; Node != S.numNodes(); ++Node) {
    Kleene Pt = S.unary(C.PtPred, Node);
    if (Pt == Kleene::False)
      continue;
    Tuple[I] = Node;
    Bound[C.BinderId] = static_cast<int>(Node);
    Acc = kOr(Acc, evalChoices(S, App, QTuple, Bound, I + 1, Tuple,
                               kAnd(Weight, Pt)));
    Bound[C.BinderId] = -1;
    if (Acc == Kleene::True)
      return Acc;
  }
  return Acc;
}

//===----------------------------------------------------------------------===//
// Transfer
//===----------------------------------------------------------------------===//

void Transfer::havocVar(Structure &S, int VarPred, int TypePred) const {
  // A fresh, unconstrained, possibly-aliasing object of the right
  // type.
  unsigned U = S.addNode();
  S.setSummary(U, true);
  if (TypePred >= 0)
    S.setUnary(TypePred, U, Kleene::True);
  setInstrHalfAround(S, U);
  for (unsigned Node = 0; Node != S.numNodes(); ++Node)
    S.setUnary(VarPred, Node,
               nodeHasType(S, Node, TypePred) ? Kleene::Half : Kleene::False);
}

/// Sets every instrumentation tuple involving \p U (with matching slot
/// types) to 1/2.
void Transfer::setInstrHalfAround(Structure &S, unsigned U) const {
  for (size_t F = 0; F != Abs.Families.size(); ++F) {
    int P = FamPred[F];
    if (P < 0)
      continue;
    if (Abs.Families[F].arity() == 1) {
      if (nodeHasType(S, U, FamTypePred[F][0]))
        S.setUnary(P, U, Kleene::Half);
      continue;
    }
    for (unsigned O = 0; O != S.numNodes(); ++O) {
      if (nodeHasType(S, U, FamTypePred[F][0]) &&
          nodeHasType(S, O, FamTypePred[F][1]))
        S.setBinary(P, U, O, Kleene::Half);
      if (nodeHasType(S, O, FamTypePred[F][0]) &&
          nodeHasType(S, U, FamTypePred[F][1]))
        S.setBinary(P, O, U, Kleene::Half);
    }
  }
}

void Transfer::clobberInstr(Structure &S) const {
  for (size_t F = 0; F != Abs.Families.size(); ++F) {
    int P = FamPred[F];
    if (P < 0)
      continue;
    for (unsigned A = 0; A != S.numNodes(); ++A) {
      if (!nodeHasType(S, A, FamTypePred[F][0]))
        continue;
      if (Abs.Families[F].arity() == 1) {
        S.setUnary(P, A, Kleene::Half);
        continue;
      }
      for (unsigned B = 0; B != S.numNodes(); ++B)
        if (nodeHasType(S, B, FamTypePred[F][1]))
          S.setBinary(P, A, B, Kleene::Half);
    }
  }
}

Structure Transfer::apply(const Structure &In, int EdgeIdx, bool &Dead,
                          CheckAccum *Acc) const {
  const cj::Action &A = M.Edges[EdgeIdx].Act;
  const EdgePlan &Plan = Plans[EdgeIdx];
  Structure S = Scratch ? Structure(In, *Scratch) : In;
  switch (A.K) {
  case cj::Action::Kind::Nop:
    return S;
  case cj::Action::Kind::Copy: {
    for (unsigned Node = 0; Node != S.numNodes(); ++Node)
      S.setUnary(Plan.CopyL, Node, S.unary(Plan.CopyR, Node));
    S.blur(Vocab);
    return S;
  }
  case cj::Action::Kind::Havoc:
    havocVar(S, Plan.HavocVarPred, Plan.HavocTypePred);
    S.blur(Vocab);
    return S;
  case cj::Action::Kind::ClientCall:
  case cj::Action::Kind::OpaqueEffect:
    clobberInstr(S);
    if (!A.Lhs.empty())
      havocVar(S, Plan.HavocVarPred, Plan.HavocTypePred);
    S.blur(Vocab);
    return S;
  case cj::Action::Kind::AllocComp:
  case cj::Action::Kind::CompCall:
    return transferComponentCall(std::move(S), Plan, A, Dead, Acc);
  }
  return S;
}

Structure Transfer::transferComponentCall(Structure S, const EdgePlan &Plan,
                                          const cj::Action &A, bool &Dead,
                                          CheckAccum *Acc) const {
  if (!Plan.MA) {
    clobberInstr(S);
    S.blur(Vocab);
    return S;
  }

  int Bound[kMaxBinders];

  // 1. Requires obligations against the pre-state; a failed clause
  // throws, so continuing executions satisfied it (assume-refinement).
  for (size_t R = 0; R != Plan.Requires.size(); ++R) {
    const CompiledApp &App = Plan.Requires[R];
    Kleene V = evalApp(S, App, nullptr, Bound, Plan.NumBinders);
    if (Acc)
      Acc->note(static_cast<size_t>(Plan.CheckIdx[R]), V);
    if (V == Kleene::True) {
      Dead = true; // Every execution throws here.
      return S;
    }
    if (V == Kleene::Half)
      assumeAppFalse(S, App);
  }

  // 2. Result modeling.
  unsigned N = 0;
  if (Plan.NewNode) {
    N = S.addNode();
    if (Plan.RetTypePred >= 0)
      S.setUnary(Plan.RetTypePred, N, Kleene::True);
    for (unsigned Node = 0; Node != S.numNodes(); ++Node)
      S.setUnary(Plan.LhsVarPred, Node, kleeneOf(Node == N));
  }

  // 3. Instrumentation updates from the derived rules (parallel:
  // sources read the snapshot).
  Structure Snapshot = Scratch ? Structure(S, *Scratch) : S;
  for (const CompiledRule &CR : Plan.Rules) {
    unsigned Tuple[kMaxArity];
    enumerateTargets(S, Snapshot, CR, Plan, N, 0, Tuple, Bound);
  }
  // Tuples of the new node for masks the derivation folded away as
  // constants (e.g. same(ret, ret) == 1).
  if (Plan.NewNode)
    applyConstantDiagonals(S, N);

  if (Plan.HavocLhsAfter) {
    Diags.warning(A.Loc, "result of '" + A.str() +
                             "' is not provably fresh; treating "
                             "conservatively");
    havocVar(S, Plan.HavocVarPred, Plan.HavocTypePred);
  }
  S.blur(Vocab);
  return S;
}

/// Assume-refinement: on executions continuing past the check, the
/// requires predicate was false. When every binder resolves to one
/// definite individual, the instrumentation value at that tuple is
/// forced to 0.
void Transfer::assumeAppFalse(Structure &S, const CompiledApp &App) const {
  if (!App.Valid)
    return;
  unsigned Tuple[kMaxArity];
  int Bound[kMaxBinders];
  for (unsigned B = 0; B != kMaxBinders; ++B)
    Bound[B] = -1;
  for (size_t I = 0; I != App.Args.size(); ++I) {
    const CompiledArg &C = App.Args[I];
    if (C.BinderId < 0)
      return; // Quantified slot in a requires clause: cannot refine.
    if (Bound[C.BinderId] >= 0) {
      Tuple[I] = static_cast<unsigned>(Bound[C.BinderId]);
      continue;
    }
    int Definite = -1;
    for (unsigned Node = 0; Node != S.numNodes(); ++Node) {
      Kleene Pt = S.unary(C.PtPred, Node);
      if (Pt == Kleene::Half)
        return; // Indefinite pointer: cannot refine strongly.
      if (Pt == Kleene::True) {
        if (Definite >= 0)
          return;
        Definite = static_cast<int>(Node);
      }
    }
    if (Definite < 0 || S.isSummary(Definite))
      return;
    Bound[C.BinderId] = Definite;
    Tuple[I] = static_cast<unsigned>(Definite);
  }
  if (App.Args.size() == 1)
    S.setUnary(App.Pred, Tuple[0], Kleene::False);
  else
    S.setBinary(App.Pred, Tuple[0], Tuple[1], Kleene::False);
}

void Transfer::enumerateTargets(Structure &S, const Structure &Snapshot,
                                const CompiledRule &CR, const EdgePlan &Plan,
                                unsigned N, unsigned Slot, unsigned *Tuple,
                                int *Bound) const {
  if (Slot == CR.Arity) {
    const UpdateRule &R = *CR.Rule;
    Kleene V = R.ConstantTrue ? Kleene::True : Kleene::False;
    for (const CompiledApp &Src : CR.Sources) {
      if (V == Kleene::True)
        break;
      V = kOr(V, evalApp(Snapshot, Src, Tuple, Bound, Plan.NumBinders));
    }
    if (CR.Arity == 1)
      S.setUnary(CR.Pred, Tuple[0], V);
    else
      S.setBinary(CR.Pred, Tuple[0], Tuple[1], V);
    return;
  }
  if (CR.Rule->RetSlots[Slot]) {
    Tuple[Slot] = N;
    enumerateTargets(S, Snapshot, CR, Plan, N, Slot + 1, Tuple, Bound);
    return;
  }
  for (unsigned Node = 0; Node != S.numNodes(); ++Node) {
    if (Plan.NewNode && Node == N)
      continue; // The fresh node's tuples come from ret rules.
    if (!nodeHasType(S, Node, CR.SlotTypePred[Slot]))
      continue;
    Tuple[Slot] = Node;
    enumerateTargets(S, Snapshot, CR, Plan, N, Slot + 1, Tuple, Bound);
  }
}

void Transfer::applyConstantDiagonals(Structure &S, unsigned N) const {
  for (const auto &[P, V] : Diagonals)
    S.setBinary(P, N, N, V);
}
