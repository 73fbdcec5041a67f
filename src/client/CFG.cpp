#include "client/CFG.h"

#include "support/Casting.h"

#include <map>

using namespace canvas;
using namespace canvas::cj;

std::string Action::str() const {
  auto ArgList = [&] {
    std::string Out = "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Args[I].empty() ? "?" : Args[I];
    }
    return Out + ")";
  };
  switch (K) {
  case Kind::Nop:
    return "nop";
  case Kind::AllocComp:
    return Lhs + " = new " + Callee + ArgList();
  case Kind::CompCall:
    return (Lhs.empty() ? "" : Lhs + " = ") + Recv + "." + Callee + ArgList();
  case Kind::Copy:
    return Lhs + " = " + (Args.empty() ? "?" : Args[0]);
  case Kind::Havoc:
    return Lhs + " = <unknown>";
  case Kind::ClientCall:
    return (Lhs.empty() ? "" : Lhs + " = ") + "call " + Callee + ArgList();
  case Kind::OpaqueEffect:
    return "<opaque effect>";
  }
  return "?";
}

std::string CFGMethod::str() const {
  std::string Out = name() + " (entry " + std::to_string(Entry) + ", exit " +
                    std::to_string(Exit) + ")\n";
  for (const CFGEdge &E : Edges)
    Out += "  " + std::to_string(E.From) + " -> " + std::to_string(E.To) +
           ": " + E.Act.str() + "\n";
  return Out;
}

const CFGMethod *ClientCFG::findMethod(const std::string &ClassName,
                                       const std::string &MethodName) const {
  for (const CFGMethod &M : Methods)
    if (M.Class->Name == ClassName && M.Method->Name == MethodName)
      return &M;
  return nullptr;
}

const CFGMethod *ClientCFG::findMethod(const CMethod *M) const {
  for (const CFGMethod &C : Methods)
    if (C.Method == M)
      return &C;
  return nullptr;
}

const CFGMethod *ClientCFG::mainCFG() const {
  return Prog ? findMethod(Prog->mainMethod()) : nullptr;
}

namespace {

class MethodLowering {
public:
  MethodLowering(const Program &P, const easl::Spec &Spec, const CClass &C,
                 const CMethod &M, DiagnosticEngine &Diags)
      : Prog(P), Spec(Spec), Class(C), Method(M), Diags(Diags) {}

  CFGMethod run() {
    Out.Class = &Class;
    Out.Method = &Method;
    collectVarTypes();
    Out.Entry = newNode();
    Out.Exit = newNode();
    int End = lowerStmts(Method.Body, Out.Entry);
    edge(End, Out.Exit, Action{});
    Out.NumNodes = NextNode;
    return std::move(Out);
  }

private:
  bool isComponentType(const std::string &T) const {
    return Spec.findClass(T) != nullptr;
  }
  bool isClientType(const std::string &T) const {
    return Prog.findClass(T) != nullptr;
  }

  void collectVarTypes() {
    for (const CParam &P : Method.Params)
      declareVar(P.Name, P.Type, P.Loc);
    collectDecls(Method.Body);
    if (isComponentType(Method.ReturnType))
      declareVar("$ret", Method.ReturnType, Method.Loc);
  }

  void collectDecls(const std::vector<CStmtPtr> &Stmts) {
    for (const CStmtPtr &St : Stmts) {
      switch (St->getKind()) {
      case CStmt::Kind::Decl: {
        const auto *D = cast<DeclStmt>(St.get());
        declareVar(D->Name, D->Type, D->Loc);
        break;
      }
      case CStmt::Kind::If: {
        const auto *I = cast<IfStmt>(St.get());
        collectDecls(I->Then);
        collectDecls(I->Else);
        break;
      }
      case CStmt::Kind::While:
        collectDecls(cast<WhileStmt>(St.get())->Body);
        break;
      case CStmt::Kind::Block:
        collectDecls(cast<BlockStmt>(St.get())->Body);
        break;
      default:
        break;
      }
    }
  }

  void declareVar(const std::string &Name, const std::string &Type,
                  SourceLoc Loc) {
    auto It = VarTypes.find(Name);
    if (It != VarTypes.end()) {
      if (It->second != Type)
        Diags.error(Loc, "variable '" + Name +
                             "' redeclared with a different type");
      return;
    }
    VarTypes.emplace(Name, Type);
    if (isComponentType(Type))
      Out.CompVars.emplace_back(Name, Type);
  }

  int newNode() { return NextNode++; }

  void edge(int From, int To, Action A) {
    Out.Edges.push_back({From, To, std::move(A)});
  }

  /// Appends an action edge after \p Cur; returns the new frontier node.
  int emit(int Cur, Action A) {
    int Next = newNode();
    edge(Cur, Next, std::move(A));
    return Next;
  }

  int lowerStmts(const std::vector<CStmtPtr> &Stmts, int Cur) {
    for (const CStmtPtr &St : Stmts)
      Cur = lowerStmt(*St, Cur);
    return Cur;
  }

  int lowerStmt(const CStmt &St, int Cur) {
    switch (St.getKind()) {
    case CStmt::Kind::Block:
      return lowerStmts(cast<BlockStmt>(&St)->Body, Cur);
    case CStmt::Kind::Decl: {
      const auto *D = cast<DeclStmt>(&St);
      if (!D->Init)
        return Cur;
      return lowerAssignment(D->Name, D->Loc, *D->Init, Cur);
    }
    case CStmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&St);
      if (A->Lhs.isSingleVar())
        return lowerAssignment(A->Lhs.Components[0], A->Loc, *A->Rhs, Cur);
      // Field store: a component reference escaping to the heap.
      if (isComponentType(typeOfPath(A->Lhs)))
        Out.HasHeapComponentRefs = true;
      // Evaluate the RHS for its side effects (a call may still occur).
      return lowerExprEffects(*A->Rhs, Cur);
    }
    case CStmt::Kind::Expr:
      return lowerExprEffects(*cast<ExprStmt>(&St)->E, Cur);
    case CStmt::Kind::Return: {
      const auto *R = cast<ReturnStmt>(&St);
      if (R->Value && isComponentType(Method.ReturnType))
        Cur = lowerAssignment("$ret", R->Loc, *R->Value, Cur);
      else if (R->Value)
        Cur = lowerExprEffects(*R->Value, Cur);
      edge(Cur, Out.Exit, Action{});
      // Code after return is unreachable; give it a fresh island.
      return newNode();
    }
    case CStmt::Kind::If: {
      const auto *I = cast<IfStmt>(&St);
      int ThenEntry = newNode();
      int ElseEntry = newNode();
      edge(Cur, ThenEntry, Action{});
      edge(Cur, ElseEntry, Action{});
      int ThenEnd = lowerStmts(I->Then, ThenEntry);
      int ElseEnd = lowerStmts(I->Else, ElseEntry);
      int Join = newNode();
      edge(ThenEnd, Join, Action{});
      edge(ElseEnd, Join, Action{});
      return Join;
    }
    case CStmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&St);
      int Head = newNode();
      edge(Cur, Head, Action{});
      int BodyEntry = newNode();
      int After = newNode();
      edge(Head, BodyEntry, Action{});
      edge(Head, After, Action{});
      int BodyEnd = lowerStmts(W->Body, BodyEntry);
      edge(BodyEnd, Head, Action{});
      return After;
    }
    }
    return Cur;
  }

  /// Declared type of a variable, or "" when unknown.
  std::string typeOfVar(const std::string &Name) const {
    auto It = VarTypes.find(Name);
    return It == VarTypes.end() ? "" : It->second;
  }

  /// Resolves the static type of a dotted path through client-class
  /// fields; "" when it cannot be resolved.
  std::string typeOfPath(const PathE &P) const {
    if (P.Components.empty())
      return "";
    std::string T = P.Components.front() == "this" ? Class.Name
                                                   : typeOfVar(
                                                         P.Components.front());
    for (size_t I = 1, E = P.Components.size(); I != E; ++I) {
      const CClass *C = Prog.findClass(T);
      if (!C)
        return "";
      const CField *F = C->findField(P.Components[I]);
      if (!F)
        return "";
      T = F->Type;
    }
    return T;
  }

  /// Lowers "LhsVar = Expr".
  int lowerAssignment(const std::string &LhsVar, SourceLoc Loc,
                      const CExpr &E, int Cur) {
    std::string LhsType = typeOfVar(LhsVar);
    bool LhsComp = isComponentType(LhsType);
    switch (E.getKind()) {
    case CExpr::Kind::Null:
      if (LhsComp)
        return emit(Cur, havoc(LhsVar, Loc));
      return Cur;
    case CExpr::Kind::New: {
      const auto *N = cast<NewExpr>(&E);
      if (!isComponentType(N->Type)) {
        // Client or opaque allocation: irrelevant to component state.
        return Cur;
      }
      if (!LhsComp || LhsType != N->Type) {
        Diags.error(Loc, "component allocation assigned to '" + LhsVar +
                             "' of type '" + LhsType + "'");
        return Cur;
      }
      Action A;
      A.K = Action::Kind::AllocComp;
      A.Lhs = LhsVar;
      A.Callee = N->Type;
      A.Loc = Loc;
      if (!lowerCompArgs(N->Type, "new", N->Args, Loc, A.Args))
        return Cur;
      return emit(Cur, std::move(A));
    }
    case CExpr::Kind::Call:
      return lowerCall(*cast<CallExpr>(&E), LhsComp ? LhsVar : "", Loc, Cur);
    case CExpr::Kind::Path: {
      const auto *P = cast<PathRefExpr>(&E);
      if (!LhsComp) {
        // Opaque copy.
        return Cur;
      }
      if (P->P.isSingleVar()) {
        const std::string &Rhs = P->P.Components[0];
        if (typeOfVar(Rhs) == LhsType) {
          Action A;
          A.K = Action::Kind::Copy;
          A.Lhs = LhsVar;
          A.Args = {Rhs};
          A.Loc = Loc;
          return emit(Cur, std::move(A));
        }
        Diags.error(Loc, "copy of '" + P->P.str() + "' to '" + LhsVar +
                             "' with mismatched component types");
        return Cur;
      }
      // Heap load of a component reference.
      Out.HasHeapComponentRefs = true;
      return emit(Cur, havoc(LhsVar, Loc));
    }
    }
    return Cur;
  }

  /// Lowers an expression evaluated only for effect.
  int lowerExprEffects(const CExpr &E, int Cur) {
    if (const auto *Call = dyn_cast<CallExpr>(&E))
      return lowerCall(*Call, "", Call->Loc, Cur);
    return Cur;
  }

  /// Checks and extracts component-typed argument variables for a
  /// component method/constructor call. Returns false on arity/type
  /// error.
  bool lowerCompArgs(const std::string &ClassName,
                     const std::string &MethodName,
                     const std::vector<CExprPtr> &Args, SourceLoc Loc,
                     std::vector<std::string> &Out) {
    const easl::ClassDecl *C = Spec.findClass(ClassName);
    std::vector<std::pair<std::string, std::string>> Params;
    if (MethodName == "new") {
      if (const easl::MethodDecl *Ctor = C->constructor())
        for (const easl::Param &P : Ctor->Params)
          Params.emplace_back(P.Name, P.Type);
    } else {
      const easl::MethodDecl *M = C->findMethod(MethodName);
      if (!M) {
        Diags.error(Loc, "component class '" + ClassName + "' has no method '" +
                             MethodName + "'");
        return false;
      }
      for (const easl::Param &P : M->Params)
        Params.emplace_back(P.Name, P.Type);
    }
    if (Args.size() != Params.size()) {
      Diags.error(Loc, "call to " + ClassName + "::" + MethodName + " takes " +
                           std::to_string(Params.size()) + " argument(s)");
      return false;
    }
    for (size_t I = 0; I != Args.size(); ++I) {
      const auto *P = dyn_cast<PathRefExpr>(Args[I].get());
      if (P && P->P.isSingleVar() &&
          typeOfVar(P->P.Components[0]) == Params[I].second) {
        Out.push_back(P->P.Components[0]);
        continue;
      }
      Diags.error(Loc, "argument " + std::to_string(I + 1) + " of " +
                           ClassName + "::" + MethodName +
                           " must be a local of type " + Params[I].second);
      return false;
    }
    return true;
  }

  int lowerCall(const CallExpr &Call, const std::string &LhsVar,
                SourceLoc Loc, int Cur) {
    PathE Recv = Call.receiver();
    // Intra-class client call: m(args) or this.m(args).
    if (Recv.Components.empty() ||
        (Recv.isSingleVar() && Recv.Components[0] == "this"))
      return lowerClientCall(Class, Call, LhsVar, Loc, Cur);

    if (Recv.isSingleVar()) {
      std::string RecvType = typeOfVar(Recv.Components[0]);
      if (isComponentType(RecvType))
        return lowerComponentCall(RecvType, Recv.Components[0], Call, LhsVar,
                                  Loc, Cur);
      if (isClientType(RecvType)) {
        const CClass *C = Prog.findClass(RecvType);
        return lowerClientCall(*C, Call, LhsVar, Loc, Cur);
      }
      // Opaque receiver: the call cannot touch component state unless it
      // holds component references, which only heap traffic could give
      // it; heap traffic is already flagged.
      if (!LhsVar.empty())
        return emit(Cur, havoc(LhsVar, Loc));
      return Cur;
    }

    // Receiver reached through the heap.
    std::string RecvType = typeOfPath(Recv);
    if (isComponentType(RecvType)) {
      // A component method on a heap-resident receiver may affect any
      // component object (e.g. invalidate iterators of an aliased
      // local). Clobber everything.
      Out.HasHeapComponentRefs = true;
      Action A;
      A.K = Action::Kind::OpaqueEffect;
      A.Lhs = LhsVar;
      A.Loc = Loc;
      return emit(Cur, std::move(A));
    }
    if (isClientType(RecvType)) {
      const CClass *C = Prog.findClass(RecvType);
      return lowerClientCall(*C, Call, LhsVar, Loc, Cur);
    }
    if (!LhsVar.empty())
      return emit(Cur, havoc(LhsVar, Loc));
    return Cur;
  }

  int lowerComponentCall(const std::string &RecvType,
                         const std::string &RecvVar, const CallExpr &Call,
                         const std::string &LhsVar, SourceLoc Loc, int Cur) {
    const easl::ClassDecl *C = Spec.findClass(RecvType);
    const easl::MethodDecl *M = C->findMethod(Call.methodName());
    if (!M) {
      Diags.error(Loc, "component class '" + RecvType + "' has no method '" +
                           Call.methodName() + "'");
      return Cur;
    }
    if (!LhsVar.empty() && typeOfVar(LhsVar) != M->ReturnType) {
      Diags.error(Loc, "result of " + RecvType + "::" + Call.methodName() +
                           " assigned to mismatched type");
      return Cur;
    }
    Action A;
    A.K = Action::Kind::CompCall;
    A.Lhs = LhsVar;
    A.Recv = RecvVar;
    A.Callee = Call.methodName();
    A.Loc = Loc;
    if (!lowerCompArgs(RecvType, Call.methodName(), Call.Args, Loc, A.Args))
      return Cur;
    return emit(Cur, std::move(A));
  }

  int lowerClientCall(const CClass &Target, const CallExpr &Call,
                      const std::string &LhsVar, SourceLoc Loc, int Cur) {
    const CMethod *M = Target.findMethod(Call.methodName());
    if (!M) {
      Diags.error(Loc, "client class '" + Target.Name + "' has no method '" +
                           Call.methodName() + "'");
      return Cur;
    }
    if (M->Params.size() != Call.Args.size()) {
      Diags.error(Loc, "call to " + Target.Name + "::" + Call.methodName() +
                           " has wrong arity");
      return Cur;
    }
    Action A;
    A.K = Action::Kind::ClientCall;
    A.Lhs = LhsVar;
    A.Callee = Target.Name + "::" + Call.methodName();
    A.CalleeClass = &Target;
    A.CalleeMethod = M;
    A.Loc = Loc;
    for (size_t I = 0; I != Call.Args.size(); ++I) {
      const auto *P = dyn_cast<PathRefExpr>(Call.Args[I].get());
      bool ParamComp = isComponentType(M->Params[I].Type);
      if (ParamComp && P && P->P.isSingleVar() &&
          typeOfVar(P->P.Components[0]) == M->Params[I].Type) {
        A.Args.push_back(P->P.Components[0]);
      } else {
        if (ParamComp)
          // An unknown component-typed argument: callee param is havocked.
          Out.HasHeapComponentRefs |= P && !P->P.isSingleVar();
        A.Args.push_back("");
      }
    }
    return emit(Cur, std::move(A));
  }

  Action havoc(const std::string &Var, SourceLoc Loc) {
    Action A;
    A.K = Action::Kind::Havoc;
    A.Lhs = Var;
    A.Loc = Loc;
    return A;
  }

  const Program &Prog;
  const easl::Spec &Spec;
  const CClass &Class;
  const CMethod &Method;
  DiagnosticEngine &Diags;
  CFGMethod Out;
  std::map<std::string, std::string> VarTypes;
  int NextNode = 0;
};

} // namespace

ClientCFG cj::buildCFG(const Program &P, const easl::Spec &Spec,
                       DiagnosticEngine &Diags) {
  ClientCFG CFG;
  CFG.Prog = &P;
  for (const CClass &C : P.Classes)
    for (const CMethod &M : C.Methods)
      CFG.Methods.push_back(MethodLowering(P, Spec, C, M, Diags).run());
  return CFG;
}
