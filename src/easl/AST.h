//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for Easl ("Executable Abstraction Specification
/// Language", Section 2): abstract Java-like component specifications
/// consisting of classes with reference-typed fields, constructors and
/// methods whose bodies are sequences of reference assignments, heap
/// allocations, requires clauses, conditionals and returns.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_EASL_AST_H
#define CANVAS_EASL_AST_H

#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <memory>
#include <string>
#include <vector>

namespace canvas {
namespace easl {

/// An unresolved access path as written in the source: a dotted component
/// list, e.g. {"set", "ver"} for "set.ver". The first component may be
/// "this", a parameter, or (implicitly this-qualified) a field.
struct PathExpr {
  std::vector<std::string> Components;
  SourceLoc Loc;

  std::string str() const {
    std::string Out;
    for (const std::string &C : Components) {
      if (!Out.empty())
        Out += '.';
      Out += C;
    }
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// Boolean expressions (requires clauses and if conditions)
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind { Compare, And, Or, Not, BoolConst };

  virtual ~Expr() = default;

  Kind getKind() const { return TheKind; }
  SourceLoc Loc;

protected:
  Expr(Kind K, SourceLoc Loc) : Loc(Loc), TheKind(K) {}

private:
  Kind TheKind;
};

using ExprPtr = std::unique_ptr<Expr>;

/// "a == b" or "a != b" over access paths.
class CompareExpr : public Expr {
public:
  CompareExpr(PathExpr Lhs, PathExpr Rhs, bool Negated, SourceLoc Loc)
      : Expr(Kind::Compare, Loc), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)),
        Negated(Negated) {}

  PathExpr Lhs, Rhs;
  bool Negated;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Compare; }
};

class AndExpr : public Expr {
public:
  AndExpr(std::vector<ExprPtr> Ops, SourceLoc Loc)
      : Expr(Kind::And, Loc), Operands(std::move(Ops)) {}

  std::vector<ExprPtr> Operands;

  static bool classof(const Expr *E) { return E->getKind() == Kind::And; }
};

class OrExpr : public Expr {
public:
  OrExpr(std::vector<ExprPtr> Ops, SourceLoc Loc)
      : Expr(Kind::Or, Loc), Operands(std::move(Ops)) {}

  std::vector<ExprPtr> Operands;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Or; }
};

class NotExpr : public Expr {
public:
  NotExpr(ExprPtr Op, SourceLoc Loc)
      : Expr(Kind::Not, Loc), Operand(std::move(Op)) {}

  ExprPtr Operand;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Not; }
};

class BoolConstExpr : public Expr {
public:
  BoolConstExpr(bool Value, SourceLoc Loc)
      : Expr(Kind::BoolConst, Loc), Value(Value) {}

  bool Value;

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::BoolConst;
  }
};

//===----------------------------------------------------------------------===//
// Right-hand sides and statements
//===----------------------------------------------------------------------===//

/// The right-hand side of an assignment or return: either an access path
/// or a "new C(args)" allocation whose constructor is inlined during WP
/// computation.
struct RhsExpr {
  enum class Kind { Path, New };

  Kind TheKind = Kind::Path;
  PathExpr P;                ///< Valid when TheKind == Path.
  std::string NewType;       ///< Valid when TheKind == New.
  std::vector<PathExpr> Args;
  SourceLoc Loc;

  bool isNew() const { return TheKind == Kind::New; }
  std::string str() const;
};

class Stmt {
public:
  enum class Kind { Requires, Assign, Return, If };

  virtual ~Stmt() = default;

  Kind getKind() const { return TheKind; }
  SourceLoc Loc;

protected:
  Stmt(Kind K, SourceLoc Loc) : Loc(Loc), TheKind(K) {}

private:
  Kind TheKind;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// "requires (phi);" — the conformance constraint the client must satisfy
/// at this point of the component's execution.
class RequiresStmt : public Stmt {
public:
  RequiresStmt(ExprPtr Cond, SourceLoc Loc)
      : Stmt(Kind::Requires, Loc), Cond(std::move(Cond)) {}

  ExprPtr Cond;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Requires; }
};

/// "path = rhs;"
class AssignStmt : public Stmt {
public:
  AssignStmt(PathExpr Lhs, RhsExpr Rhs, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}

  PathExpr Lhs;
  RhsExpr Rhs;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }
};

/// "return rhs;"
class ReturnStmt : public Stmt {
public:
  ReturnStmt(RhsExpr Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(std::move(Value)) {}

  RhsExpr Value;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }
};

/// "if (cond) { ... } else { ... }"
class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, std::vector<StmtPtr> Then, std::vector<StmtPtr> Else,
         SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  ExprPtr Cond;
  std::vector<StmtPtr> Then;
  std::vector<StmtPtr> Else;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct Param {
  std::string Type;
  std::string Name;
  SourceLoc Loc;
};

struct MethodDecl {
  std::string ReturnType; ///< "void" or a class name.
  std::string Name;
  bool IsConstructor = false;
  std::vector<Param> Params;
  std::vector<StmtPtr> Body;
  SourceLoc Loc;
};

struct FieldDecl {
  std::string Type;
  std::string Name;
  SourceLoc Loc;
};

struct ClassDecl {
  std::string Name;
  std::vector<FieldDecl> Fields;
  std::vector<MethodDecl> Methods;
  SourceLoc Loc;

  const FieldDecl *findField(const std::string &Name) const;
  /// Finds a non-constructor method by name (Easl has no overloading).
  const MethodDecl *findMethod(const std::string &Name) const;
  /// Finds the class's constructor, or null for the implicit empty one.
  const MethodDecl *constructor() const;
};

/// A complete Easl component specification: a closed set of classes.
struct Spec {
  std::vector<ClassDecl> Classes;

  const ClassDecl *findClass(const std::string &Name) const;
};

} // namespace easl
} // namespace canvas

#endif // CANVAS_EASL_AST_H
