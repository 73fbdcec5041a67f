#include "client/Parser.h"

#include "support/Lexer.h"

#include <algorithm>

using namespace canvas;
using namespace canvas::cj;

const CMethod *CClass::findMethod(const std::string &MethodName) const {
  for (const CMethod &M : Methods)
    if (M.Name == MethodName)
      return &M;
  return nullptr;
}

const CField *CClass::findField(const std::string &FieldName) const {
  for (const CField &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

const CClass *Program::findClass(const std::string &Name) const {
  for (const CClass &C : Classes)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

const CMethod *Program::mainMethod() const {
  for (const CClass &C : Classes)
    if (const CMethod *M = C.findMethod("main"))
      return M;
  return nullptr;
}

const CClass *Program::classOfMethod(const CMethod *M) const {
  for (const CClass &C : Classes)
    for (const CMethod &Cand : C.Methods)
      if (&Cand == M)
        return &C;
  return nullptr;
}

namespace {

class ClientParser {
public:
  ClientParser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  Program run() {
    Program P;
    while (!atEnd()) {
      // Tolerate modifiers before 'class'.
      while (peek().isKeyword("public") || peek().isKeyword("final"))
        advance();
      if (peek().isKeyword("class")) {
        CClass C = parseClass();
        // Methods are named "Class::method", so a second class under
        // one name would give two methods one name; it is rejected.
        if (P.findClass(C.Name))
          Diags.error(C.Loc, "class '" + C.Name + "' is already defined");
        else
          P.Classes.push_back(std::move(C));
        continue;
      }
      // One diagnostic per junk region, then resume at the next class
      // so later declarations still parse (partial AST with errors).
      error("expected 'class'");
      synchronizeTopLevel();
    }
    return P;
  }

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t I = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[I];
  }
  bool atEnd() const { return peek().is(TokenKind::End); }
  const Token &advance() {
    const Token &T = Tokens[Pos];
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }

  void error(const std::string &Msg) { Diags.error(peek().Loc, Msg); }

  bool expectPunct(const char *P) {
    if (peek().isPunct(P)) {
      advance();
      return true;
    }
    error(std::string("expected '") + P + "'");
    return false;
  }

  std::string expectIdentifier(const char *What) {
    if (peek().is(TokenKind::Identifier))
      return advance().Text;
    error(std::string("expected ") + What);
    return "";
  }

  void synchronize() {
    while (!atEnd()) {
      if (peek().isPunct(";")) {
        advance();
        return;
      }
      if (peek().isPunct("}"))
        return;
      advance();
    }
  }

  /// Skips forward to the next top-level 'class' keyword (or the end)
  /// after junk between declarations.
  void synchronizeTopLevel() {
    advance();
    while (!atEnd() && !peek().isKeyword("class"))
      advance();
  }

  void skipModifiers() {
    while (peek().isKeyword("public") || peek().isKeyword("private") ||
           peek().isKeyword("protected") || peek().isKeyword("static") ||
           peek().isKeyword("final"))
      advance();
  }

  CClass parseClass() {
    CClass C;
    C.Loc = peek().Loc;
    advance(); // 'class'
    C.Name = expectIdentifier("class name");
    expectPunct("{");
    while (!atEnd() && !peek().isPunct("}"))
      parseMember(C);
    expectPunct("}");
    return C;
  }

  void parseMember(CClass &C) {
    skipModifiers();
    SourceLoc Loc = peek().Loc;
    std::string Type;
    if (peek().isKeyword("void"))
      Type = advance().Text;
    else
      Type = expectIdentifier("member type");
    std::string Name = expectIdentifier("member name");
    if (peek().isPunct(";")) {
      advance();
      C.Fields.push_back({std::move(Type), std::move(Name), Loc});
      return;
    }
    if (peek().isPunct("(")) {
      CMethod M;
      M.Loc = Loc;
      M.ReturnType = std::move(Type);
      M.Name = std::move(Name);
      advance();
      if (!peek().isPunct(")")) {
        while (true) {
          CParam P;
          P.Loc = peek().Loc;
          P.Type = expectIdentifier("parameter type");
          P.Name = expectIdentifier("parameter name");
          M.Params.push_back(std::move(P));
          if (!peek().isPunct(","))
            break;
          advance();
        }
      }
      expectPunct(")");
      M.Body = parseBlock();
      // Calls, certificates and the store all name a method by
      // "Class::method", so a second body under one name is rejected.
      if (C.findMethod(M.Name)) {
        Diags.error(M.Loc, "method '" + M.Name +
                               "' is already defined in class '" + C.Name +
                               "'");
        return;
      }
      C.Methods.push_back(std::move(M));
      return;
    }
    error("expected ';' or '(' after member name");
    synchronize();
  }

  std::vector<CStmtPtr> parseBlock() {
    std::vector<CStmtPtr> Stmts;
    expectPunct("{");
    while (!atEnd() && !peek().isPunct("}")) {
      if (CStmtPtr S = parseStmt())
        Stmts.push_back(std::move(S));
      else
        synchronize();
    }
    expectPunct("}");
    return Stmts;
  }

  CStmtPtr parseStmt() {
    SourceLoc Loc = peek().Loc;
    if (peek().isPunct("{"))
      return std::make_unique<BlockStmt>(parseBlock(), Loc);
    if (peek().isKeyword("if")) {
      advance();
      parseNondetCond();
      std::vector<CStmtPtr> Then = parseBlock();
      std::vector<CStmtPtr> Else;
      if (peek().isKeyword("else")) {
        advance();
        if (peek().isKeyword("if")) {
          // else-if chains nest as a single-statement else block.
          Else.push_back(parseStmt());
        } else {
          Else = parseBlock();
        }
      }
      return std::make_unique<IfStmt>(std::move(Then), std::move(Else), Loc);
    }
    if (peek().isKeyword("while")) {
      advance();
      parseNondetCond();
      return std::make_unique<WhileStmt>(parseBlock(), Loc);
    }
    if (peek().isKeyword("return")) {
      advance();
      CExprPtr Value;
      if (!peek().isPunct(";"))
        Value = parseExpr();
      expectPunct(";");
      return std::make_unique<ReturnStmt>(std::move(Value), Loc);
    }
    // Declaration ("T x ..." — two identifiers in a row) vs assignment /
    // call.
    if (peek().is(TokenKind::Identifier) &&
        peek(1).is(TokenKind::Identifier)) {
      std::string Type = advance().Text;
      std::string Name = advance().Text;
      CExprPtr Init;
      if (peek().isPunct("=")) {
        advance();
        Init = parseExpr();
      }
      expectPunct(";");
      return std::make_unique<DeclStmt>(std::move(Type), std::move(Name),
                                        std::move(Init), Loc);
    }
    PathE P = parsePath();
    if (P.Components.empty())
      return nullptr;
    if (peek().isPunct("(")) {
      auto Call = std::make_unique<CallExpr>(std::move(P), parseArgs(), Loc);
      expectPunct(";");
      return std::make_unique<ExprStmt>(std::move(Call), Loc);
    }
    if (peek().isPunct("=")) {
      advance();
      CExprPtr Rhs = parseExpr();
      expectPunct(";");
      return std::make_unique<AssignStmt>(std::move(P), std::move(Rhs), Loc);
    }
    error("expected '(', '=' or declaration");
    return nullptr;
  }

  /// "( * )" — CJ conditions are always nondeterministic.
  void parseNondetCond() {
    expectPunct("(");
    if (peek().isPunct("*"))
      advance();
    else
      error("CJ branch conditions must be '*' (nondeterministic)");
    expectPunct(")");
  }

  std::vector<CExprPtr> parseArgs() {
    std::vector<CExprPtr> Args;
    expectPunct("(");
    if (!peek().isPunct(")")) {
      while (true) {
        Args.push_back(parseExpr());
        if (!peek().isPunct(","))
          break;
        advance();
      }
    }
    expectPunct(")");
    return Args;
  }

  CExprPtr parseExpr() {
    SourceLoc Loc = peek().Loc;
    if (peek().isKeyword("null")) {
      advance();
      return std::make_unique<NullExpr>(Loc);
    }
    if (peek().isKeyword("new")) {
      advance();
      std::string Type = expectIdentifier("class name after 'new'");
      return std::make_unique<NewExpr>(std::move(Type), parseArgs(), Loc);
    }
    if (peek().is(TokenKind::String)) {
      // String literals appear as opaque arguments (e.g. v.add("..."));
      // model them as null references of opaque type.
      advance();
      return std::make_unique<NullExpr>(Loc);
    }
    PathE P = parsePath();
    if (peek().isPunct("("))
      return std::make_unique<CallExpr>(std::move(P), parseArgs(), Loc);
    return std::make_unique<PathRefExpr>(std::move(P), Loc);
  }

  PathE parsePath() {
    PathE P;
    P.Loc = peek().Loc;
    if (!peek().is(TokenKind::Identifier)) {
      error("expected identifier");
      return P;
    }
    P.Components.push_back(advance().Text);
    while (peek().isPunct(".")) {
      advance();
      P.Components.push_back(expectIdentifier("member name"));
    }
    return P;
  }

  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
};

} // namespace

Program cj::parseProgram(std::string_view Source, DiagnosticEngine &Diags) {
  std::vector<Token> Tokens = lexSource(Source, Diags);
  return ClientParser(std::move(Tokens), Diags).run();
}
