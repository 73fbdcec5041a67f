#include "client/Parser.h"

#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::cj;

namespace {

Program parseOK(const char *Src) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return P;
}

TEST(CJParserTest, ParsesClassWithFieldsAndMethods) {
  Program P = parseOK(R"(
    class Worklist {
      Set s;
      void addItem() { s.add(); }
      Set unprocessedItems() { return s; }
    }
  )");
  const CClass *C = P.findClass("Worklist");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Fields.size(), 1u);
  EXPECT_EQ(C->Methods.size(), 2u);
}

TEST(CJParserTest, ParsesDeclWithInit) {
  Program P = parseOK(R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
      }
    }
  )");
  const CMethod *Main = P.mainMethod();
  ASSERT_NE(Main, nullptr);
  ASSERT_EQ(Main->Body.size(), 2u);
  const auto *D0 = dyn_cast<DeclStmt>(Main->Body[0].get());
  ASSERT_NE(D0, nullptr);
  EXPECT_EQ(D0->Type, "Set");
  EXPECT_EQ(D0->Name, "v");
  ASSERT_NE(D0->Init, nullptr);
  EXPECT_EQ(D0->Init->getKind(), CExpr::Kind::New);

  const auto *D1 = cast<DeclStmt>(Main->Body[1].get());
  const auto *Call = dyn_cast<CallExpr>(D1->Init.get());
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->methodName(), "iterator");
  EXPECT_EQ(Call->receiver().str(), "v");
}

TEST(CJParserTest, ParsesNondeterministicControlFlow) {
  Program P = parseOK(R"(
    class M {
      void main() {
        while (*) {
          if (*) { m(); } else { m(); }
        }
      }
      void m() { }
    }
  )");
  const CMethod *Main = P.mainMethod();
  ASSERT_EQ(Main->Body.size(), 1u);
  EXPECT_EQ(Main->Body[0]->getKind(), CStmt::Kind::While);
}

TEST(CJParserTest, RejectsConcreteConditions) {
  DiagnosticEngine Diags;
  parseProgram("class M { void main() { if (x) { } } }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(CJParserTest, RejectsMethodDefinedTwice) {
  // Calls, certificates and store entries all name a method by
  // "Class::method"; a second body under one name would be reported as
  // a second unit that call resolution never reaches. It is an error at
  // the second definition, which is dropped.
  DiagnosticEngine Diags;
  Program P = parseProgram(
      "class D {\n"
      "  void m() { Set s = new Set(); Iterator i = s.iterator(); "
      "s.add(); i.next(); }\n"
      "  void m() { Set s = new Set(); Iterator i = s.iterator(); "
      "i.next(); }\n"
      "  void main() { m(); }\n"
      "}\n",
      Diags);
  ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str();
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_EQ(D.Loc.Line, 3u);
  EXPECT_EQ(D.Loc.Col, 3u);
  EXPECT_EQ(D.Message, "method 'm' is already defined in class 'D'");
  const CClass *C = P.findClass("D");
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->Methods.size(), 2u); // The first m() and main().
  EXPECT_EQ(C->Methods[0].Body.size(), 4u);

  // The same name in two classes is two methods.
  parseOK("class A { void m() { } } class B { void m() { } }");
}

TEST(CJParserTest, RejectsClassDefinedTwice) {
  // Two classes D would give two methods named "D::m" just as two
  // bodies of m() in one class would. The second class is an error at
  // its definition and is dropped.
  DiagnosticEngine Diags;
  Program P = parseProgram(
      "class D {\n"
      "  void m() { Set s = new Set(); Iterator i = s.iterator(); "
      "i.next(); }\n"
      "}\n"
      "public class D {\n"
      "  void m() { Set s = new Set(); Iterator i = s.iterator(); "
      "s.add(); i.next(); }\n"
      "  void main() { m(); }\n"
      "}\n",
      Diags);
  ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str();
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_EQ(D.Loc.Line, 4u);
  EXPECT_EQ(D.Loc.Col, 8u);
  EXPECT_EQ(D.Message, "class 'D' is already defined");
  ASSERT_EQ(P.Classes.size(), 1u);
  ASSERT_EQ(P.Classes[0].Methods.size(), 1u);
  EXPECT_EQ(P.Classes[0].Methods[0].Body.size(), 3u);
  EXPECT_EQ(P.mainMethod(), nullptr);
}

TEST(CJParserTest, ParsesElseIfChain) {
  Program P = parseOK(R"(
    class M {
      void main() {
        if (*) { } else if (*) { } else { }
      }
    }
  )");
  const auto *If = cast<IfStmt>(P.mainMethod()->Body[0].get());
  ASSERT_EQ(If->Else.size(), 1u);
  EXPECT_EQ(If->Else[0]->getKind(), CStmt::Kind::If);
}

TEST(CJParserTest, StringLiteralArgumentsBecomeNull) {
  Program P = parseOK(R"(
    class M {
      void main() { log("hello"); }
      void log(Object msg) { }
    }
  )");
  const auto *E = cast<ExprStmt>(P.mainMethod()->Body[0].get());
  const auto *Call = cast<CallExpr>(E->E.get());
  ASSERT_EQ(Call->Args.size(), 1u);
  EXPECT_EQ(Call->Args[0]->getKind(), CExpr::Kind::Null);
}

TEST(CJParserTest, SkipsModifiers) {
  Program P = parseOK(R"(
    public class M {
      private Set s;
      public static void main() { }
    }
  )");
  EXPECT_NE(P.findClass("M"), nullptr);
  EXPECT_NE(P.mainMethod(), nullptr);
}

TEST(CJParserTest, ParsesReturnForms) {
  Program P = parseOK(R"(
    class M {
      Set get() { return s; }
      void stop() { return; }
      Set s;
      void main() { }
    }
  )");
  const CClass *C = P.findClass("M");
  const auto *Get = cast<ReturnStmt>(C->findMethod("get")->Body[0].get());
  EXPECT_NE(Get->Value, nullptr);
  const auto *Stop = cast<ReturnStmt>(C->findMethod("stop")->Body[0].get());
  EXPECT_EQ(Stop->Value, nullptr);
}

TEST(CJParserTest, FieldAssignmentParses) {
  Program P = parseOK(R"(
    class M {
      Set s;
      void main() { this.s = new Set(); s = null; }
    }
  )");
  const CMethod *Main = P.mainMethod();
  ASSERT_EQ(Main->Body.size(), 2u);
  EXPECT_EQ(Main->Body[0]->getKind(), CStmt::Kind::Assign);
}

} // namespace
