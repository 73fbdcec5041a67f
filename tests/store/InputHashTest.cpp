//===----------------------------------------------------------------------===//
// Input hashing for the persistent certificate store: determinism,
// context separation, and the incremental property — a local edit
// re-keys exactly the edited method plus every (transitive) caller,
// and nothing else.
//===----------------------------------------------------------------------===//

#include "store/InputHash.h"

#include "client/Parser.h"
#include "easl/Builtins.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::store;

namespace {

struct Built {
  cj::Program Prog;
  easl::Spec Spec;
  cj::ClientCFG CFG;
};

Built build(const char *ClientSrc) {
  Built B;
  B.Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  B.Prog = cj::parseProgram(ClientSrc, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  B.CFG = cj::buildCFG(B.Prog, B.Spec, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return B;
}

constexpr uint64_t Ctx = 0xABCDEF0123456789ull;

/// Two methods with no call edge between them: the independence
/// baseline.
const char *TwoIndependent = R"(
  class M {
    void main() {
      Set v = new Set();
      v.add();
    }
    void other() {
      Set w = new Set();
      Iterator i = w.iterator();
      i.next();
    }
  }
)";

/// TwoIndependent with main() edited in place — same lines, same
/// columns for everything else, so other()'s recorded source positions
/// (part of its key) are untouched.
const char *TwoIndependentMainEdited = R"(
  class M {
    void main() {
      Set v = new Set();
      v.add(); v.add();
    }
    void other() {
      Set w = new Set();
      Iterator i = w.iterator();
      i.next();
    }
  }
)";

/// main -> mutate call edge: the propagation baseline.
const char *CallerCallee = R"(
  class M {
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      mutate(v);
      i.next();
    }
    void mutate(Set s) { s.add(); }
  }
)";

TEST(InputHashTest, SameSourceSameHashes) {
  Built A = build(TwoIndependent);
  Built B = build(TwoIndependent);
  std::map<std::string, uint64_t> HA = methodInputHashes(A.CFG, Ctx);
  EXPECT_EQ(HA, methodInputHashes(B.CFG, Ctx));
  ASSERT_TRUE(HA.count("M::main"));
  ASSERT_TRUE(HA.count("M::other"));
  EXPECT_NE(HA.at("M::main"), HA.at("M::other"));
  EXPECT_EQ(programInputHash(A.CFG, Ctx), programInputHash(B.CFG, Ctx));
}

TEST(InputHashTest, ContextSeparatesOtherwiseIdenticalPrograms) {
  Built A = build(TwoIndependent);
  std::map<std::string, uint64_t> H1 = methodInputHashes(A.CFG, Ctx);
  std::map<std::string, uint64_t> H2 = methodInputHashes(A.CFG, Ctx + 1);
  ASSERT_EQ(H1.size(), H2.size());
  for (const auto &[Method, Hash] : H1)
    EXPECT_NE(Hash, H2.at(Method)) << Method;
  EXPECT_NE(programInputHash(A.CFG, Ctx), programInputHash(A.CFG, Ctx + 1));
  // Every context ingredient separates: spec hash, abstraction, engine.
  EXPECT_NE(contextFingerprint(1, "abs", "scmp-intra"),
            contextFingerprint(2, "abs", "scmp-intra"));
  EXPECT_NE(contextFingerprint(1, "abs", "scmp-intra"),
            contextFingerprint(1, "abs2", "scmp-intra"));
  EXPECT_NE(contextFingerprint(1, "abs", "scmp-intra"),
            contextFingerprint(1, "abs", "scmp-interproc"));
}

TEST(InputHashTest, LocalEditChangesOnlyTheEditedMethod) {
  Built A = build(TwoIndependent);
  // Edit main() only (no call edges exist), without shifting other()'s
  // source positions — locations are deliberately part of a method's
  // key (a served entry replays its recorded locations verbatim):
  // other() keeps its key even though the program hash changes.
  Built B = build(TwoIndependentMainEdited);
  std::map<std::string, uint64_t> HA = methodInputHashes(A.CFG, Ctx);
  std::map<std::string, uint64_t> HB = methodInputHashes(B.CFG, Ctx);
  EXPECT_NE(HA.at("M::main"), HB.at("M::main"));
  EXPECT_EQ(HA.at("M::other"), HB.at("M::other"));
  EXPECT_NE(programInputHash(A.CFG, Ctx), programInputHash(B.CFG, Ctx));
}

TEST(InputHashTest, CallerTracksCalleeEdit) {
  Built A = build(CallerCallee);
  // Edit mutate() only: its own key changes AND main()'s key changes
  // (main's analysis descends into the callee's body), though the
  // textual main() is untouched.
  Built B = build(R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); s.add(); }
    }
  )");
  std::map<std::string, uint64_t> HA = methodInputHashes(A.CFG, Ctx);
  std::map<std::string, uint64_t> HB = methodInputHashes(B.CFG, Ctx);
  ASSERT_TRUE(HA.count("M::mutate"));
  EXPECT_NE(HA.at("M::mutate"), HB.at("M::mutate"));
  EXPECT_NE(HA.at("M::main"), HB.at("M::main"));
}

TEST(InputHashTest, MutualRecursionIsDeterministicAndEditsPropagate) {
  const char *Rec = R"(
    class M {
      void main() {
        Set v = new Set();
        ping(v);
      }
      void ping(Set s) {
        if (*) { pong(s); }
      }
      void pong(Set s) {
        s.add();
        if (*) { ping(s); }
      }
    }
  )";
  Built A = build(Rec);
  Built B = build(Rec);
  EXPECT_EQ(methodInputHashes(A.CFG, Ctx), methodInputHashes(B.CFG, Ctx));
  // Edit inside the cycle: every member of the cycle (and main, the
  // caller above it) re-keys.
  Built C = build(R"(
    class M {
      void main() {
        Set v = new Set();
        ping(v);
      }
      void ping(Set s) {
        if (*) { pong(s); }
      }
      void pong(Set s) {
        s.add();
        s.add();
        if (*) { ping(s); }
      }
    }
  )");
  std::map<std::string, uint64_t> HA = methodInputHashes(A.CFG, Ctx);
  std::map<std::string, uint64_t> HC = methodInputHashes(C.CFG, Ctx);
  EXPECT_NE(HA.at("M::pong"), HC.at("M::pong"));
  EXPECT_NE(HA.at("M::ping"), HC.at("M::ping"));
  EXPECT_NE(HA.at("M::main"), HC.at("M::main"));
}

} // namespace
