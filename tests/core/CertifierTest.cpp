//===----------------------------------------------------------------------===//
// Tests for the public Certifier API, the concrete reference
// interpreter, and the Section 3 generic allocation-site baseline.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "client/CFG.h"
#include "core/GenericBaseline.h"
#include "core/Interpreter.h"
#include "easl/Builtins.h"

#include "../../bench/Suite.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace canvas;
using namespace canvas::core;

namespace {

const char *Fig3Client = R"(
  class Fig3 {
    void main() {
      Set v = new Set();
      Iterator i1 = v.iterator();
      Iterator i2 = v.iterator();
      Iterator i3 = i1;
      i1.next();
      i1.remove();
      if (*) { i2.next(); }
      if (*) { i3.next(); }
      v.add();
      if (*) { i1.next(); }
    }
  }
)";

const char *VersionedLoopClient = R"(
  class Loop {
    void main() {
      Set s = new Set();
      while (*) {
        s.add();
        Iterator i = s.iterator();
        while (*) { i.next(); }
      }
    }
  }
)";

CertificationReport runEngine(EngineKind K, const char *Client) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  CertificationReport R = C.certifySource(Client, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

TEST(CertifierTest, SCMPIntraOnFig3) {
  CertificationReport R = runEngine(EngineKind::SCMPIntra, Fig3Client);
  EXPECT_EQ(R.numChecks(), 5u);
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
  EXPECT_EQ(R.numVerified(), 3u);
}

TEST(CertifierTest, InterprocOnFig3MatchesIntra) {
  CertificationReport R = runEngine(EngineKind::SCMPInterproc, Fig3Client);
  EXPECT_EQ(R.numChecks(), 5u);
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
}

TEST(CertifierTest, BaselineFalseAlarmsOnVersionedLoop) {
  // Section 3: the allocation-site analysis cannot distinguish versions
  // allocated inside the loop, so it flags the (actually safe) loop;
  // the staged certifier verifies it.
  CertificationReport Generic =
      runEngine(EngineKind::GenericAllocSite, VersionedLoopClient);
  CertificationReport Staged =
      runEngine(EngineKind::SCMPIntra, VersionedLoopClient);
  EXPECT_GT(Generic.numFlagged(), 0u) << Generic.str();
  EXPECT_EQ(Staged.numFlagged(), 0u) << Staged.str();
}

TEST(CertifierTest, BaselineAgreesOnStraightLineErrors) {
  const char *Bad = R"(
    class Bad {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        s.add();
        i.next();
      }
    }
  )";
  CertificationReport Generic = runEngine(EngineKind::GenericAllocSite, Bad);
  EXPECT_EQ(Generic.numFlagged(), 1u) << Generic.str();
}

TEST(CertifierTest, EngineNamesAreStable) {
  EXPECT_STREQ(engineName(EngineKind::SCMPIntra), "scmp-intra");
  EXPECT_STREQ(engineName(EngineKind::TVLARelational), "tvla-relational");
}

TEST(CertifierTest, ReportRenders) {
  CertificationReport R = runEngine(EngineKind::SCMPIntra, Fig3Client);
  std::string S = R.str();
  EXPECT_NE(S.find("verified"), std::string::npos);
  EXPECT_NE(S.find("VIOLATION"), std::string::npos);
  EXPECT_NE(S.find("5 check(s)"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// Concrete reference interpreter (ground truth)
//===----------------------------------------------------------------------===//

struct GT {
  easl::Spec Spec;
  cj::Program Prog;
  cj::ClientCFG CFG;
  GroundTruth Truth;
};

std::unique_ptr<GT> ground(const char *ClientSrc) {
  auto G = std::make_unique<GT>();
  G->Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  G->Prog = cj::parseProgram(ClientSrc, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  G->CFG = cj::buildCFG(G->Prog, G->Spec, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  G->Truth = executeConcretely(G->Spec, G->CFG, *G->CFG.mainCFG());
  return G;
}

unsigned violations(const GroundTruth &T) {
  unsigned N = 0;
  for (const auto &[Site, V] : T.MayViolate)
    N += V;
  return N;
}

TEST(InterpreterTest, Fig3GroundTruth) {
  auto G = ground(Fig3Client);
  EXPECT_TRUE(G->Truth.Exhaustive);
  // Exactly the two real CMEs of Fig. 3 (i2.next and the final i1.next).
  EXPECT_EQ(G->Truth.MayViolate.size(), 5u);
  EXPECT_EQ(violations(G->Truth), 2u);
}

TEST(InterpreterTest, SafeProgramHasNoViolations) {
  auto G = ground(R"(
    class OK {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        i.next();
        i.remove();
        i.next();
      }
    }
  )");
  EXPECT_TRUE(G->Truth.Exhaustive);
  EXPECT_EQ(violations(G->Truth), 0u);
}

TEST(InterpreterTest, LoopsBoundedExploration) {
  auto G = ground(VersionedLoopClient);
  // The loop makes exhaustive exploration impossible within bounds, but
  // no explored path violates.
  EXPECT_EQ(violations(G->Truth), 0u);
  EXPECT_GT(G->Truth.PathsExplored, 1u);
}

TEST(InterpreterTest, InterproceduralGroundTruth) {
  auto G = ground(R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); }
    }
  )");
  EXPECT_TRUE(G->Truth.Exhaustive);
  EXPECT_EQ(violations(G->Truth), 1u);
}

TEST(InterpreterTest, StaticCertifierIsSoundOnFig3) {
  // Every ground-truth violation must be flagged by the certifier
  // (soundness), and on Fig. 3 the certifier is also exact.
  auto G = ground(Fig3Client);
  CertificationReport R = runEngine(EngineKind::SCMPIntra, Fig3Client);
  EXPECT_EQ(R.numFlagged(), violations(G->Truth));
}

//===----------------------------------------------------------------------===//
// TVLA engines through the Certifier API
//===----------------------------------------------------------------------===//

TEST(CertifierTest, TVLAIndependentOnFig3) {
  CertificationReport R = runEngine(EngineKind::TVLAIndependent, Fig3Client);
  EXPECT_EQ(R.numChecks(), 5u) << R.str();
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
}

TEST(CertifierTest, TVLARelationalOnFig3) {
  CertificationReport R = runEngine(EngineKind::TVLARelational, Fig3Client);
  EXPECT_EQ(R.numChecks(), 5u) << R.str();
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
}

TEST(CertifierTest, TVLACertifiesVersionedLoop) {
  for (EngineKind K :
       {EngineKind::TVLAIndependent, EngineKind::TVLARelational}) {
    CertificationReport R = runEngine(K, VersionedLoopClient);
    EXPECT_EQ(R.numFlagged(), 0u) << engineName(K) << "\n" << R.str();
  }
}

TEST(CertifierTest, RelationalHasNoPrecisionAdvantageOnBenchmarks) {
  // The Section 7 empirical finding: the relational TVLA configuration
  // had no precision advantage over the independent-attribute one.
  for (const char *Client : {Fig3Client, VersionedLoopClient}) {
    CertificationReport Ind = runEngine(EngineKind::TVLAIndependent, Client);
    CertificationReport Rel = runEngine(EngineKind::TVLARelational, Client);
    EXPECT_EQ(Ind.numFlagged(), Rel.numFlagged());
  }
}

//===----------------------------------------------------------------------===//
// Slicing outcomes through the Certifier API
//===----------------------------------------------------------------------===//

const char *StashClient = R"(
  class Stash {
    Set s;
  }
  class C {
    void main() {
      Stash h = new Stash();
      Set a = new Set();
      h.s = a;
      Iterator i = a.iterator();
      i.next();
      Set b = new Set();
      Iterator j = b.iterator();
      j.next();
    }
  }
)";

TEST(CertifierTest, ForcedSingleReasonSurfacesInReport) {
  // The heap store forces main() into one slice and the report says
  // why.
  CertificationReport R = runEngine(EngineKind::SCMPIntra, StashClient);
  ASSERT_FALSE(R.SliceSummaries.empty());
  EXPECT_EQ(R.SliceSummaries[0].Method, "C::main");
  EXPECT_EQ(R.SliceSummaries[0].Slices, 1u);
  EXPECT_NE(R.SliceSummaries[0].ForcedSingleReason.find("heap"),
            std::string::npos);
  EXPECT_NE(R.str().find("single slice (heap component references)"),
            std::string::npos)
      << R.str();
}

TEST(CertifierTest, InterprocFlagsNothingIntraProvesOnGrinder) {
  // grinder has one method and no client calls, so the interprocedural
  // engine sees exactly what the intraprocedural one sees. Both must
  // kill a checked variable past its check (the requires clause held),
  // or the interprocedural engine flags k.remove() in the inner loop.
  const char *Grinder = nullptr;
  for (const bench::BenchClient &BC : bench::cmpSuite())
    if (std::strcmp(BC.Name, "grinder") == 0)
      Grinder = BC.Source;
  ASSERT_NE(Grinder, nullptr);
  CertifierOptions Opts;
  Opts.EmitCertificates = Opts.CheckCertificates = true;
  auto Run = [&](EngineKind K) {
    DiagnosticEngine Diags;
    Certifier C(easl::cmpSpecSource(), K, Diags, {}, Opts);
    CertificationReport R = C.certifySource(Grinder, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    // Degradation would mean a rung failed, e.g. its certificate was
    // rejected by the checker.
    EXPECT_FALSE(R.Degraded) << R.str();
    EXPECT_TRUE(R.CertStats.Checked);
    return R;
  };
  const CertificationReport Intra = Run(EngineKind::SCMPIntra);
  const CertificationReport Inter = Run(EngineKind::SCMPInterproc);
  ASSERT_EQ(Intra.Checks.size(), Inter.Checks.size());
  auto Proven = [](CheckOutcome O) {
    return O == CheckOutcome::Safe || O == CheckOutcome::Unreachable;
  };
  unsigned IntraProven = 0;
  for (const CheckVerdict &A : Intra.Checks) {
    IntraProven += Proven(A.Outcome);
    for (const CheckVerdict &B : Inter.Checks) {
      if (B.Loc.Line == A.Loc.Line && B.Loc.Col == A.Loc.Col &&
          B.What == A.What && Proven(A.Outcome)) {
        EXPECT_TRUE(Proven(B.Outcome))
            << A.Loc.str() << " " << A.What << ": scmp-intra proves it, "
            << "scmp-interproc reports " << outcomeStr(B.Outcome);
      }
    }
  }
  EXPECT_GT(IntraProven, 0u);
}

} // namespace
