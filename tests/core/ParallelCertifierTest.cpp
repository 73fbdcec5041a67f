//===----------------------------------------------------------------------===//
// Tests for the parallel certification fan-out: per-method analyses run
// concurrently on a bounded task pool, and the merged report must be
// byte-identical to the serial run for every worker count. Also
// differential soundness of the relational TVLA cap/smoothing paths
// against the concrete reference executor.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "client/Parser.h"
#include "core/Evaluation.h"
#include "easl/Builtins.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::core;

namespace {

/// Several independent methods with different verdict mixes, so the
/// merge order is observable: safe loops, a definite violation, a
/// potential one, and an uninitialized-use lint.
const char *MultiMethodClient = R"(
  class Multi {
    void safeLoop() {
      Set s = new Set();
      while (*) {
        s.add();
        Iterator i = s.iterator();
        while (*) { i.next(); }
      }
    }
    void buggy() {
      Set s = new Set();
      Iterator i = s.iterator();
      s.add();
      i.next();
    }
    void branchy() {
      Set s = new Set();
      Iterator i = s.iterator();
      if (*) { s.add(); }
      i.next();
    }
    void twoIters() {
      Set s = new Set();
      Iterator i = s.iterator();
      Iterator j = s.iterator();
      i.next();
      j.next();
      i.remove();
      if (*) { j.next(); }
    }
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      i.next();
    }
  }
)";

/// Heavy use of iterator refresh under branches: the relational engine
/// hits both the points-to smoothing path and (under a small cap) the
/// overflow-join path.
const char *SmoothingClient = R"(
  class Smoothy {
    void main() {
      Set s = new Set();
      Iterator i = s.iterator();
      Iterator j = s.iterator();
      while (*) {
        if (*) { i = s.iterator(); }
        if (*) { j = s.iterator(); }
        i.next();
        if (*) { s.add(); }
        j.next();
      }
    }
  }
)";

struct RunOutput {
  CertificationReport Report;
  std::string Diags;
};

RunOutput certifyWithWorkers(EngineKind K, const char *Client,
                             unsigned Workers,
                             unsigned TVLACap = 256) {
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.Workers = Workers;
  Opts.TVLAMaxStructuresPerPoint = TVLACap;
  Certifier C(easl::cmpSpecSource(), K, Diags, {}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  RunOutput Out;
  Out.Report = C.certifySource(Client, Diags);
  Out.Diags = Diags.str();
  return Out;
}

class ParallelEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelEngineTest, ReportIsByteIdenticalForAnyWorkerCount) {
  RunOutput Serial = certifyWithWorkers(GetParam(), MultiMethodClient, 1);
  for (unsigned Workers : {2u, 3u, 8u}) {
    RunOutput Par = certifyWithWorkers(GetParam(), MultiMethodClient, Workers);
    EXPECT_EQ(Serial.Report.str(), Par.Report.str())
        << "workers=" << Workers;
    EXPECT_EQ(Serial.Diags, Par.Diags) << "workers=" << Workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ParallelEngineTest,
    ::testing::Values(EngineKind::SCMPIntra, EngineKind::GenericAllocSite,
                      EngineKind::TVLAIndependent,
                      EngineKind::TVLARelational, EngineKind::SCMPInterproc),
    [](const ::testing::TestParamInfo<EngineKind> &Info) {
      std::string Name = engineName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(ParallelCertifierTest, BudgetExhaustionUnderParallelDegrades) {
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.Workers = 4;
  // Too few iterations for any TVLA/interproc rung on this client; the
  // ladder must degrade without crashing or deadlocking, and the shared
  // token's spend must reflect the concurrent ticks.
  Opts.EngineBudgets[EngineKind::TVLARelational] = {0, 5, 0, 0};
  Certifier C(easl::cmpSpecSource(), EngineKind::TVLARelational, Diags, {},
              Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  CertificationReport R = C.certifySource(MultiMethodClient, Diags);
  EXPECT_TRUE(R.Degraded) << R.str();
  ASSERT_FALSE(R.Stages.empty());
  EXPECT_FALSE(R.Stages.front().Completed);
  EXPECT_GT(R.Stages.front().Spend.Iterations, 0u);
  EXPECT_GT(R.numChecks(), 0u);
}

TEST(ParallelCertifierTest, TinyTVLACapHasNoMissedViolations) {
  // Differential validation against the concrete executor: however much
  // precision the cap path gives up, it must never un-flag a real
  // violation (Missed > 0 would be a soundness bug — exactly what the
  // stale-canonical-key bug caused).
  easl::Spec Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  for (const char *Client : {SmoothingClient, MultiMethodClient}) {
    DiagnosticEngine Diags;
    cj::Program P = cj::parseProgram(Client, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    for (unsigned Cap : {1u, 2u, 256u}) {
      CertifierOptions Opts;
      Opts.Workers = 2;
      Opts.TVLAMaxStructuresPerPoint = Cap;
      DiagnosticEngine CDiags;
      Certifier C(easl::cmpSpecSource(), EngineKind::TVLARelational, CDiags,
                  {}, Opts);
      ASSERT_FALSE(CDiags.hasErrors()) << CDiags.str();
      CertificationReport R = C.certify(P, CDiags);
      SiteComparison Cmp = compareWithGroundTruth(R, Spec, P);
      EXPECT_EQ(Cmp.Missed, 0u)
          << "cap=" << Cap << "\n" << Cmp.str() << R.str();
    }
  }
}

} // namespace
