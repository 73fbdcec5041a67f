//===----------------------------------------------------------------------===//
// Tests for the parallel certification fan-out: a rung's units run
// concurrently on a bounded task pool, and the merged report must be
// byte-identical to the serial run for every worker count, with or
// without units answered from the certificate store. Also differential
// soundness of the relational TVLA cap/smoothing paths against the
// concrete reference executor.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "client/CFG.h"
#include "client/Parser.h"
#include "core/Evaluation.h"
#include "easl/Builtins.h"
#include "tvla/Certify.h"

#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace fs = std::filesystem;

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
                             const std::string &StorePath = "") {
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.Workers = Workers;
  Opts.StorePath = StorePath;
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

TEST_P(ParallelEngineTest, StoreHitsReproduceTheStorelessReport) {
  // Per-process dir: parallel ctest processes race on a shared path.
  const std::string Dir = ::testing::TempDir() + "/parallel-engine-store-" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(Dir);
  const unsigned Units = GetParam() == EngineKind::SCMPInterproc ? 1 : 5;
  RunOutput Storeless = certifyWithWorkers(GetParam(), MultiMethodClient, 1);
  RunOutput Cold = certifyWithWorkers(GetParam(), MultiMethodClient, 1, Dir);
  EXPECT_EQ(Cold.Report.str(), Storeless.Report.str());
  EXPECT_EQ(Cold.Report.Store.Hits, 0u);
  EXPECT_EQ(Cold.Report.Store.Writes, Units);
  for (unsigned Workers : {1u, 4u}) {
    RunOutput Warm =
        certifyWithWorkers(GetParam(), MultiMethodClient, Workers, Dir);
    const store::StoreReport &St = Warm.Report.Store;
    EXPECT_EQ(Warm.Report.str(), Storeless.Report.str())
        << "workers=" << Workers;
    EXPECT_EQ(Warm.Diags, Storeless.Diags) << "workers=" << Workers;
    EXPECT_EQ(St.Hits + St.Rejected, Units) << "workers=" << Workers;
    // A rejected entry is evicted, re-analyzed and written back.
    EXPECT_EQ(St.Writes, St.Rejected) << "workers=" << Workers;
    if (GetParam() != EngineKind::TVLAIndependent) {
      EXPECT_EQ(St.Rejected, 0u) << "workers=" << Workers;
      EXPECT_TRUE(St.Incidents.empty()) << "workers=" << Workers;
      continue;
    }
    // Known checker bug (ROADMAP.md, item 2): cert::Checker rejects the
    // honest tvla-independent certificate of some methods as "annotation
    // not closed under edge transfer", so the gate refuses that entry
    // on every warm run: it is quarantined, evicted and re-analyzed.
    ASSERT_EQ(St.Incidents.size(), 2u) << "workers=" << Workers;
    EXPECT_EQ(St.Incidents[0].Kind, "StoreEntryInvalid");
    EXPECT_EQ(St.Incidents[1].Kind, "StoreQuarantine");
    for (const store::StoreIncident &I : St.Incidents) {
      EXPECT_EQ(I.Unit, "Multi::branchy");
      EXPECT_NE(I.Detail.find("annotation not closed under edge transfer"),
                std::string::npos)
          << I.Detail;
    }
  }
  fs::remove_all(Dir);
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
  // Differential validation of the relational TVLA engine against the
  // concrete executor: however much precision the cap path gives up, it
  // must never un-flag a real violation (Missed > 0 would be a soundness
  // bug — exactly what the stale-canonical-key bug caused). The executor
  // runs once per client; every cap is judged against its answer.
  easl::Spec Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  for (const char *Client : {SmoothingClient, MultiMethodClient}) {
    cj::Program P = cj::parseProgram(Client, Diags);
    cj::ClientCFG CFG = cj::buildCFG(P, Spec, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    ASSERT_NE(CFG.mainCFG(), nullptr);
    const GroundTruth GT = executeConcretely(Spec, CFG, *CFG.mainCFG());
    for (unsigned Cap : {1u, 2u, 256u}) {
      tvla::TVLAOptions TO;
      TO.Relational = true;
      TO.MaxStructuresPerPoint = Cap;
      CertificationReport R;
      for (const cj::CFGMethod &M : CFG.Methods) {
        tvla::TVLAResult TR = tvla::certifyWithTVLA(Spec, Abs, M, TO, Diags);
        for (const auto &C : TR.Checks) {
          CheckRecord Rec;
          Rec.Method = M.name();
          Rec.Loc = C.Loc;
          Rec.What = C.What;
          Rec.Outcome = C.Outcome;
          R.Checks.push_back(std::move(Rec));
        }
      }
      SiteComparison Cmp = compareWithGroundTruth(R, CFG, GT);
      EXPECT_EQ(Cmp.Missed, 0u)
          << "cap=" << Cap << "\n" << Cmp.str() << R.str();
    }
  }
}

} // namespace
