//===----------------------------------------------------------------------===//
// Tests for certify() under concurrency and determinism. One call runs
// a rung's units one after another on its caller's thread; separate
// certifiers may certify on separate threads, as perfbench's
// ground-truth pass does on every processor, and so may two calls on
// one certifier. Those threads share the fault-probe state,
// tvp::internLayout's pool and, on one certifier, its store cache, all
// mutex-guarded: every report must equal the serial run's (the tsan
// preset runs these tests). Also:
// store hits reproduce the storeless report under every engine, a
// budgeted ladder degrades identically on every run, and the relational
// TVLA cap/smoothing paths miss no violation the concrete reference
// executor finds.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "../../bench/Suite.h"
#include "client/CFG.h"
#include "client/Parser.h"
#include "core/Evaluation.h"
#include "easl/Builtins.h"
#include "tvla/Certify.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <future>

#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace fs = std::filesystem;

namespace {

/// Several independent methods with different verdict mixes, so the
/// unit order is observable: safe loops, a definite violation, a
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

const EngineKind AllEngines[] = {
    EngineKind::SCMPIntra, EngineKind::GenericAllocSite,
    EngineKind::TVLAIndependent, EngineKind::TVLARelational,
    EngineKind::SCMPInterproc};

/// A store directory of this process: ctest runs test processes in
/// parallel, and they must not share one.
std::string storeDir(const char *Name) {
  return ::testing::TempDir() + "/" + Name + "-" +
         std::to_string(static_cast<long>(::getpid()));
}

struct RunOutput {
  CertificationReport Report;
  std::string Diags;
};

RunOutput certifyClient(EngineKind K, const char *Client,
                        const std::string &StorePath = "") {
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.StorePath = StorePath;
  Certifier C(easl::cmpSpecSource(), K, Diags, {}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  RunOutput Out;
  Out.Report = C.certifySource(Client, Diags);
  Out.Diags = Diags.str();
  return Out;
}

/// The report and the diagnostics of one certify() call, as one string;
/// \p Store, when given, receives the call's store counters.
std::string certifyText(const Certifier &C, const char *Client,
                        store::StoreReport *Store = nullptr) {
  DiagnosticEngine Diags;
  CertificationReport R = C.certifySource(Client, Diags);
  if (Store)
    *Store = std::move(R.Store);
  return R.str() + Diags.str();
}

/// Certifies every suite client under every engine, each engine on a
/// certifier this call generates, as perfbench's ground-truth workers
/// do: the generation diagnostics, then one certifyText() per call.
std::vector<std::string> certifySuiteOnOwnCertifiers() {
  std::vector<std::string> Out;
  for (EngineKind K : AllEngines) {
    DiagnosticEngine Diags;
    const Certifier C(easl::cmpSpecSource(), K, Diags);
    Out.push_back(Diags.str());
    for (const bench::BenchClient &BC : bench::cmpSuite())
      Out.push_back(certifyText(C, BC.Source));
  }
  return Out;
}

class ParallelEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelEngineTest, StoreHitsReproduceTheStorelessReport) {
  const std::string Dir = storeDir("parallel-engine-store");
  fs::remove_all(Dir);
  const unsigned Units = GetParam() == EngineKind::SCMPInterproc ? 1 : 5;
  RunOutput Storeless = certifyClient(GetParam(), MultiMethodClient);
  RunOutput Cold = certifyClient(GetParam(), MultiMethodClient, Dir);
  EXPECT_EQ(Cold.Report.str(), Storeless.Report.str());
  EXPECT_EQ(Cold.Report.Store.Hits, 0u);
  EXPECT_EQ(Cold.Report.Store.Writes, Units);
  // Two warm passes: the second meets what the first wrote back.
  for (int Pass = 1; Pass <= 2; ++Pass) {
    RunOutput Warm = certifyClient(GetParam(), MultiMethodClient, Dir);
    const store::StoreReport &St = Warm.Report.Store;
    EXPECT_EQ(Warm.Report.str(), Storeless.Report.str()) << "pass " << Pass;
    EXPECT_EQ(Warm.Diags, Storeless.Diags) << "pass " << Pass;
    EXPECT_EQ(St.Hits + St.Rejected, Units) << "pass " << Pass;
    // A rejected entry is evicted, re-analyzed and written back.
    EXPECT_EQ(St.Writes, St.Rejected) << "pass " << Pass;
    if (GetParam() != EngineKind::TVLAIndependent) {
      EXPECT_EQ(St.Rejected, 0u) << "pass " << Pass;
      EXPECT_TRUE(St.Incidents.empty()) << "pass " << Pass;
      continue;
    }
    // Known checker bug (ROADMAP.md, item 2): cert::Checker rejects the
    // honest tvla-independent certificate of some methods as "annotation
    // not closed under edge transfer", so the gate refuses that entry
    // on every warm run: it is quarantined, evicted and re-analyzed, and
    // the entry written back is refused again on the next pass.
    ASSERT_EQ(St.Incidents.size(), 2u) << "pass " << Pass;
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
    AllEngines, ParallelEngineTest, ::testing::ValuesIn(AllEngines),
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
  // Too few iterations for the tvla-relational rung on this client: the
  // ladder degrades. A call runs its units in order on one thread, so
  // every run exhausts the budget at the same tick of the same unit and
  // reports the same stages.
  Opts.EngineBudgets[EngineKind::TVLARelational] = {0, 5, 0, 0};
  Certifier C(easl::cmpSpecSource(), EngineKind::TVLARelational, Diags, {},
              Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const CertificationReport R = C.certifySource(MultiMethodClient, Diags);
  EXPECT_TRUE(R.Degraded) << R.str();
  ASSERT_FALSE(R.Stages.empty());
  EXPECT_FALSE(R.Stages.front().Completed);
  EXPECT_GT(R.Stages.front().Spend.Iterations, 0u);
  EXPECT_GT(R.numChecks(), 0u);

  const CertificationReport Again = C.certifySource(MultiMethodClient, Diags);
  EXPECT_EQ(Again.str(), R.str());
  ASSERT_EQ(Again.Stages.size(), R.Stages.size());
  for (size_t I = 0; I != R.Stages.size(); ++I) {
    const StageAttempt &A = R.Stages[I], &B = Again.Stages[I];
    EXPECT_EQ(B.Engine, A.Engine) << "stage " << I;
    EXPECT_EQ(B.FailReason, A.FailReason) << "stage " << I;
    EXPECT_EQ(B.Spend.Iterations, A.Spend.Iterations) << "stage " << I;
    EXPECT_EQ(B.Spend.PeakStructures, A.Spend.PeakStructures)
        << "stage " << I;
  }
}

TEST(ConcurrentCertifiersTest, SuiteReportsMatchTheSerialRun) {
  // Two threads generate their own certifiers and certify the suite
  // under every engine at once; both must reproduce the serial run.
  const std::vector<std::string> Serial = certifySuiteOnOwnCertifiers();
  auto A = std::async(std::launch::async, certifySuiteOnOwnCertifiers);
  auto B = std::async(std::launch::async, certifySuiteOnOwnCertifiers);
  EXPECT_EQ(A.get(), Serial);
  EXPECT_EQ(B.get(), Serial);
}

TEST(ConcurrentCertifiersTest, OneStoreCertifierServesTwoThreads) {
  // Two threads certify the suite on one store-backed certifier at
  // once, sharing its store cache: every report must equal the
  // storeless one, and the store must stay clean enough that a later
  // pass answers every unit from it. (A certifier cannot be copied:
  // its spec owns the statement trees.)
  const std::string Dir = storeDir("concurrent-certifiers-store");
  fs::remove_all(Dir);
  DiagnosticEngine Diags;
  const Certifier Storeless(easl::cmpSpecSource(), EngineKind::SCMPIntra,
                            Diags);
  CertifierOptions Opts;
  Opts.StorePath = Dir;
  const Certifier Stored(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags,
                         {}, Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<std::string> Expected;
  for (const bench::BenchClient &BC : bench::cmpSuite())
    Expected.push_back(certifyText(Storeless, BC.Source));

  struct ThreadRun {
    std::vector<std::string> Texts;
    std::vector<store::StoreReport> Store;
  };
  auto Certify = [&] {
    ThreadRun Out;
    for (const bench::BenchClient &BC : bench::cmpSuite()) {
      Out.Store.emplace_back();
      Out.Texts.push_back(certifyText(Stored, BC.Source, &Out.Store.back()));
    }
    return Out;
  };
  std::future<ThreadRun> Runs[2] = {std::async(std::launch::async, Certify),
                                    std::async(std::launch::async, Certify)};
  for (int T = 0; T != 2; ++T) {
    const ThreadRun R = Runs[T].get();
    EXPECT_EQ(R.Texts, Expected) << "thread " << T;
    for (const store::StoreReport &St : R.Store) {
      EXPECT_TRUE(St.Enabled);
      EXPECT_EQ(St.Rejected, 0u);
      EXPECT_EQ(St.Quarantined, 0u);
      EXPECT_TRUE(St.Incidents.empty())
          << St.Incidents.front().Kind << ": " << St.Incidents.front().Detail;
    }
  }

  for (size_t I = 0; I != Expected.size(); ++I) {
    store::StoreReport St;
    EXPECT_EQ(certifyText(Stored, bench::cmpSuite()[I].Source, &St),
              Expected[I]);
    EXPECT_EQ(St.Misses, 0u) << bench::cmpSuite()[I].Name;
  }
  fs::remove_all(Dir);
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
