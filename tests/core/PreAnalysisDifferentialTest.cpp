//===----------------------------------------------------------------------===//
// Differential tests for the SCMPIntra engine's one path. Every verdict
// (method, location, text, outcome, and witness text) must equal what
// the unpartitioned boolean program yields when it is built, analyzed,
// and read for witnesses directly — with certificates off, and with
// certificates emitted and checked. The partitioned build must keep the
// unpartitioned check list, a Definite kill in one slice must truncate
// the paths of another, and the Stage-0 lint must fire with exact
// locations.
//===----------------------------------------------------------------------===//

#include "boolprog/Witness.h"
#include "core/Certifier.h"
#include "dataflow/PreAnalysis.h"
#include "easl/Builtins.h"
#include "shard/Corpus.h"

#include "../../bench/Suite.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace {

const EngineKind AllEngines[] = {
    EngineKind::SCMPIntra, EngineKind::SCMPInterproc,
    EngineKind::GenericAllocSite, EngineKind::TVLAIndependent,
    EngineKind::TVLARelational};

CertificationReport certifyWith(const std::string &Source, EngineKind K,
                                const CertifierOptions &Opts = {}) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags, {}, Opts);
  CertificationReport R = C.certifySource(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

/// The verdicts of the unpartitioned boolean program of every method,
/// built, analyzed and read for witnesses directly.
std::vector<CheckVerdict> referenceVerdicts(const wp::DerivedAbstraction &Abs,
                                            const cj::ClientCFG &CFG) {
  std::vector<CheckVerdict> Out;
  for (const cj::CFGMethod &M : CFG.Methods) {
    DiagnosticEngine D;
    const bp::BooleanProgram BP = bp::buildBooleanProgram(Abs, M, D);
    const bp::IntraResult R = bp::analyzeIntraproc(BP);
    std::vector<WitnessTrace> Witnesses;
    if (R.numFlagged())
      Witnesses = bp::intraWitnesses(BP, R);
    for (size_t I = 0; I != BP.Checks.size(); ++I) {
      CheckVerdict V;
      V.Method = M.name();
      V.Loc = BP.Checks[I].Loc;
      V.What = BP.Checks[I].What;
      V.Outcome = R.CheckResults[I];
      if (!Witnesses.empty())
        V.Witness = std::move(Witnesses[I]);
      Out.push_back(std::move(V));
    }
  }
  return Out;
}

void expectSameVerdicts(const std::vector<CheckVerdict> &Got,
                        const std::vector<CheckVerdict> &Ref,
                        const std::string &Label) {
  ASSERT_EQ(Got.size(), Ref.size()) << Label;
  for (size_t I = 0; I != Got.size(); ++I) {
    const CheckVerdict &A = Got[I];
    const CheckVerdict &B = Ref[I];
    EXPECT_EQ(A.Method, B.Method) << Label << " check " << I;
    EXPECT_EQ(A.Loc.Line, B.Loc.Line) << Label << " check " << I;
    EXPECT_EQ(A.Loc.Col, B.Loc.Col) << Label << " check " << I;
    EXPECT_EQ(A.What, B.What) << Label << " check " << I;
    EXPECT_EQ(A.Outcome, B.Outcome) << Label << " check " << I;
    EXPECT_EQ(A.Witness.str(), B.Witness.str()) << Label << " check " << I;
  }
}

/// What one client contributed to a differential run.
struct DiffStats {
  unsigned MultiSliceMethods = 0;
  /// Multi-slice methods with a Definite verdict.
  unsigned MultiSliceDefinite = 0;
  size_t PartitionedBoolVars = 0;
  size_t UnpartitionedBoolVars = 0;
};

/// Certifies \p Source with SCMPIntra twice — certificates off, then
/// emitted and checked — and compares both against the direct
/// unpartitioned reference. Also compares, for every method that
/// splits, the partitioned build's check list with the unpartitioned
/// one in every field except Var.
DiffStats differential(const std::string &Label, const std::string &Source) {
  DiffStats St;
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags);
  cj::Program P = cj::parseProgram(Source, Diags);
  cj::ClientCFG CFG = cj::buildCFG(P, C.spec(), Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Label << ": " << Diags.str();
  const std::vector<CheckVerdict> Ref = referenceVerdicts(C.abstraction(), CFG);

  for (bool Emit : {false, true}) {
    CertifierOptions Opts;
    Opts.Workers = 1;
    Opts.EmitCertificates = Emit;
    Opts.CheckCertificates = Emit;
    const std::string Mode = Label + (Emit ? " [certificates]" : "");
    CertificationReport R = certifyWith(Source, EngineKind::SCMPIntra, Opts);
    EXPECT_FALSE(R.Degraded) << Mode << "\n" << R.str();
    EXPECT_EQ(R.Pre.SliceRuns, CFG.Methods.size()) << Mode;
    expectSameVerdicts(R.Checks, Ref, Mode);
    if (!Emit) {
      St.MultiSliceMethods = R.Pre.MultiSliceMethods;
      St.PartitionedBoolVars = R.BoolVars;
    }
  }

  dataflow::PreAnalysisResult PA = dataflow::preAnalyze(CFG, C.abstraction());
  for (const dataflow::MethodPlan &Plan : PA.Plans) {
    DiagnosticEngine D;
    const cj::CFGMethod &M = *Plan.Source;
    const bp::BooleanProgram Whole =
        bp::buildBooleanProgram(C.abstraction(), M, D);
    St.UnpartitionedBoolVars += Whole.Vars.size();
    if (!Plan.multiSlice())
      continue;
    for (const CheckVerdict &V : Ref)
      if (V.Method == M.name() && V.Outcome == CheckOutcome::Definite) {
        ++St.MultiSliceDefinite;
        break;
      }
    const bp::BooleanProgram Parts =
        bp::buildBooleanProgram(C.abstraction(), M, D, Plan.Slices);
    EXPECT_LT(Parts.Vars.size(), Whole.Vars.size()) << Label << " " << M.name();
    if (Parts.Checks.size() != Whole.Checks.size()) {
      ADD_FAILURE() << Label << " " << M.name() << ": "
                    << Parts.Checks.size() << " partitioned check(s), "
                    << Whole.Checks.size() << " unpartitioned";
      continue;
    }
    for (size_t I = 0; I != Parts.Checks.size(); ++I) {
      const bp::Check &A = Parts.Checks[I];
      const bp::Check &B = Whole.Checks[I];
      const std::string At = Label + " " + M.name() + " check " +
                             std::to_string(I);
      EXPECT_EQ(A.Edge, B.Edge) << At;
      EXPECT_EQ(A.ConstantViolated, B.ConstantViolated) << At;
      EXPECT_EQ(A.Loc.str(), B.Loc.str()) << At;
      EXPECT_EQ(A.ReqLoc.str(), B.ReqLoc.str()) << At;
      EXPECT_EQ(A.What, B.What) << At;
    }
  }
  return St;
}

// Every suite client and every alias-suite client gets the
// unpartitioned program's verdicts and witnesses.
TEST(PreAnalysisDifferentialTest, SCMPIntraVerdictsUnchangedOnSuite) {
  unsigned MultiSlice = 0;
  for (const bench::BenchClient &BC : bench::cmpSuite())
    MultiSlice += differential(BC.Name, BC.Source).MultiSliceMethods;
  for (const bench::BenchClient &BC : bench::aliasSuite())
    MultiSlice += differential(BC.Name, BC.Source).MultiSliceMethods;
  EXPECT_GE(MultiSlice, 3u);
}

// The first 60 clients of corpus seeds 7 and 1.
TEST(PreAnalysisDifferentialTest, CorpusVerdictsMatchUnpartitionedReference) {
  unsigned MultiSliceDefinite = 0;
  for (unsigned Seed : {7u, 1u}) {
    const std::string Dir = ::testing::TempDir() + "/preanalysis-diff-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(Seed);
    std::string Error;
    std::vector<shard::CorpusClient> Corpus;
    ASSERT_TRUE(shard::generateCorpus(Dir, 60, Seed, Error)) << Error;
    ASSERT_TRUE(shard::loadCorpus(Dir, Corpus, Error)) << Error;
    std::filesystem::remove_all(Dir);
    for (const shard::CorpusClient &Client : Corpus) {
      MultiSliceDefinite +=
          differential("seed " + std::to_string(Seed) + " " + Client.Name,
                       Client.Source)
              .MultiSliceDefinite;
    }
  }
  // Definite kills inside partitioned programs are exercised, not
  // just possible.
  EXPECT_GT(MultiSliceDefinite, 0u);
}

// K independent pipelines of M iterators split into K slices.
TEST(PreAnalysisDifferentialTest, PipelineClientsMatchReference) {
  const std::pair<unsigned, unsigned> Shapes[] = {{2, 2}, {4, 4}, {8, 4}};
  for (const auto &[K, M] : Shapes) {
    const std::string Label =
        "pipelines " + std::to_string(K) + "x" + std::to_string(M);
    DiffStats St = differential(Label, bench::pipelinesClient(K, M));
    EXPECT_EQ(St.MultiSliceMethods, 1u) << Label;
    EXPECT_LT(St.PartitionedBoolVars, St.UnpartitionedBoolVars) << Label;
  }
}

// The multi-slice suite client really splits, one boolean program per
// method is analyzed, and the partitioned program is smaller.
TEST(PreAnalysisDifferentialTest, FourPipelinesSlicesAndShrinks) {
  const bench::BenchClient *Four = nullptr;
  for (const bench::BenchClient &BC : bench::cmpSuite())
    if (std::strcmp(BC.Name, "four-pipelines") == 0)
      Four = &BC;
  ASSERT_NE(Four, nullptr);

  DiffStats St = differential(Four->Name, Four->Source);
  EXPECT_GE(St.MultiSliceMethods, 1u);
  EXPECT_LT(St.PartitionedBoolVars, St.UnpartitionedBoolVars);
}

// A definite violation in one slice kills the continuing edge for every
// slice: the other pipeline's later check is unreachable, exactly as in
// the unpartitioned program.
TEST(PreAnalysisDifferentialTest, DefiniteKillInOneSliceTruncatesAnother) {
  const char *Source = R"(
    class Bad {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        s.add();
        i.next();
        Set t = new Set();
        Iterator j = t.iterator();
        j.next();
      }
    }
  )";
  DiffStats St = differential("definite-kill", Source);
  EXPECT_EQ(St.MultiSliceDefinite, 1u);
  CertificationReport R = certifyWith(Source, EngineKind::SCMPIntra);
  bool SawDefinite = false, SawTruncated = false;
  for (const CheckVerdict &V : R.Checks) {
    SawDefinite |= V.Outcome == CheckOutcome::Definite;
    SawTruncated |= V.What.rfind("j.next()", 0) == 0 &&
                    V.Outcome == CheckOutcome::Unreachable;
  }
  EXPECT_TRUE(SawDefinite) << R.str();
  EXPECT_TRUE(SawTruncated) << R.str();
}

// Checks on statically unreachable edges keep their slots in the report
// with an Unreachable outcome.
TEST(PreAnalysisDifferentialTest, PrunedChecksStayInReport) {
  const char *Source = R"(
    class Dead {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        i.next();
        return;
        s.add();
        i.next();
      }
    }
  )";
  differential("dead-tail", Source);
  CertificationReport R = certifyWith(Source, EngineKind::SCMPIntra);
  bool SawUnreachable = false;
  for (const CheckVerdict &V : R.Checks)
    SawUnreachable |= V.Outcome == CheckOutcome::Unreachable;
  EXPECT_TRUE(SawUnreachable);
}

// No engine's report depends on whether certificates are emitted.
// (Checking is left to the engines' own suites: a tvla-independent
// certificate for four-pipelines is rejected by the checker, a known
// checker defect listed in ROADMAP.md, and the checked run degrades.)
TEST(PreAnalysisDifferentialTest, AllEnginesVerdictsUnchanged) {
  const char *Representatives[] = {"fig3", "two-collections", "four-pipelines"};
  for (const bench::BenchClient &BC : bench::cmpSuite()) {
    bool Selected = false;
    for (const char *Name : Representatives)
      Selected |= std::strcmp(BC.Name, Name) == 0;
    if (!Selected)
      continue;
    CertifierOptions Emit;
    Emit.EmitCertificates = true;
    for (EngineKind K : AllEngines) {
      CertificationReport Plain = certifyWith(BC.Source, K);
      CertificationReport WithCerts = certifyWith(BC.Source, K, Emit);
      EXPECT_GT(WithCerts.CertStats.Count, 0u) << BC.Name;
      EXPECT_EQ(Plain.str(), WithCerts.str())
          << BC.Name << "/" << engineName(K);
    }
  }
}

// The Stage-0 lint fires on a purpose-built bad client with the exact
// use location, for every engine.
TEST(PreAnalysisDifferentialTest, LintFlagsUninitializedReceiver) {
  const char *Source = R"(
    class Bad {
      void main() {
        Set s = new Set();
        Iterator i;
        if (*) { i = s.iterator(); }
        i.next();
      }
    }
  )";
  // i.next() is on source line 7 of the raw string above.
  unsigned UseLine = 7;
  for (EngineKind K : AllEngines) {
    CertificationReport R = certifyWith(Source, K);
    ASSERT_EQ(R.Lints.size(), 1u) << engineName(K);
    EXPECT_EQ(R.Lints[0].Var, "i") << engineName(K);
    EXPECT_EQ(R.Lints[0].Loc.Line, UseLine) << engineName(K);
    EXPECT_TRUE(R.Lints[0].RequiresBearing) << engineName(K);
    EXPECT_NE(R.Lints[0].What.find("may be used before initialization"),
              std::string::npos)
        << engineName(K);
    EXPECT_NE(R.str().find("warning"), std::string::npos) << engineName(K);
  }
}

// Clean clients produce no lints and the report string has no warnings.
TEST(PreAnalysisDifferentialTest, CleanClientHasNoLints) {
  for (const bench::BenchClient &BC : bench::cmpSuite()) {
    CertificationReport R = certifyWith(BC.Source, EngineKind::SCMPIntra);
    EXPECT_TRUE(R.Lints.empty()) << BC.Name;
    EXPECT_EQ(R.str().find("warning"), std::string::npos) << BC.Name;
  }
}

} // namespace
