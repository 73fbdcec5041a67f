//===----------------------------------------------------------------------===//
// Witnesses at corpus scale: the first 60 clients of corpus seed 7,
// certified by SCMPIntra with default options and with certificate
// emission and checking (SlicePartition and BoolIntra certificates).
// Both read witnesses off the one fixpoint of each method's partitioned
// boolean program. Every flagged verdict must carry a
// call/return-matched witness that replays.
//===----------------------------------------------------------------------===//

#include "client/Parser.h"
#include "core/Certifier.h"
#include "core/Replay.h"
#include "easl/Builtins.h"
#include "shard/Corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace {

struct CorpusRun {
  unsigned Flagged = 0;
  /// Methods that split into several slices and carry a Definite
  /// verdict: the kill of a definite violation truncates the paths of
  /// every slice in the one fixpoint.
  unsigned MultiSliceDefinite = 0;
  unsigned SlicedCertMethods = 0;
};

void certifyCorpus(const std::vector<shard::CorpusClient> &Corpus,
                   const CertifierOptions &Opts, CorpusRun &Run) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags, {}, Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  for (const shard::CorpusClient &Client : Corpus) {
    DiagnosticEngine D;
    cj::Program P = cj::parseProgram(Client.Source, D);
    cj::ClientCFG CFG = cj::buildCFG(P, C.spec(), D);
    CertificationReport R = C.certify(P, D);
    ASSERT_FALSE(R.Degraded) << Client.Name;
    for (const MethodSliceSummary &MS : R.SliceSummaries) {
      if (MS.Slices < 2)
        continue;
      for (const CheckVerdict &V : R.Checks)
        if (V.Method == MS.Method && V.Outcome == CheckOutcome::Definite) {
          ++Run.MultiSliceDefinite;
          break;
        }
    }
    for (const cert::Certificate &Cert : R.Certificates)
      Run.SlicedCertMethods += Cert.Kind == cert::CertKind::SlicePartition;
    for (const CheckVerdict &V : R.Checks) {
      if (V.Outcome != CheckOutcome::Potential &&
          V.Outcome != CheckOutcome::Definite)
        continue;
      ++Run.Flagged;
      const std::string Label = Client.Name + " " + V.Method + " " + V.What;
      ASSERT_FALSE(V.Witness.empty()) << Label << ": flagged without a witness";
      EXPECT_TRUE(V.Witness.callReturnMatched())
          << Label << "\n"
          << V.Witness.str();
      EXPECT_EQ(V.Witness.Steps.back().K, WitnessStep::Kind::Check) << Label;
      ReplayResult RR = replayWitness(C.spec(), CFG, V);
      EXPECT_TRUE(RR.validated()) << Label << ": " << RR.Detail << "\n"
                                  << V.Witness.str();
    }
  }
}

TEST(CorpusWitnessTest, EveryFlaggedVerdictReplays) {
  const std::string Dir = ::testing::TempDir() + "/corpus-witness-" +
                          std::to_string(::getpid());
  std::string Error;
  std::vector<shard::CorpusClient> Corpus;
  ASSERT_TRUE(shard::generateCorpus(Dir, 60, 7, Error)) << Error;
  ASSERT_TRUE(shard::loadCorpus(Dir, Corpus, Error)) << Error;
  std::filesystem::remove_all(Dir);

  CertifierOptions Default;
  CorpusRun Plain;
  certifyCorpus(Corpus, Default, Plain);
  EXPECT_GT(Plain.Flagged, 0u);
  EXPECT_GT(Plain.MultiSliceDefinite, 0u);

  CertifierOptions Certs = Default;
  Certs.EmitCertificates = true;
  Certs.CheckCertificates = true;
  CorpusRun Checked;
  certifyCorpus(Corpus, Certs, Checked);
  EXPECT_EQ(Checked.Flagged, Plain.Flagged);
  EXPECT_GT(Checked.SlicedCertMethods, 0u);
}

} // namespace
