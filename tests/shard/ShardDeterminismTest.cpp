//===----------------------------------------------------------------------===//
// The tentpole contract: the merged report of a sharded run is
// byte-identical to the serial run at EVERY shard count; a worker
// killed mid-shard has its task requeued exactly once and the report is
// still identical; a client whose worker dies twice is marked degraded
// in place — never silently dropped. Workers are real processes (this
// test binary re-executed with --worker; see ShardTestMain.cpp).
//===----------------------------------------------------------------------===//

#include "easl/Builtins.h"
#include "easl/Parser.h"
#include "shard/Corpus.h"
#include "shard/Driver.h"
#include "support/Subprocess.h"
#include "wp/Abstraction.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include <unistd.h>

using namespace canvas;
using namespace canvas::shard;

namespace fs = std::filesystem;

namespace {

class ShardDeterminismTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "/shard-det-" +
          std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
    std::string Error;
    ASSERT_TRUE(generateCorpus(Dir + "/corpus", 12, 5, Error)) << Error;
    ASSERT_TRUE(loadCorpus(Dir + "/corpus", Corpus, Error)) << Error;

    Opts.WorkerExe = support::selfExecutablePath();
    ASSERT_FALSE(Opts.WorkerExe.empty());
    Opts.Stream = true;
  }
  void TearDown() override { fs::remove_all(Dir); }

  std::string Dir;
  std::vector<CorpusClient> Corpus;
  DriverOptions Opts;
};

TEST_F(ShardDeterminismTest, CostEstimatesSpreadTheCorpus) {
  std::set<uint64_t> Distinct;
  for (const CorpusClient &C : Corpus) {
    EXPECT_GE(C.Cost, 1u);
    Distinct.insert(C.Cost);
  }
  // The generator spans sizes; identical costs across the board would
  // make the largest-first schedule meaningless.
  EXPECT_GT(Distinct.size(), 3u);
}

TEST_F(ShardDeterminismTest, CostIsTheSourceLengthEvenWhenTheClientIsBroken) {
  for (const CorpusClient &C : Corpus)
    EXPECT_EQ(C.Cost, C.Source.size()) << C.Name;
  // estimateCosts never parses, so a client that does not parse is
  // ordered by its length like any other.
  DiagnosticEngine Diags;
  easl::Spec S = easl::parseSpec(easl::cmpSpecSource(), Diags);
  ASSERT_TRUE(easl::checkSpec(S, Diags)) << Diags.str();
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(S, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<CorpusClient> Broken = {
      {"broken", "broken.cj", "class Broken { void main() { Set s = ", 1}};
  estimateCosts(Broken, S, Abs);
  EXPECT_EQ(Broken[0].Cost, Broken[0].Source.size());
}

TEST_F(ShardDeterminismTest, OneShardCertifiesLargestSourceFirst) {
  DriverOptions O = Opts;
  O.Shards = 1;
  std::ostringstream Merged, Stream;
  ShardRunStats Stats;
  std::string Error;
  ASSERT_TRUE(runSharded(Corpus, O, Merged, Stream, Stats, Error)) << Error;
  // With one worker the summary rows stream in queue order.
  std::vector<size_t> Order;
  std::istringstream In(Stream.str());
  for (std::string Line; std::getline(In, Line);) {
    if (Line.find("\"micros\":") == std::string::npos)
      continue;
    const std::string Key = "{\"client\":\"";
    const size_t From = Line.find(Key) + Key.size();
    const std::string Name = Line.substr(From, Line.find('"', From) - From);
    for (size_t I = 0; I != Corpus.size(); ++I)
      if (Corpus[I].Name == Name)
        Order.push_back(I);
  }
  ASSERT_EQ(Order.size(), Corpus.size());
  for (size_t K = 1; K != Order.size(); ++K) {
    const size_t Prev = Corpus[Order[K - 1]].Source.size();
    const size_t Cur = Corpus[Order[K]].Source.size();
    EXPECT_TRUE(Prev > Cur || (Prev == Cur && Order[K - 1] < Order[K]))
        << Corpus[Order[K - 1]].Name << " (" << Prev << " bytes) before "
        << Corpus[Order[K]].Name << " (" << Cur << " bytes)";
  }
}

TEST_F(ShardDeterminismTest, CorpusGenerationIsDeterministicInTheSeed) {
  std::string Error;
  ASSERT_TRUE(generateCorpus(Dir + "/again", 12, 5, Error)) << Error;
  std::vector<CorpusClient> Again;
  ASSERT_TRUE(loadCorpus(Dir + "/again", Again, Error)) << Error;
  ASSERT_EQ(Again.size(), Corpus.size());
  for (size_t I = 0; I != Corpus.size(); ++I) {
    EXPECT_EQ(Again[I].Name, Corpus[I].Name);
    EXPECT_EQ(Again[I].Source, Corpus[I].Source);
  }
  ASSERT_TRUE(generateCorpus(Dir + "/other", 12, 6, Error)) << Error;
  std::vector<CorpusClient> Other;
  ASSERT_TRUE(loadCorpus(Dir + "/other", Other, Error)) << Error;
  bool AnyDiffers = false;
  for (size_t I = 0; I != Corpus.size(); ++I)
    AnyDiffers |= Other[I].Source != Corpus[I].Source;
  EXPECT_TRUE(AnyDiffers);
}

TEST_F(ShardDeterminismTest, MergedReportByteIdenticalAtEveryShardCount) {
  std::ostringstream SerialMerged, SerialStream;
  ShardRunStats SerialStats;
  std::string Error;
  ASSERT_TRUE(runSerial(Corpus, Opts, SerialMerged, SerialStream, SerialStats,
                        Error))
      << Error;
  const std::string Reference = SerialMerged.str();
  ASSERT_FALSE(Reference.empty());
  // Every client owns a section, in corpus order.
  size_t Pos = 0;
  for (const CorpusClient &C : Corpus) {
    Pos = Reference.find("=== " + C.Name + " ===\n", Pos);
    ASSERT_NE(Pos, std::string::npos) << C.Name;
  }

  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    DriverOptions O = Opts;
    O.Shards = Shards;
    std::ostringstream Merged, Stream;
    ShardRunStats Stats;
    ASSERT_TRUE(runSharded(Corpus, O, Merged, Stream, Stats, Error))
        << "shards=" << Shards << ": " << Error;
    EXPECT_EQ(Merged.str(), Reference) << "shards=" << Shards;
    EXPECT_EQ(Stats.Clients, Corpus.size());
    EXPECT_EQ(Stats.Requeues, 0u);
    EXPECT_EQ(Stats.CrashedClients, 0u);
    // One summary JSONL row per client landed on the stream.
    size_t Rows = 0;
    std::istringstream In(Stream.str());
    for (std::string Line; std::getline(In, Line);)
      if (Line.find("\"micros\":") != std::string::npos)
        ++Rows;
    EXPECT_EQ(Rows, Corpus.size()) << "shards=" << Shards;
  }
}

TEST_F(ShardDeterminismTest, KilledWorkerRequeuesOnceAndReportIsIdentical) {
  std::ostringstream SerialMerged, SerialStream;
  ShardRunStats SerialStats;
  std::string Error;
  ASSERT_TRUE(runSerial(Corpus, Opts, SerialMerged, SerialStream, SerialStats,
                        Error))
      << Error;

  DriverOptions O = Opts;
  O.Shards = 2;
  // The worker handed gen-0003 _exit(42)s before certifying — first
  // attempt only, so the requeued task succeeds on a fresh worker.
  O.WorkerEnv.push_back("CANVAS_SHARD_CRASH_AT=gen-0003");
  std::ostringstream Merged, Stream;
  ShardRunStats Stats;
  ASSERT_TRUE(runSharded(Corpus, O, Merged, Stream, Stats, Error)) << Error;
  EXPECT_EQ(Stats.Requeues, 1u);
  EXPECT_EQ(Stats.WorkerRespawns, 1u);
  EXPECT_EQ(Stats.CrashedClients, 0u);
  EXPECT_EQ(Merged.str(), SerialMerged.str());
}

TEST_F(ShardDeterminismTest, TwiceKilledClientIsDegradedNeverDropped) {
  DriverOptions O = Opts;
  O.Shards = 2;
  O.WorkerEnv.push_back("CANVAS_SHARD_CRASH_AT=gen-0005:always");
  std::ostringstream Merged, Stream;
  ShardRunStats Stats;
  std::string Error;
  ASSERT_TRUE(runSharded(Corpus, O, Merged, Stream, Stats, Error)) << Error;
  EXPECT_EQ(Stats.Requeues, 1u);
  EXPECT_EQ(Stats.CrashedClients, 1u);
  EXPECT_GE(Stats.DegradedClients, 1u);
  const std::string Out = Merged.str();
  EXPECT_NE(Out.find(crashedSection("gen-0005")), std::string::npos);
  // Every other client still reports normally, in order.
  size_t Pos = 0;
  for (const CorpusClient &C : Corpus) {
    Pos = Out.find("=== " + C.Name + " ===\n", Pos);
    ASSERT_NE(Pos, std::string::npos) << C.Name;
  }
  EXPECT_NE(Stream.str().find("\"status\":\"crashed\""), std::string::npos);
}

} // namespace
