//===----------------------------------------------------------------------===//
// Store-level tests for the crash-safe persistent certificate store:
// record framing (roundtrip, CRC, hostile-input fuzzing), the log
// (torn tails, corrupt records, tombstones, records appended by another
// instance), and the read-only mode. The checker gate above the store is
// covered by StoreIncrementalTest; here the embedded certificates only
// need to be content-hash-consistent.
//===----------------------------------------------------------------------===//

#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

class CertStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::clearFaultPlan();
    // Per-process dir: ctest runs each test as its own process, in
    // parallel, and a shared path races on remove_all.
    Dir = ::testing::TempDir() + "/cert-store-test-" +
          std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    support::clearFaultPlan();
    fs::remove_all(Dir);
  }

  std::string Dir;
};

/// A representative entry: a proven check, a flagged check with a
/// multi-step witness, and a sealed (hash-consistent) certificate.
StoreEntry makeEntry(uint64_t InputHash = 0x1122334455667788ull,
                     const std::string &Unit = "A::m") {
  StoreEntry E;
  E.InputHash = InputHash;
  E.Unit = Unit;
  E.Engine = "scmp-intra";

  core::CheckRecord Safe;
  Safe.Method = Unit;
  Safe.Loc.Line = 4;
  Safe.Loc.Col = 7;
  Safe.What = "i.next() requires !P0(this)";
  Safe.ReqLoc.Line = 12;
  Safe.ReqLoc.Col = 3;
  Safe.Outcome = core::CheckOutcome::Safe;
  E.Checks.push_back(Safe);

  core::CheckRecord Flagged = Safe;
  Flagged.Loc.Line = 9;
  Flagged.Outcome = core::CheckOutcome::Potential;
  Flagged.Witness.SeedFact = "i.defVer != i.set.ver";
  core::WitnessStep S1;
  S1.K = core::WitnessStep::Kind::Step;
  S1.Method = Unit;
  S1.Edge = 2;
  S1.Loc.Line = 5;
  S1.ActionText = "v.add()";
  S1.Fact = "may be 1";
  core::WitnessStep S2 = S1;
  S2.K = core::WitnessStep::Kind::Check;
  S2.Edge = 3;
  Flagged.Witness.Steps = {S1, S2};
  E.Checks.push_back(Flagged);

  cert::Certificate C;
  C.Kind = cert::CertKind::BoolIntra;
  C.Unit = Unit;
  C.Claims.push_back({0, core::CheckOutcome::Safe});
  C.Payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  C.RawEntries = 8;
  C.StoredEntries = 5;
  C.seal();
  E.HasCert = true;
  E.Cert = C;
  E.CertHash = C.ContentHash;
  return E;
}

void writeBytes(const std::string &File, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(File, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

std::vector<uint8_t> readBytes(const std::string &File) {
  std::ifstream In(File, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// Every file under \p Dir with its bytes: the whole on-disk state.
std::map<std::string, std::vector<uint8_t>> snapshot(const std::string &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const fs::directory_entry &DE : fs::recursive_directory_iterator(Dir))
    Out[DE.path().string()] =
        DE.is_regular_file() ? readBytes(DE.path().string())
                             : std::vector<uint8_t>{};
  return Out;
}

size_t quarantined(const std::string &Dir) {
  size_t N = 0;
  for ([[maybe_unused]] const fs::directory_entry &DE :
       fs::directory_iterator(Dir + "/quarantine"))
    ++N;
  return N;
}

TEST_F(CertStoreTest, FrameRoundtripPreservesEveryField) {
  const StoreEntry E = makeEntry();
  const std::vector<uint8_t> Frame = CertStore::frameEntry(E);
  StoreEntry Out;
  std::string Error;
  ASSERT_TRUE(CertStore::parseFrame(Frame, Out, Error)) << Error;
  EXPECT_EQ(Out.InputHash, E.InputHash);
  EXPECT_EQ(Out.Unit, E.Unit);
  EXPECT_EQ(Out.Engine, E.Engine);
  ASSERT_EQ(Out.Checks.size(), 2u);
  EXPECT_EQ(Out.Checks[0].Outcome, core::CheckOutcome::Safe);
  EXPECT_EQ(Out.Checks[1].Witness.Steps.size(), 2u);
  EXPECT_EQ(Out.Checks[1].Witness.Steps[1].K, core::WitnessStep::Kind::Check);
  EXPECT_EQ(Out.Checks[1].Witness.SeedFact, "i.defVer != i.set.ver");
  EXPECT_TRUE(Out.HasCert);
  EXPECT_EQ(Out.CertHash, E.Cert.ContentHash);
  EXPECT_EQ(Out.Cert.Payload, E.Cert.Payload);
  // Re-framing the parsed entry is byte-identical: the codec is
  // canonical, which the crash-recovery tests rely on for state
  // comparison.
  EXPECT_EQ(CertStore::frameEntry(Out), Frame);
}

TEST_F(CertStoreTest, Crc32MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const char *V = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(V), std::strlen(V)),
            0xCBF43926u);
  // Every length and alignment against the bitwise definition.
  std::mt19937 Rng(7);
  std::vector<uint8_t> Bytes(64);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(Rng());
  for (size_t At = 0; At != 8; ++At)
    for (size_t Len = 0; At + Len <= Bytes.size(); ++Len) {
      uint32_t C = 0xFFFFFFFFu;
      for (size_t I = At; I != At + Len; ++I) {
        C ^= Bytes[I];
        for (int K = 0; K != 8; ++K)
          C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
      }
      ASSERT_EQ(crc32(Bytes.data() + At, Len), C ^ 0xFFFFFFFFu)
          << "at " << At << " length " << Len;
    }
}

TEST_F(CertStoreTest, DistinctKeysNeverShareARecord) {
  // Keys that differ only in the input hash or only in the unit are
  // separate records; a later put of the same key replaces the entry.
  CertStore St(Dir, StoreMode::ReadWrite);
  St.put(makeEntry(1, "A::m"));
  St.put(makeEntry(2, "A::m"));
  St.put(makeEntry(1, "A::n"));
  for (const auto &[Hash, Unit] :
       {std::pair<uint64_t, const char *>{1, "A::m"}, {2, "A::m"}, {1, "A::n"}}) {
    std::unique_ptr<StoreEntry> Got = St.get(Hash, Unit);
    ASSERT_TRUE(Got) << Hash << " " << Unit;
    EXPECT_EQ(CertStore::frameEntry(*Got),
              CertStore::frameEntry(makeEntry(Hash, Unit)));
  }
  EXPECT_FALSE(St.get(2, "A::n"));
  StoreEntry Newer = makeEntry(1, "A::m");
  Newer.Checks.pop_back();
  St.put(Newer);
  CertStore Re(Dir, StoreMode::ReadWrite);
  ASSERT_TRUE(Re.get(1, "A::m"));
  EXPECT_EQ(Re.get(1, "A::m")->Checks.size(), 1u);
  EXPECT_EQ(Re.listEntries().size(), 3u);
}

TEST_F(CertStoreTest, PutGetAcrossReopen) {
  const StoreEntry E = makeEntry();
  {
    CertStore St(Dir, StoreMode::ReadWrite);
    St.put(E);
    EXPECT_EQ(St.stats().Writes, 1u);
    std::unique_ptr<StoreEntry> Got = St.get(E.InputHash, E.Unit);
    ASSERT_TRUE(Got);
    EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
  }
  CertStore Re(Dir, StoreMode::ReadWrite);
  std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
  ASSERT_TRUE(Got);
  EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
  EXPECT_FALSE(Re.get(E.InputHash + 1, E.Unit));
}

TEST_F(CertStoreTest, CorruptEntryQuarantinedOnOpen) {
  const StoreEntry E = makeEntry();
  const StoreEntry F = makeEntry(0x9999, "B::n");
  {
    CertStore St(Dir, StoreMode::ReadWrite);
    St.put(E);
    St.put(F);
  }
  // Flip one payload byte of the first record: the CRC catches it on
  // the next open, and the record after it still serves.
  {
    std::fstream Log(Dir + "/records.log",
                     std::ios::binary | std::ios::in | std::ios::out);
    Log.seekp(20);
    Log.put('\x5A');
  }
  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 1u);
  EXPECT_EQ(quarantined(Dir), 1u);
  EXPECT_FALSE(Re.get(E.InputHash, E.Unit));
  ASSERT_TRUE(Re.get(F.InputHash, F.Unit));
  bool Saw = false;
  for (const StoreIncident &I : Re.takeIncidents())
    Saw |= I.Kind == "StoreQuarantine";
  EXPECT_TRUE(Saw);
  // The bad bytes stay in the log, but they are quarantined once: a
  // second opener neither serves nor re-reports them.
  CertStore Again(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Again.stats().Quarantined, 0u);
  EXPECT_FALSE(Again.get(E.InputHash, E.Unit));
  EXPECT_EQ(quarantined(Dir), 1u);
}

TEST_F(CertStoreTest, TruncatedEntryQuarantinedOnOpen) {
  // A record cut short inside the log, not at its end: its header
  // promises bytes that now belong to the next frame, so the CRC fails.
  // The cut record is quarantined and never served, and the bytes after
  // it, no longer framed, end the readable log.
  const StoreEntry E = makeEntry();
  const StoreEntry F = makeEntry(0x9999, "B::n");
  std::vector<uint8_t> Log = CertStore::frameEntry(E);
  Log.resize(Log.size() / 2);
  const std::vector<uint8_t> Next = CertStore::frameEntry(F);
  Log.insert(Log.end(), Next.begin(), Next.end());
  { CertStore St(Dir, StoreMode::ReadWrite); }
  writeBytes(Dir + "/records.log", Log);
  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 1u);
  EXPECT_FALSE(Re.get(E.InputHash, E.Unit));
  // The next writer truncates the unframed rest and appends behind the
  // quarantined record.
  Re.put(E);
  EXPECT_EQ(Re.stats().TornTails, 1u);
  CertStore After(Dir, StoreMode::ReadWrite);
  ASSERT_TRUE(After.get(E.InputHash, E.Unit));
  EXPECT_EQ(After.stats().Quarantined, 0u);
}

TEST_F(CertStoreTest, TornTailTruncatedByNextWriter) {
  const StoreEntry E = makeEntry();
  const StoreEntry F = makeEntry(0x9999, "B::n");
  { CertStore St(Dir, StoreMode::ReadWrite); }
  // What a writer that died mid-append leaves: one whole frame, then
  // half of the next.
  std::vector<uint8_t> Log = CertStore::frameEntry(E);
  const std::vector<uint8_t> Torn = CertStore::frameEntry(F);
  Log.insert(Log.end(), Torn.begin(), Torn.begin() + Torn.size() / 2);
  writeBytes(Dir + "/records.log", Log);
  const size_t Whole = CertStore::frameEntry(E).size();

  CertStore Re(Dir, StoreMode::ReadWrite);
  // Opening changes nothing: the tail may be an append in progress.
  EXPECT_EQ(fs::file_size(Dir + "/records.log"), Log.size());
  ASSERT_TRUE(Re.get(E.InputHash, E.Unit));
  EXPECT_FALSE(Re.get(F.InputHash, F.Unit));
  // The next writer, holding the lock, truncates the tail and appends.
  Re.put(F);
  EXPECT_EQ(Re.stats().TornTails, 1u);
  EXPECT_EQ(fs::file_size(Dir + "/records.log"), Whole + Torn.size());
  bool Saw = false;
  for (const StoreIncident &I : Re.takeIncidents())
    Saw |= I.Kind == "StoreRecover";
  EXPECT_TRUE(Saw);
  CertStore After(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(After.stats().Quarantined, 0u);
  ASSERT_TRUE(After.get(F.InputHash, F.Unit));
  EXPECT_EQ(CertStore::frameEntry(*After.get(F.InputHash, F.Unit)), Torn);
}

TEST_F(CertStoreTest, TornLogTailDiscarded) {
  const StoreEntry E = makeEntry();
  {
    CertStore St(Dir, StoreMode::ReadWrite);
    St.put(E);
  }
  {
    // A torn header (fewer than 16 bytes) after the committed frame.
    std::ofstream Log(Dir + "/records.log", std::ios::binary | std::ios::app);
    Log << "CNVS\x03";
  }
  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 0u);
  std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
  ASSERT_TRUE(Got);
  EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
}

TEST_F(CertStoreTest, RefreshIndexesAnotherInstancesAppends) {
  const StoreEntry E = makeEntry();
  CertStore Reader(Dir, StoreMode::ReadWrite);
  CertStore Writer(Dir, StoreMode::ReadWrite);
  Writer.put(E);
  EXPECT_FALSE(Reader.get(E.InputHash, E.Unit));
  ASSERT_TRUE(Reader.refresh());
  ASSERT_TRUE(Reader.get(E.InputHash, E.Unit));
  // A tombstone written by the other instance wins on the next refresh.
  Writer.evict(E.InputHash, E.Unit, "rejected elsewhere");
  ASSERT_TRUE(Reader.refresh());
  EXPECT_FALSE(Reader.get(E.InputHash, E.Unit));
  // Removing the store makes the instance stale.
  fs::remove_all(Dir);
  EXPECT_FALSE(Reader.refresh());
}

TEST_F(CertStoreTest, EvictQuarantinesTheEntry) {
  const StoreEntry E = makeEntry();
  CertStore St(Dir, StoreMode::ReadWrite);
  St.put(E);
  St.evict(E.InputHash, E.Unit, "checker gate refused it");
  EXPECT_FALSE(St.get(E.InputHash, E.Unit));
  EXPECT_EQ(St.stats().Quarantined, 1u);
  // Evicting a missing key is a no-op, not an error.
  St.evict(E.InputHash, E.Unit, "again");
  EXPECT_EQ(St.stats().Quarantined, 1u);
  // The tombstone is in the log: a reopened store does not serve it.
  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_FALSE(Re.get(E.InputHash, E.Unit));
  EXPECT_TRUE(Re.listEntries().empty());
}

TEST_F(CertStoreTest, KeyMismatchQuarantinedOnGet) {
  const StoreEntry E = makeEntry();
  CertStore St(Dir, StoreMode::ReadWrite);
  St.put(E);
  // After indexing, the record is overwritten in place by a valid frame
  // of the same size for another key: a hostile edit trying to answer
  // one input hash with another's evidence.
  writeBytes(Dir + "/records.log",
             CertStore::frameEntry(makeEntry(E.InputHash + 1, E.Unit)));
  EXPECT_FALSE(St.get(E.InputHash, E.Unit));
  EXPECT_EQ(St.stats().Quarantined, 1u);
}

TEST_F(CertStoreTest, ReadOnlyServesButNeverMutates) {
  const StoreEntry E = makeEntry();
  const StoreEntry F = makeEntry(0x9999, "B::n");
  {
    CertStore St(Dir, StoreMode::ReadWrite);
    St.put(F);
    St.put(E);
  }
  {
    // Corrupt F's record and leave a torn tail behind E's.
    std::fstream Log(Dir + "/records.log",
                     std::ios::binary | std::ios::in | std::ios::out);
    Log.seekp(20);
    Log.put('\x5A');
    Log.seekp(0, std::ios::end);
    Log << "CNVS";
  }
  const auto Before = snapshot(Dir);
  CertStore Ro(Dir, StoreMode::ReadOnly);
  // The invalid record is skipped, not copied: read-only means no disk
  // mutation at all.
  EXPECT_EQ(Ro.stats().Quarantined, 0u);
  EXPECT_EQ(Ro.stats().SkippedInvalid, 1u);
  ASSERT_TRUE(Ro.get(E.InputHash, E.Unit));
  EXPECT_FALSE(Ro.get(F.InputHash, F.Unit));
  EXPECT_THROW(Ro.put(E), CertifyError);
  Ro.evict(E.InputHash, E.Unit, "ignored");
  EXPECT_TRUE(Ro.get(E.InputHash, E.Unit));
  EXPECT_TRUE(Ro.refresh());
  EXPECT_EQ(Ro.listEntries().size(), 1u);
  EXPECT_EQ(snapshot(Dir), Before);
}

TEST_F(CertStoreTest, ReadOnlyOpenOfMissingStoreThrows) {
  EXPECT_THROW(CertStore(Dir, StoreMode::ReadOnly), CertifyError);
}

TEST_F(CertStoreTest, ListEntriesSortedByUnitThenHash) {
  CertStore St(Dir, StoreMode::ReadWrite);
  St.put(makeEntry(7, "B::x"));
  St.put(makeEntry(9, "A::y"));
  St.put(makeEntry(3, "A::y"));
  std::vector<StoreEntry> All = St.listEntries();
  ASSERT_EQ(All.size(), 3u);
  EXPECT_EQ(All[0].Unit, "A::y");
  EXPECT_EQ(All[0].InputHash, 3u);
  EXPECT_EQ(All[1].Unit, "A::y");
  EXPECT_EQ(All[1].InputHash, 9u);
  EXPECT_EQ(All[2].Unit, "B::x");
}

TEST_F(CertStoreTest, FramingFuzzNeverCrashesOrFalselyAccepts) {
  // Seeded, so a failure reproduces. Three hostile shapes: random
  // mutations of a valid frame, random truncations/extensions, and
  // pure garbage. parseFrame must return false or a coherent entry —
  // never crash, never accept a frame whose CRC does not match.
  std::mt19937 Rng(0xC0FFEE);
  const std::vector<uint8_t> Valid = CertStore::frameEntry(makeEntry());
  for (int Iter = 0; Iter != 300; ++Iter) {
    std::vector<uint8_t> Bytes;
    const int Shape = static_cast<int>(Rng() % 3);
    if (Shape == 0) {
      Bytes = Valid;
      const size_t Flips = 1 + Rng() % 8;
      for (size_t F = 0; F != Flips; ++F)
        Bytes[Rng() % Bytes.size()] ^= static_cast<uint8_t>(1 + Rng() % 255);
    } else if (Shape == 1) {
      Bytes = Valid;
      Bytes.resize(Rng() % (Valid.size() + 32));
    } else {
      Bytes.resize(Rng() % 128);
      for (uint8_t &B : Bytes)
        B = static_cast<uint8_t>(Rng());
    }
    StoreEntry Out;
    std::string Error;
    if (CertStore::parseFrame(Bytes, Out, Error)) {
      // Acceptance is only legitimate when the frame really is intact.
      ASSERT_GE(Bytes.size(), 16u);
      EXPECT_EQ(crc32(Bytes.data() + 16, Bytes.size() - 16),
                crc32(Valid.data() + 16, Valid.size() - 16));
    } else {
      EXPECT_FALSE(Error.empty());
    }
  }
}

TEST_F(CertStoreTest, HostileEntryFilesNeverBreakOpen) {
  // Mutated and truncated frames, then pure garbage, as the log: open
  // must index what is intact, quarantine or stop at the rest, and keep
  // the store usable.
  std::mt19937 Rng(0xFEEDFACE);
  const std::vector<uint8_t> Valid = CertStore::frameEntry(makeEntry());
  for (int Round = 0; Round != 20; ++Round) {
    fs::remove_all(Dir);
    { CertStore St(Dir, StoreMode::ReadWrite); }
    std::vector<uint8_t> Log;
    for (int I = 0; I != 4; ++I) {
      std::vector<uint8_t> Bytes = Valid;
      Bytes.resize(Rng() % (Valid.size() + 16));
      for (size_t F = 0; F != 4 && !Bytes.empty(); ++F)
        Bytes[Rng() % Bytes.size()] ^= static_cast<uint8_t>(1 + Rng() % 255);
      Log.insert(Log.end(), Bytes.begin(), Bytes.end());
    }
    for (size_t G = Rng() % 64; G; --G)
      Log.push_back(static_cast<uint8_t>(Rng()));
    writeBytes(Dir + "/records.log", Log);
    CertStore Re(Dir, StoreMode::ReadWrite);
    Re.listEntries();
    const StoreEntry E = makeEntry(0x4242, "Z::z");
    Re.put(E);
    ASSERT_TRUE(Re.get(E.InputHash, E.Unit)) << "round " << Round;
    CertStore After(Dir, StoreMode::ReadWrite);
    ASSERT_TRUE(After.get(E.InputHash, E.Unit)) << "round " << Round;
  }
}

} // namespace
