//===----------------------------------------------------------------------===//
// Crash-safety harness: inject a fault (exception or torn short write)
// at every probe inside put() and at the recovery probe of open, then
// reopen the store and demand the invariant — the key reads back as
// exactly the pre-state or exactly the post-state, byte-for-byte, never
// a torn hybrid, and nothing is quarantined.
//===----------------------------------------------------------------------===//

#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

// put() has one store-commit probe: the append of its frame. Probe 2
// never fires (clean run).
constexpr unsigned ProbesPerPut = 1;

/// The entry for key (0xFEEDBEEF12345678, "A::m"); \p Version tells
/// an old entry from its overwrite.
StoreEntry makeEntry(uint8_t Version) {
  StoreEntry E;
  E.InputHash = 0xFEEDBEEF12345678ull;
  E.Unit = "A::m";
  E.Engine = "scmp-intra";
  core::CheckRecord C;
  C.Method = E.Unit;
  C.Loc.Line = 3;
  C.What = "i.next() requires !P0(this)";
  C.Outcome = core::CheckOutcome::Safe;
  E.Checks.push_back(C);
  cert::Certificate Cert;
  Cert.Kind = cert::CertKind::BoolIntra;
  Cert.Unit = E.Unit;
  Cert.Claims.push_back({0, core::CheckOutcome::Safe});
  Cert.Payload = {1, 2, 3, Version};
  Cert.seal();
  E.HasCert = true;
  E.Cert = Cert;
  E.CertHash = Cert.ContentHash;
  return E;
}

class CrashRecoveryTest : public ::testing::TestWithParam<support::FaultKind> {
protected:
  void SetUp() override { support::clearFaultPlan(); }
  void TearDown() override { support::clearFaultPlan(); }

  std::string freshDir(const std::string &Tag) {
    // Per-process dir: the ShortWrite/Throw param instances run as
    // parallel ctest processes and would race on a shared path.
    std::string Dir = ::testing::TempDir() + "/crash-recovery-" + Tag + "-" +
                      std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
    return Dir;
  }
};

TEST_P(CrashRecoveryTest, FirstPutAtEveryProbeIsPreOrPostState) {
  const support::FaultKind Kind = GetParam();
  const StoreEntry E = makeEntry(1);
  const std::vector<uint8_t> Frame = CertStore::frameEntry(E);

  for (unsigned N = 1; N <= ProbesPerPut + 1; ++N) {
    const std::string Dir = freshDir("first-" + std::to_string(N));
    bool Threw = false;
    {
      CertStore St(Dir, StoreMode::ReadWrite);
      support::setFaultPlan({"store-commit", N, Kind});
      try {
        St.put(E);
      } catch (const CertifyError &) {
        Threw = true;
      }
      support::clearFaultPlan();
    }
    // The reopened store must answer with nothing (pre-state) or the
    // exact committed bytes (post-state) — recovery swallows whatever
    // the simulated crash left behind.
    CertStore Re(Dir, StoreMode::ReadWrite);
    std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
    if (Got)
      EXPECT_EQ(CertStore::frameEntry(*Got), Frame) << "probe " << N;
    else
      EXPECT_TRUE(Threw) << "probe " << N
                         << ": put claimed success but the entry is gone";
    EXPECT_EQ(Re.stats().Quarantined, 0u) << "probe " << N;
    // A fresh put on the recovered store must succeed: a crash never
    // bricks the store.
    if (!Got) {
      Re.put(E);
      ASSERT_TRUE(Re.get(E.InputHash, E.Unit));
      CertStore After(Dir, StoreMode::ReadWrite);
      ASSERT_TRUE(After.get(E.InputHash, E.Unit)) << "probe " << N;
      EXPECT_EQ(After.stats().Quarantined, 0u) << "probe " << N;
    }
    fs::remove_all(Dir);
    if (!Threw) {
      EXPECT_EQ(N, ProbesPerPut + 1) << "probe " << N << " did not fire";
      break;
    }
  }
}

TEST_P(CrashRecoveryTest, OverwriteAtEveryProbeIsOldOrNewNeverTorn) {
  const support::FaultKind Kind = GetParam();
  const StoreEntry Old = makeEntry(1);
  const StoreEntry New = makeEntry(2);
  const std::vector<uint8_t> OldFrame = CertStore::frameEntry(Old);
  const std::vector<uint8_t> NewFrame = CertStore::frameEntry(New);
  ASSERT_NE(OldFrame, NewFrame);

  for (unsigned N = 1; N <= ProbesPerPut + 1; ++N) {
    const std::string Dir = freshDir("overwrite-" + std::to_string(N));
    bool Threw = false;
    {
      CertStore St(Dir, StoreMode::ReadWrite);
      St.put(Old);
      support::setFaultPlan({"store-commit", N, Kind});
      try {
        St.put(New);
      } catch (const CertifyError &) {
        Threw = true;
      }
      support::clearFaultPlan();
    }
    CertStore Re(Dir, StoreMode::ReadWrite);
    std::unique_ptr<StoreEntry> Got = Re.get(Old.InputHash, Old.Unit);
    ASSERT_TRUE(Got) << "probe " << N << ": overwrite crash lost the entry";
    const std::vector<uint8_t> GotFrame = CertStore::frameEntry(*Got);
    EXPECT_TRUE(GotFrame == OldFrame || GotFrame == NewFrame)
        << "probe " << N << ": torn state";
    if (!Threw) {
      EXPECT_EQ(GotFrame, NewFrame) << "probe " << N;
    }
    EXPECT_EQ(Re.stats().Quarantined, 0u) << "probe " << N;
    fs::remove_all(Dir);
    if (!Threw)
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, CrashRecoveryTest,
                         ::testing::Values(support::FaultKind::Throw,
                                           support::FaultKind::ShortWrite),
                         [](const ::testing::TestParamInfo<support::FaultKind>
                                &Info) {
                           return Info.param == support::FaultKind::Throw
                                      ? "Throw"
                                      : "ShortWrite";
                         });

TEST(CrashRecoveryCompactionTest, ThrowingRecoverProbeFailsOpenCleanly) {
  support::clearFaultPlan();
  const std::string Dir = ::testing::TempDir() + "/crash-recovery-throw-" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(Dir);
  const StoreEntry E = makeEntry(1);
  {
    CertStore St(Dir, StoreMode::ReadWrite);
    St.put(E);
  }
  support::setFaultPlan({"store-recover", 1, support::FaultKind::Throw});
  EXPECT_THROW(CertStore(Dir, StoreMode::ReadWrite), CertifyError);
  support::clearFaultPlan();
  CertStore Re(Dir, StoreMode::ReadWrite);
  ASSERT_TRUE(Re.get(E.InputHash, E.Unit));
  fs::remove_all(Dir);
}

} // namespace
