//===----------------------------------------------------------------------===//
// Concurrent shared use of one CertStore root — the tentpole's locking
// contract. Two threads with their own instances hammer one root
// (instances serialize through the flock on LOCK); two processes hammer
// one root while one of them crash-dies at every store-commit probe
// (fork + _exit, so the kernel really does reclaim a dead holder's
// lock). After every storm: reopen recovers, zero quarantined entries,
// every committed entry reads back byte-exact.
//===----------------------------------------------------------------------===//

#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

StoreEntry makeEntry(const std::string &Unit, uint32_t Salt) {
  StoreEntry E;
  E.InputHash = 0xC0FFEE0000ull + Salt;
  E.Unit = Unit;
  E.Engine = "scmp-intra";
  core::CheckRecord C;
  C.Method = Unit;
  C.Loc.Line = static_cast<int>(Salt);
  C.What = "i.next() requires !P0(this)";
  C.Outcome = core::CheckOutcome::Safe;
  E.Checks.push_back(C);
  cert::Certificate Cert;
  Cert.Kind = cert::CertKind::BoolIntra;
  Cert.Unit = Unit;
  Cert.Claims.push_back({0, core::CheckOutcome::Safe});
  Cert.Payload = {9, 8, 7, static_cast<uint8_t>(Salt)};
  Cert.seal();
  E.HasCert = true;
  E.Cert = Cert;
  E.CertHash = Cert.ContentHash;
  return E;
}

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/shard-store-" + Tag + "-" +
                    std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(Dir);
  return Dir;
}

TEST(StoreContentionTest, TwoThreadsOwnInstancesOneRootAllCommitsLand) {
  const std::string Dir = freshDir("threads");
  constexpr unsigned PerThread = 12;

  auto Hammer = [&Dir](unsigned Tid) {
    // Own instance per thread: the class is not thread-safe, the ROOT
    // is — instances serialize through the file lock.
    CertStore St(Dir, StoreMode::ReadWrite);
    for (unsigned I = 0; I != PerThread; ++I)
      St.put(makeEntry("T" + std::to_string(Tid) + "::m" + std::to_string(I),
                       Tid * 100 + I));
  };
  std::thread A(Hammer, 1), B(Hammer, 2);
  A.join();
  B.join();

  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 0u);
  for (unsigned Tid = 1; Tid <= 2; ++Tid)
    for (unsigned I = 0; I != PerThread; ++I) {
      const StoreEntry E =
          makeEntry("T" + std::to_string(Tid) + "::m" + std::to_string(I),
                    Tid * 100 + I);
      std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
      ASSERT_TRUE(Got) << E.Unit;
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E))
          << E.Unit;
    }
  fs::remove_all(Dir);
}

// put() has one store-commit probe, the append of its frame; probe 2
// is the clean run. At each, a CHILD PROCESS dies mid-commit (_exit, no
// unwind, flock reclaimed by the kernel) after a torn write, while the
// parent keeps committing through its own instance and so truncates the
// child's torn tail. The store must end with the parent's entries
// intact, the child's entry atomically present-or-absent, and nothing
// quarantined.
TEST(StoreContentionTest, ProcessCrashMidCommitAtEveryProbeNeverCorrupts) {
  constexpr unsigned ProbesPerPut = 1;
  for (unsigned Probe = 1; Probe <= ProbesPerPut + 1; ++Probe) {
    const std::string Dir = freshDir("crash-" + std::to_string(Probe));
    const StoreEntry ChildE = makeEntry("Child::m", 7);
    {
      // Lay the store down before forking so both sides open an
      // existing root.
      CertStore St(Dir, StoreMode::ReadWrite);
    }

    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: crash-die at the probe. No gtest, no unwinding past the
      // catch — _exit leaves whatever bytes the torn write produced.
      support::setFaultPlan(
          {"store-commit", Probe, support::FaultKind::ShortWrite});
      try {
        CertStore St(Dir, StoreMode::ReadWrite);
        St.put(ChildE);
      } catch (...) {
        ::_exit(42);
      }
      ::_exit(0);
    }

    // Parent: hammer the same root while the child crashes.
    {
      CertStore St(Dir, StoreMode::ReadWrite);
      for (unsigned I = 0; I != 6; ++I)
        St.put(makeEntry("Parent::m" + std::to_string(I), I));
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    const int Code = WEXITSTATUS(Status);
    EXPECT_TRUE(Code == 0 || Code == 42) << "probe " << Probe;

    CertStore Re(Dir, StoreMode::ReadWrite);
    EXPECT_EQ(Re.stats().Quarantined, 0u) << "probe " << Probe;
    for (unsigned I = 0; I != 6; ++I) {
      const StoreEntry E = makeEntry("Parent::m" + std::to_string(I), I);
      std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
      ASSERT_TRUE(Got) << "probe " << Probe << " parent entry " << I;
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
    }
    std::unique_ptr<StoreEntry> Got = Re.get(ChildE.InputHash, ChildE.Unit);
    if (Got)
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(ChildE))
          << "probe " << Probe;
    else
      EXPECT_NE(Code, 0) << "probe " << Probe
                         << ": child claimed success but the entry is gone";
    // The recovered store still accepts commits.
    Re.put(makeEntry("After::m", 99));
    EXPECT_TRUE(Re.get(makeEntry("After::m", 99).InputHash, "After::m"));
    fs::remove_all(Dir);
  }
}

} // namespace
