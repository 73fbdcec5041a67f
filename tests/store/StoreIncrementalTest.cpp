//===----------------------------------------------------------------------===//
// End-to-end incremental re-certification through core::Certifier: warm
// runs answered entirely from the persistent store with byte-identical
// reports, one-method edits re-analyzing only the edited method,
// checker-gated rejection of tampered entries, verdict stability under
// every injected store fault, and one certifier's store kept open
// across calls (per-call counters, retried opens, records and
// tombstones from other processes, a store removed between calls).
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "easl/Builtins.h"
#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace fs = std::filesystem;

namespace {

/// Two methods with no call edge: main carries a real violation (add
/// between iterator and next, so the stored entry includes a witness
/// the gate must replay), other is clean.
const char *TwoMethods = R"(
  class M {
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      v.add();
      i.next();
    }
    void other() {
      Set w = new Set();
      Iterator j = w.iterator();
      j.next();
    }
  }
)";

/// TwoMethods with main() edited and other() untouched — on the same
/// line, so other()'s source positions (part of its key: a served
/// entry replays recorded locations verbatim) do not shift.
const char *TwoMethodsMainEdited = R"(
  class M {
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      v.add(); v.add();
      i.next();
    }
    void other() {
      Set w = new Set();
      Iterator j = w.iterator();
      j.next();
    }
  }
)";

CertificationReport run(const char *Client, const CertifierOptions &Opts,
                        EngineKind K = EngineKind::SCMPIntra) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags, wp::DerivationOptions{}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  CertificationReport R = C.certifySource(Client, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

class StoreIncrementalTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::clearFaultPlan();
    // Per-process dir: parallel ctest processes race on a shared path.
    Dir = ::testing::TempDir() + "/store-incremental-" +
          std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
    Opts.StorePath = Dir;
  }
  void TearDown() override {
    support::clearFaultPlan();
    fs::remove_all(Dir);
  }

  std::string Dir;
  CertifierOptions Opts;
};

TEST_F(StoreIncrementalTest, WarmRunIsByteIdenticalAndFullyServed) {
  CertificationReport Cold = run(TwoMethods, Opts);
  EXPECT_TRUE(Cold.Store.Enabled);
  EXPECT_EQ(Cold.Store.Hits, 0u);
  EXPECT_GE(Cold.Store.Misses, 2u);
  EXPECT_EQ(Cold.Store.Writes, Cold.Store.Misses);
  EXPECT_FALSE(Cold.Degraded);
  EXPECT_GT(Cold.numChecks(), 0u);

  CertificationReport Warm = run(TwoMethods, Opts);
  // Everything answered from the store: zero engine invocations.
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses);
  EXPECT_EQ(Warm.Store.Writes, 0u);
  EXPECT_EQ(Warm.Store.Rejected, 0u);
  // The report — verdicts, witnesses, slicing lines, everything the
  // renderer prints — is byte-identical to the cold run.
  EXPECT_EQ(Warm.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, EditingOneMethodReanalyzesOnlyIt) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  CertificationReport Edited = run(TwoMethodsMainEdited, Opts);
  // other() is untouched: served from the store. main() re-keys: one
  // engine run, one fresh commit (the stale entry stays until GC'd —
  // it can never be served again, its key is dead).
  EXPECT_EQ(Edited.Store.Hits, 1u);
  EXPECT_EQ(Edited.Store.Misses, 1u);
  EXPECT_EQ(Edited.Store.Writes, 1u);
  EXPECT_FALSE(Edited.Degraded);
}

TEST_F(StoreIncrementalTest, TamperedEntryIsRejectedAndReanalyzed) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  // Tamper with one entry out-of-band: flip its first check's verdict
  // while leaving the certificate (and thus the CRC frame) internally
  // consistent — a hostile store trying to launder a wrong verdict
  // past the frame validation.
  {
    store::CertStore St(Dir, store::StoreMode::ReadWrite);
    std::vector<store::StoreEntry> All = St.listEntries();
    ASSERT_FALSE(All.empty());
    store::StoreEntry E = All[0];
    ASSERT_FALSE(E.Checks.empty());
    E.Checks[0].Outcome = E.Checks[0].Outcome == CheckOutcome::Safe
                              ? CheckOutcome::Potential
                              : CheckOutcome::Safe;
    E.Checks[0].Witness = core::WitnessTrace{};
    St.put(E);
  }

  CertificationReport Warm = run(TwoMethods, Opts);
  // The checker gate refuses the tampered entry (claims no longer match
  // the verdict vector), evicts it, and re-analyzes — the report stays
  // byte-identical to the cold run.
  EXPECT_EQ(Warm.Store.Rejected, 1u);
  EXPECT_EQ(Warm.Store.Misses, 1u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses - 1);
  bool SawInvalid = false;
  for (const store::StoreIncident &I : Warm.Store.Incidents)
    SawInvalid |= I.Kind == "StoreEntryInvalid";
  EXPECT_TRUE(SawInvalid);
  EXPECT_EQ(Warm.str(), Cold.str());

  // And the re-committed entry serves cleanly afterwards.
  CertificationReport Again = run(TwoMethods, Opts);
  EXPECT_EQ(Again.Store.Rejected, 0u);
  EXPECT_EQ(Again.Store.Misses, 0u);
  EXPECT_EQ(Again.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, InjectedStoreFaultsNeverChangeVerdicts) {
  CertifierOptions Storeless;
  const CertificationReport Baseline = run(TwoMethods, Storeless);

  struct Case {
    const char *Site;
    support::FaultKind Kind;
  };
  const Case Cases[] = {
      {"store-open", support::FaultKind::Throw},
      {"store-recover", support::FaultKind::Throw},
      {"store-read", support::FaultKind::Throw},
      {"store-commit", support::FaultKind::Throw},
      {"store-commit", support::FaultKind::ShortWrite},
      {"store-recover", support::FaultKind::ShortWrite},
  };
  for (const Case &C : Cases) {
    const std::string CaseDir =
        Dir + "-fault-" + C.Site +
        (C.Kind == support::FaultKind::ShortWrite ? "-short" : "-throw");
    fs::remove_all(CaseDir);
    CertifierOptions FOpts;
    FOpts.StorePath = CaseDir;
    support::setFaultPlan({C.Site, 1, C.Kind});
    CertificationReport R = run(TwoMethods, FOpts);
    support::clearFaultPlan();
    // Whatever the store fault, certification degrades to re-analysis:
    // same verdicts, never Degraded, never a crash.
    EXPECT_FALSE(R.Degraded) << C.Site;
    EXPECT_EQ(R.str(), Baseline.str()) << C.Site;
    fs::remove_all(CaseDir);
  }
}

TEST_F(StoreIncrementalTest, ReadOnlyStoreServesButNeverWrites) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  CertifierOptions RoOpts = Opts;
  RoOpts.StoreMode = store::StoreMode::ReadOnly;
  CertificationReport Warm = run(TwoMethods, RoOpts);
  EXPECT_TRUE(Warm.Store.ReadOnly);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses);
  EXPECT_EQ(Warm.Store.Writes, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());

  // A read-only open of a missing store is an incident, not a failure:
  // the run proceeds storeless with identical verdicts.
  CertifierOptions MissingOpts;
  MissingOpts.StorePath = Dir + "-nonexistent";
  MissingOpts.StoreMode = store::StoreMode::ReadOnly;
  CertificationReport NoStore = run(TwoMethods, MissingOpts);
  // Enabled records that a store was *requested*; the failed open shows
  // up as a StoreIO incident and zero activity.
  EXPECT_TRUE(NoStore.Store.Enabled);
  EXPECT_EQ(NoStore.Store.Hits + NoStore.Store.Writes, 0u);
  bool SawIO = false;
  for (const store::StoreIncident &I : NoStore.Store.Incidents)
    SawIO |= I.Kind == "StoreIO";
  EXPECT_TRUE(SawIO);
  EXPECT_EQ(NoStore.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, InterproceduralUnitHitsAndInvalidates) {
  const char *Client = R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); }
    }
  )";
  CertificationReport Cold = run(Client, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(Cold.Store.Misses, 1u);
  EXPECT_EQ(Cold.Store.Writes, 1u);

  CertificationReport Warm = run(Client, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(Warm.Store.Hits, 1u);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());

  // Editing any method re-keys the whole-program unit.
  const char *Edited = R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); s.add(); }
    }
  )";
  CertificationReport After = run(Edited, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(After.Store.Hits, 0u);
  EXPECT_EQ(After.Store.Misses, 1u);
}

/// One certifier used for several certify() calls, as a shard worker
/// uses it.
struct SharedCertifier {
  explicit SharedCertifier(const CertifierOptions &Opts)
      : C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags,
          wp::DerivationOptions{}, Opts) {}
  CertificationReport run(const char *Client) {
    DiagnosticEngine D;
    CertificationReport R = C.certifySource(Client, D);
    EXPECT_FALSE(D.hasErrors()) << D.str();
    return R;
  }
  DiagnosticEngine Diags;
  Certifier C;
};

bool sawIncident(const CertificationReport &R, const char *Kind) {
  for (const store::StoreIncident &I : R.Store.Incidents)
    if (I.Kind == Kind)
      return true;
  return false;
}

TEST_F(StoreIncrementalTest, OneCertifierOpensOnceAndCountsPerCall) {
  SharedCertifier SC(Opts);
  // A second store-open probe would fire this plan and leave a StoreIO
  // incident: the store is opened by the first call only.
  support::setFaultPlan({"store-open", 2, support::FaultKind::Throw});
  const CertificationReport Cold = SC.run(TwoMethods);
  EXPECT_EQ(Cold.Store.Hits, 0u);
  EXPECT_EQ(Cold.Store.Misses, 2u);
  EXPECT_EQ(Cold.Store.Writes, 2u);
  const CertificationReport Warm = SC.run(TwoMethods);
  EXPECT_EQ(Warm.Store.Hits, 2u);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.Store.Writes, 0u);
  EXPECT_EQ(Warm.Store.Quarantined, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());
  const CertificationReport Edited = SC.run(TwoMethodsMainEdited);
  EXPECT_EQ(Edited.Store.Hits, 1u);
  EXPECT_EQ(Edited.Store.Misses, 1u);
  EXPECT_EQ(Edited.Store.Writes, 1u);
  for (const CertificationReport *R : {&Cold, &Warm, &Edited})
    EXPECT_TRUE(R->Store.Incidents.empty());
  support::clearFaultPlan();

  // Quarantines count in the call that made them, not after it.
  {
    std::fstream Log(Dir + "/records.log",
                     std::ios::binary | std::ios::in | std::ios::out);
    Log.seekp(20);
    Log.put('\x5A');
  }
  SharedCertifier Fresh(Opts);
  const CertificationReport First = Fresh.run(TwoMethods);
  EXPECT_EQ(First.Store.Quarantined, 1u);
  EXPECT_TRUE(sawIncident(First, "StoreQuarantine"));
  EXPECT_EQ(First.str(), Cold.str());
  const CertificationReport Second = Fresh.run(TwoMethods);
  EXPECT_EQ(Second.Store.Quarantined, 0u);
  EXPECT_EQ(Second.Store.Misses, 0u);
}

TEST_F(StoreIncrementalTest, FailedOpenIsRetriedOnTheNextCall) {
  SharedCertifier SC(Opts);
  support::setFaultPlan({"store-open", 1, support::FaultKind::Throw});
  const CertificationReport Failed = SC.run(TwoMethods);
  support::clearFaultPlan();
  EXPECT_TRUE(sawIncident(Failed, "StoreIO"));
  EXPECT_EQ(Failed.Store.Hits + Failed.Store.Writes, 0u);
  const CertificationReport Retried = SC.run(TwoMethods);
  EXPECT_TRUE(Retried.Store.Incidents.empty());
  EXPECT_EQ(Retried.Store.Writes, 2u);
  EXPECT_EQ(Retried.str(), Failed.str());
  EXPECT_EQ(SC.run(TwoMethods).Store.Hits, 2u);
}

TEST_F(StoreIncrementalTest, OtherProcessesRecordsAndTombstonesReachAnOpenStore) {
  SharedCertifier SC(Opts);
  ASSERT_EQ(SC.run(TwoMethods).Store.Writes, 2u);

  // Another process certifies the edited client: it appends main()'s
  // new entry to the log this certifier already has open.
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    DiagnosticEngine D;
    Certifier Other(easl::cmpSpecSource(), EngineKind::SCMPIntra, D,
                    wp::DerivationOptions{}, Opts);
    const CertificationReport R = Other.certifySource(TwoMethodsMainEdited, D);
    ::_exit(R.Store.Writes == 1 ? 0 : 1);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  ASSERT_EQ(WEXITSTATUS(Status), 0);
  const CertificationReport Edited = SC.run(TwoMethodsMainEdited);
  EXPECT_EQ(Edited.Store.Hits, 2u);
  EXPECT_EQ(Edited.Store.Misses, 0u);

  // Another instance rejects other()'s entry: its tombstone wins here.
  {
    store::CertStore St(Dir, store::StoreMode::ReadWrite);
    for (const store::StoreEntry &E : St.listEntries())
      if (E.Unit == "M::other")
        St.evict(E.InputHash, E.Unit, "rejected by another instance");
  }
  const CertificationReport After = SC.run(TwoMethods);
  EXPECT_EQ(After.Store.Hits, 1u);
  EXPECT_EQ(After.Store.Misses, 1u);
  EXPECT_EQ(After.Store.Rejected, 0u);
  EXPECT_EQ(After.Store.Writes, 1u);
}

TEST_F(StoreIncrementalTest, StoreRemovedBetweenCallsIsReopened) {
  SharedCertifier SC(Opts);
  const CertificationReport Cold = SC.run(TwoMethods);
  ASSERT_EQ(Cold.Store.Writes, 2u);
  fs::remove_all(Dir);
  // The open log was unlinked: serving from it would be serving a store
  // that no longer exists. The call misses and writes again.
  const CertificationReport Again = SC.run(TwoMethods);
  EXPECT_EQ(Again.Store.Hits, 0u);
  EXPECT_EQ(Again.Store.Misses, 2u);
  EXPECT_EQ(Again.Store.Writes, 2u);
  EXPECT_TRUE(fs::exists(Dir + "/records.log"));
  EXPECT_EQ(SC.run(TwoMethods).Store.Hits, 2u);
}

} // namespace
