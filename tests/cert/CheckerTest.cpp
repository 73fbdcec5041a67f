//===----------------------------------------------------------------------===//
// Tests for the independent certificate checker: every analyzer-
// produced certificate must be accepted, and every seeded single-field
// tamper mutation (dropped annotation entry, weakened state, deleted
// path edge, flipped genuine pair, flipped claim, corrupted byte) must
// be rejected.
//===----------------------------------------------------------------------===//

#include "cert/Checker.h"

#include "cert/Emit.h"
#include "client/CFG.h"
#include "client/Parser.h"
#include "core/Certifier.h"
#include "easl/Builtins.h"
#include "tvla/Transfer.h"

#include <gtest/gtest.h>

#include <memory>

using namespace canvas;
using namespace canvas::core;

namespace {

const char *Fig3Client = R"(
  class Fig3 {
    void main() {
      Set v = new Set();
      Iterator i1 = v.iterator();
      Iterator i2 = v.iterator();
      Iterator i3 = i1;
      i1.next();
      i1.remove();
      if (*) { i2.next(); }
      if (*) { i3.next(); }
      v.add();
      if (*) { i1.next(); }
    }
  }
)";

/// One certified run with everything the independent checker needs kept
/// alive: the certifier (spec + abstraction), the parsed program, and
/// the client CFG built from the same trusted inputs.
struct CertRun {
  std::unique_ptr<Certifier> C;
  std::unique_ptr<cj::Program> P;
  cj::ClientCFG CFG;
  CertificationReport R;

  cert::Checker checker() const {
    return cert::Checker(C->spec(), C->abstraction(), CFG);
  }
};

CertRun makeRun(EngineKind K, const char *Client = Fig3Client,
            bool CheckInSupervisor = false) {
  CertRun Ru;
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.EmitCertificates = true;
  Opts.CheckCertificates = CheckInSupervisor;
  Ru.C = std::make_unique<Certifier>(easl::cmpSpecSource(), K, Diags,
                                     wp::DerivationOptions{}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Ru.P = std::make_unique<cj::Program>(cj::parseProgram(Client, Diags));
  Ru.CFG = cj::buildCFG(*Ru.P, Ru.C->spec(), Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Ru.R = Ru.C->certify(*Ru.P, Diags);
  return Ru;
}

uint32_t rdU32(const std::vector<uint8_t> &B, size_t P) {
  return static_cast<uint32_t>(B[P]) | (static_cast<uint32_t>(B[P + 1]) << 8) |
         (static_cast<uint32_t>(B[P + 2]) << 16) |
         (static_cast<uint32_t>(B[P + 3]) << 24);
}

void wrU32(std::vector<uint8_t> &B, size_t P, uint32_t V) {
  B[P] = static_cast<uint8_t>(V & 0xff);
  B[P + 1] = static_cast<uint8_t>((V >> 8) & 0xff);
  B[P + 2] = static_cast<uint8_t>((V >> 16) & 0xff);
  B[P + 3] = static_cast<uint8_t>((V >> 24) & 0xff);
}

void expectRejected(const CertRun &Ru, const cert::Certificate &C,
                    const char *What) {
  cert::CheckResult CR = Ru.checker().check(C);
  EXPECT_FALSE(CR.Valid) << What;
  EXPECT_FALSE(CR.Reason.empty()) << What;
}

//===----------------------------------------------------------------------===//
// Acceptance
//===----------------------------------------------------------------------===//

TEST(CertCheckerTest, AcceptsEveryAnalyzerProducedCertificate) {
  for (EngineKind K :
       {EngineKind::SCMPIntra, EngineKind::SCMPInterproc,
        EngineKind::GenericAllocSite, EngineKind::TVLAIndependent,
        EngineKind::TVLARelational}) {
    CertRun Ru = makeRun(K);
    EXPECT_FALSE(Ru.R.Degraded) << engineName(K);
    ASSERT_FALSE(Ru.R.Certificates.empty()) << engineName(K);
    EXPECT_EQ(Ru.R.CertStats.Count, Ru.R.Certificates.size());
    EXPECT_GT(Ru.R.CertStats.Bytes, 0u);
    for (const cert::Certificate &C : Ru.R.Certificates) {
      cert::CheckResult CR = Ru.checker().check(C);
      EXPECT_TRUE(CR.Valid)
          << engineName(K) << " " << C.Unit << ": " << CR.Reason;
    }
  }
}

TEST(CertCheckerTest, SupervisorSelfCheckPasses) {
  for (EngineKind K : {EngineKind::SCMPIntra, EngineKind::SCMPInterproc,
                       EngineKind::TVLARelational}) {
    CertRun Ru = makeRun(K, Fig3Client, /*CheckInSupervisor=*/true);
    EXPECT_FALSE(Ru.R.Degraded) << engineName(K);
    EXPECT_TRUE(Ru.R.CertStats.Checked) << engineName(K);
    EXPECT_GT(Ru.R.CertStats.CheckMicros, 0.0) << engineName(K);
  }
}

// A set with no iterators yields a zero-variable boolean program (or,
// under pre-analysis, a zero-variable slice) whose zero-width states
// are permanently disengaged. Emission and checking must agree on the
// coverage tags instead of leaning on engagement: this client once
// looped the analyzer forever, and its stored certificates were
// rejected ("entry node not covered") and quarantined.
TEST(CertCheckerTest, ZeroVariableSliceCertificateAccepted) {
  const char *Client = R"(
    class Mixed {
      void main() {
        Set s0 = new Set();
        Iterator i = s0.iterator();
        while (*) { i.next(); }
        Set s1 = new Set();
        s1.add();
      }
    }
  )";
  CertRun Ru = makeRun(EngineKind::SCMPIntra, Client);
  ASSERT_FALSE(Ru.R.Certificates.empty());
  for (const cert::Certificate &C : Ru.R.Certificates) {
    cert::CheckResult CR = Ru.checker().check(C);
    EXPECT_TRUE(CR.Valid) << C.Unit << ": " << CR.Reason;
  }
}

TEST(CertCheckerTest, RoundTrippedCertificatesStillVerify) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  std::vector<uint8_t> Blob = cert::serializeCertificates(Ru.R.Certificates);
  std::vector<cert::Certificate> Parsed;
  std::string Error;
  ASSERT_TRUE(cert::parseCertificates(Blob, Parsed, Error)) << Error;
  EXPECT_EQ(cert::serializeCertificates(Parsed), Blob);
  for (const cert::Certificate &C : Parsed) {
    cert::CheckResult CR = Ru.checker().check(C);
    EXPECT_TRUE(CR.Valid) << C.Unit << ": " << CR.Reason;
  }
}

TEST(CertCheckerTest, PruningStoresStrictlyFewerEntries) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  ASSERT_FALSE(Ru.R.Certificates.empty());
  const cert::Certificate &C = Ru.R.Certificates[0];
  EXPECT_EQ(C.Kind, cert::CertKind::BoolIntra);
  // Fig3::main has straight-line runs, so the ACC reconstruction rule
  // must prune at least one per-point state.
  EXPECT_LT(C.StoredEntries, C.RawEntries);
}

//===----------------------------------------------------------------------===//
// Tamper mutants: boolean-program intraprocedural
//===----------------------------------------------------------------------===//

/// Byte offset of each node's tag in a BoolIntra payload.
std::vector<size_t> boolIntraTagOffsets(const std::vector<uint8_t> &P) {
  uint32_t NumNodes = rdU32(P, 0);
  uint32_t NumVars = rdU32(P, 4);
  std::vector<size_t> Off(NumNodes);
  size_t Pos = 13; // NumNodes, NumVars, NumChecks, AssumeChecksPass.
  for (uint32_t N = 0; N != NumNodes; ++N) {
    Off[N] = Pos;
    uint8_t Tag = P[Pos++];
    if (Tag == 1)
      Pos += NumVars;
  }
  return Off;
}

TEST(CertTamperTest, BoolIntraDroppedEntryAnnotationRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  ASSERT_FALSE(Ru.R.Certificates.empty());
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::BoolIntra);
  const cj::CFGMethod *M = Ru.CFG.findMethod("Fig3", "main");
  ASSERT_NE(M, nullptr);

  std::vector<size_t> Off = boolIntraTagOffsets(C.Payload);
  uint32_t NumVars = rdU32(C.Payload, 4);
  ASSERT_GT(NumVars, 0u);
  size_t EntryTag = Off[M->Entry];
  ASSERT_EQ(C.Payload[EntryTag], 1u); // The entry is always stored.
  C.Payload[EntryTag] = 0;
  C.Payload.erase(C.Payload.begin() + static_cast<long>(EntryTag) + 1,
                  C.Payload.begin() + static_cast<long>(EntryTag) + 1 +
                      NumVars);
  C.seal();
  expectRejected(Ru, C, "dropped entry annotation");
}

TEST(CertTamperTest, BoolIntraWeakenedStateRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::BoolIntra);
  const cj::CFGMethod *M = Ru.CFG.findMethod("Fig3", "main");
  ASSERT_NE(M, nullptr);

  // Shrink the entry state's first variable from Both to One: the
  // annotation no longer covers the engine's initial fact.
  std::vector<size_t> Off = boolIntraTagOffsets(C.Payload);
  size_t FirstVar = Off[M->Entry] + 1;
  ASSERT_EQ(C.Payload[FirstVar], 3u); // ValueSet::Both at entry.
  C.Payload[FirstVar] = 2;            // ValueSet::One.
  C.seal();
  expectRejected(Ru, C, "weakened entry state");
}

TEST(CertTamperTest, BoolIntraFlippedClaimRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::BoolIntra);
  size_t SafeIdx = C.Claims.size();
  for (size_t I = 0; I != C.Claims.size(); ++I)
    if (C.Claims[I].Outcome == CheckOutcome::Safe)
      SafeIdx = I;
  ASSERT_LT(SafeIdx, C.Claims.size()) << "expected a Safe claim on Fig3";
  C.Claims[SafeIdx].Outcome = CheckOutcome::Unreachable;
  C.seal();
  expectRejected(Ru, C, "Safe claim flipped to Unreachable");
}

TEST(CertTamperTest, CorruptedByteWithoutResealRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPIntra);
  cert::Certificate C = Ru.R.Certificates[0];
  C.Payload[C.Payload.size() / 2] ^= 0x20; // No re-seal: hash mismatch.
  expectRejected(Ru, C, "corrupted payload byte");
}

//===----------------------------------------------------------------------===//
// Tamper mutants: interprocedural IFDS
//===----------------------------------------------------------------------===//

TEST(CertTamperTest, IfdsDeletedPathEdgeRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPInterproc);
  ASSERT_EQ(Ru.R.Certificates.size(), 1u);
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::Ifds);

  uint32_t NumPE = rdU32(C.Payload, 8);
  ASSERT_GT(NumPE, 0u);
  size_t Last = 12 + 16 * static_cast<size_t>(NumPE - 1);
  C.Payload.erase(C.Payload.begin() + static_cast<long>(Last),
                  C.Payload.begin() + static_cast<long>(Last) + 16);
  wrU32(C.Payload, 8, NumPE - 1);
  C.seal();
  expectRejected(Ru, C, "deleted path edge");
}

TEST(CertTamperTest, IfdsDeletedGenuinePairRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPInterproc);
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::Ifds);

  uint32_t NumPE = rdU32(C.Payload, 8);
  size_t GenPos = 12 + 16 * static_cast<size_t>(NumPE);
  uint32_t NumGenuine = rdU32(C.Payload, GenPos);
  ASSERT_GT(NumGenuine, 0u); // main() is always genuine.
  C.Payload.erase(C.Payload.end() - 8, C.Payload.end());
  wrU32(C.Payload, GenPos, NumGenuine - 1);
  C.seal();
  expectRejected(Ru, C, "deleted genuine pair");
}

TEST(CertTamperTest, IfdsInflatedPathEdgeCountRejected) {
  // A count the payload cannot hold is a malformed payload, not an
  // allocation the checker attempts.
  CertRun Ru = makeRun(EngineKind::SCMPInterproc);
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::Ifds);
  wrU32(C.Payload, 8, 0xffffffffu);
  C.seal();
  expectRejected(Ru, C, "path-edge count past the payload");
}

TEST(CertTamperTest, IfdsFlippedClaimRejected) {
  CertRun Ru = makeRun(EngineKind::SCMPInterproc);
  cert::Certificate C = Ru.R.Certificates[0];
  size_t SafeIdx = C.Claims.size();
  for (size_t I = 0; I != C.Claims.size(); ++I)
    if (C.Claims[I].Outcome == CheckOutcome::Safe)
      SafeIdx = I;
  ASSERT_LT(SafeIdx, C.Claims.size());
  C.Claims[SafeIdx].Outcome = CheckOutcome::Unreachable;
  C.seal();
  expectRejected(Ru, C, "IFDS Safe claim flipped to Unreachable");
}

//===----------------------------------------------------------------------===//
// Tamper mutants: TVLA
//===----------------------------------------------------------------------===//

TEST(CertTamperTest, TvlaDroppedEntryStructuresRejected) {
  CertRun Ru = makeRun(EngineKind::TVLARelational);
  ASSERT_FALSE(Ru.R.Certificates.empty());
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::TvlaRelational);
  const cj::CFGMethod *M = Ru.CFG.findMethod("Fig3", "main");
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(C.Unit, M->name());

  DiagnosticEngine Quiet;
  tvla::Transfer T(Ru.C->abstraction(), *M, Quiet);
  const tvp::Vocabulary &V = T.vocabulary();

  // Structurally rewrite the payload with the entry point's structure
  // set emptied: the empty initial structure is no longer covered.
  cert::Reader R(C.Payload);
  cert::Writer W;
  W.u8(R.u8());
  uint32_t NumNodes = R.u32(), NumPreds = R.u32(), NumChecks = R.u32();
  ASSERT_EQ(NumPreds, V.Preds.size());
  W.u32(NumNodes);
  W.u32(NumPreds);
  W.u32(NumChecks);
  uint32_t NumUnique = R.u32();
  W.u32(NumUnique);
  for (uint32_t I = 0; I != NumUnique; ++I) {
    tvla::Structure S(V);
    std::string Error;
    ASSERT_TRUE(cert::readStructure(R, V, S, Error)) << Error;
    cert::writeStructure(W, S, V);
  }
  for (uint32_t N = 0; N != NumNodes; ++N) {
    uint8_t Tag = R.u8();
    if (N == static_cast<uint32_t>(M->Entry)) {
      ASSERT_EQ(Tag, 1);
      uint32_t Count = R.u32();
      ASSERT_GT(Count, 0u);
      for (uint32_t I = 0; I != Count; ++I)
        (void)R.u32();
      W.u8(1);
      W.u32(0);
      continue;
    }
    W.u8(Tag);
    if (Tag == 1) {
      uint32_t Count = R.u32();
      W.u32(Count);
      for (uint32_t I = 0; I != Count; ++I)
        W.u32(R.u32());
    }
  }
  ASSERT_TRUE(R.done());
  C.Payload = W.take();
  C.seal();
  expectRejected(Ru, C, "dropped TVLA entry structures");
}

TEST(CertTamperTest, TvlaFlippedClaimRejected) {
  CertRun Ru = makeRun(EngineKind::TVLARelational);
  cert::Certificate C = Ru.R.Certificates[0];
  size_t SafeIdx = C.Claims.size();
  for (size_t I = 0; I != C.Claims.size(); ++I)
    if (C.Claims[I].Outcome == CheckOutcome::Safe)
      SafeIdx = I;
  ASSERT_LT(SafeIdx, C.Claims.size());
  C.Claims[SafeIdx].Outcome = CheckOutcome::Unreachable;
  C.seal();
  expectRejected(Ru, C, "TVLA Safe claim flipped to Unreachable");
}

//===----------------------------------------------------------------------===//
// Tamper mutants: allocation-site baseline
//===----------------------------------------------------------------------===//

TEST(CertTamperTest, AllocSiteDroppedSiteRejected) {
  CertRun Ru = makeRun(EngineKind::GenericAllocSite);
  ASSERT_FALSE(Ru.R.Certificates.empty());
  cert::Certificate C = Ru.R.Certificates[0];
  ASSERT_EQ(C.Kind, cert::CertKind::AllocSite);

  size_t Pos = 4;                         // NumNodes.
  uint32_t MultiCount = rdU32(C.Payload, Pos);
  Pos += 4 + 4 * static_cast<size_t>(MultiCount);
  uint32_t NumSites = rdU32(C.Payload, Pos);
  ASSERT_GT(NumSites, 0u);
  size_t Last = Pos + 4 + 12 * static_cast<size_t>(NumSites - 1);
  C.Payload.erase(C.Payload.begin() + static_cast<long>(Last),
                  C.Payload.begin() + static_cast<long>(Last) + 12);
  wrU32(C.Payload, Pos, NumSites - 1);
  C.seal();
  expectRejected(Ru, C, "dropped obligation site");
}

TEST(CertTamperTest, AllocSiteFlaggedSiteClaimedSafeRejected) {
  CertRun Ru = makeRun(EngineKind::GenericAllocSite);
  // The generic baseline cannot verify Fig3 (Section 3): at least one
  // obligation is flagged, so some site index has no Safe claim.
  ASSERT_GT(Ru.R.numFlagged(), 0u);
  cert::Certificate C = Ru.R.Certificates[0];

  size_t Pos = 4;
  uint32_t MultiCount = rdU32(C.Payload, Pos);
  Pos += 4 + 4 * static_cast<size_t>(MultiCount);
  uint32_t NumSites = rdU32(C.Payload, Pos);
  uint32_t Flagged = NumSites;
  for (uint32_t I = 0; I != NumSites; ++I) {
    bool Claimed = false;
    for (const cert::Claim &Cl : C.Claims)
      Claimed |= Cl.Check == I;
    if (!Claimed) {
      Flagged = I;
      break;
    }
  }
  ASSERT_LT(Flagged, NumSites);
  C.Claims.push_back({Flagged, CheckOutcome::Safe});
  C.seal();
  expectRejected(Ru, C, "flagged site claimed Safe");
}

} // namespace
