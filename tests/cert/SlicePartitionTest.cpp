//===----------------------------------------------------------------------===//
// Tests for SlicePartition certificates: the SCMPIntra engine certifies
// a method that splits into slices with one partitioned boolean program
// and emits one certificate carrying the partition, the must-assigned
// gate, and the one annotation. The independent checker must accept
// every analyzer-produced certificate and reject every tampered or
// forged one — moved variables, a partition of a method the gates keep
// whole, inflated must-assigned annotations, a nonzero mode byte, and
// flipped claims.
//===----------------------------------------------------------------------===//

#include "cert/Checker.h"

#include "boolprog/Analysis.h"
#include "cert/Emit.h"
#include "client/CFG.h"
#include "client/Parser.h"
#include "core/Certifier.h"
#include "dataflow/DefiniteAssignment.h"
#include "easl/Builtins.h"

#include <gtest/gtest.h>

#include <memory>

using namespace canvas;
using namespace canvas::core;

namespace {

// Two independent pipelines, locals only: the slicing gates pass.
const char *PipelinesClient = R"(
  class Pipelines {
    void main() {
      Set a = new Set();
      Iterator ia = a.iterator();
      Set b = new Set();
      Iterator ib = b.iterator();
      while (*) { ia.next(); }
      ib.next();
      if (*) { b.add(); }
      ib.next();
    }
  }
)";

// Four heap-stashed pipelines that never interfere: the heap gate still
// keeps the method in a single slice.
const char *StashedPairsClient = R"(
  class Stash {
    Set s;
  }
  class Pairs {
    void main() {
      Stash u = new Stash();
      Stash v = new Stash();
      Stash w = new Stash();
      Stash x = new Stash();
      Set s1 = new Set();
      Set s2 = new Set();
      Set s3 = new Set();
      Set s4 = new Set();
      u.s = s1;
      v.s = s2;
      w.s = s3;
      x.s = s4;
      Iterator i1 = s1.iterator();
      Iterator i2 = s2.iterator();
      Iterator i3 = s3.iterator();
      Iterator i4 = s4.iterator();
      while (*) { i1.next(); if (*) { i1.remove(); } }
      i2.next();
      if (*) { s2.add(); }
      if (*) { i2.next(); }
      while (*) { i3.next(); }
      if (*) { s3.add(); }
      i4.next();
      if (*) { i4.remove(); }
    }
  }
)";

struct CertRun {
  std::unique_ptr<Certifier> C;
  std::unique_ptr<cj::Program> P;
  cj::ClientCFG CFG;
  CertificationReport R;

  cert::Checker checker() const {
    return cert::Checker(C->spec(), C->abstraction(), CFG);
  }
};

CertRun makeRun(const char *Client) {
  CertRun Ru;
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.EmitCertificates = true;
  Opts.CheckCertificates = true;
  Ru.C = std::make_unique<Certifier>(easl::cmpSpecSource(),
                                     EngineKind::SCMPIntra, Diags,
                                     wp::DerivationOptions{}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Ru.P = std::make_unique<cj::Program>(cj::parseProgram(Client, Diags));
  Ru.CFG = cj::buildCFG(*Ru.P, Ru.C->spec(), Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Ru.R = Ru.C->certify(*Ru.P, Diags);
  return Ru;
}

const cert::Certificate *findPartition(const CertificationReport &R) {
  for (const cert::Certificate &C : R.Certificates)
    if (C.Kind == cert::CertKind::SlicePartition)
      return &C;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Structural payload codec for tamper tests: mirrors the layout
// cert::emitSlicePartition writes (see src/cert/Emit.cpp).
//===----------------------------------------------------------------------===//

struct SP {
  uint8_t Mode = 0;
  uint8_t Assume = 0;
  uint32_t NumNodes = 0;
  uint32_t NumCompVars = 0;
  struct DANode {
    bool Covered = false;
    /// Indices of the set bits of the node's must-assigned bitset.
    std::vector<uint32_t> Must;
  };
  std::vector<DANode> DA;
  std::vector<std::vector<std::string>> Slices;
  uint32_t BPVars = 0;
  uint32_t BPChecks = 0;
  /// Per node: the tag plus, for tag 1, the stored state bytes.
  std::vector<std::vector<uint8_t>> Nodes;
};

SP parseSP(const std::vector<uint8_t> &Payload) {
  SP S;
  cert::Reader R(Payload);
  S.Mode = R.u8();
  S.Assume = R.u8();
  S.NumNodes = R.u32();
  S.NumCompVars = R.u32();
  S.DA.resize(S.NumNodes);
  for (uint32_t N = 0; N != S.NumNodes; ++N) {
    if (!R.u8())
      continue;
    S.DA[N].Covered = true;
    for (uint32_t Byte = 0; Byte * 8 < S.NumCompVars; ++Byte) {
      const uint8_t Bits = R.u8();
      for (uint32_t Bit = 0; Bit != 8; ++Bit)
        if ((Bits >> Bit) & 1)
          S.DA[N].Must.push_back(Byte * 8 + Bit);
    }
  }
  S.Slices.resize(R.u32());
  for (std::vector<std::string> &Sl : S.Slices) {
    uint32_t Len = R.u32();
    for (uint32_t I = 0; I != Len; ++I)
      Sl.push_back(R.str());
  }
  S.BPVars = R.u32();
  S.BPChecks = R.u32();
  S.Nodes.resize(S.NumNodes);
  for (uint32_t N = 0; N != S.NumNodes; ++N) {
    uint8_t Tag = R.u8();
    S.Nodes[N].push_back(Tag);
    if (Tag == 1)
      for (uint32_t V = 0; V != S.BPVars; ++V)
        S.Nodes[N].push_back(R.u8());
  }
  EXPECT_TRUE(R.done()) << "parseSP did not consume the whole payload";
  return S;
}

std::vector<uint8_t> buildSP(const SP &S) {
  cert::Writer W;
  W.u8(S.Mode);
  W.u8(S.Assume);
  W.u32(S.NumNodes);
  W.u32(S.NumCompVars);
  for (const SP::DANode &N : S.DA) {
    if (!N.Covered) {
      W.u8(0);
      continue;
    }
    W.u8(1);
    std::vector<uint8_t> Bytes((S.NumCompVars + 7) / 8, 0);
    for (uint32_t V : N.Must)
      Bytes[V / 8] |= static_cast<uint8_t>(1u << (V % 8));
    for (uint8_t B : Bytes)
      W.u8(B);
  }
  W.u32(static_cast<uint32_t>(S.Slices.size()));
  for (const std::vector<std::string> &Sl : S.Slices) {
    W.u32(static_cast<uint32_t>(Sl.size()));
    for (const std::string &V : Sl)
      W.str(V);
  }
  W.u32(S.BPVars);
  W.u32(S.BPChecks);
  for (const std::vector<uint8_t> &N : S.Nodes)
    for (uint8_t B : N)
      W.u8(B);
  return W.take();
}

void expectRejected(const CertRun &Ru, const cert::Certificate &C,
                    const char *What, const char *ReasonFragment = nullptr) {
  cert::CheckResult CR = Ru.checker().check(C);
  EXPECT_FALSE(CR.Valid) << What;
  EXPECT_FALSE(CR.Reason.empty()) << What;
  if (ReasonFragment) {
    EXPECT_NE(CR.Reason.find(ReasonFragment), std::string::npos)
        << What << ": " << CR.Reason;
  }
}

//===----------------------------------------------------------------------===//
// Acceptance
//===----------------------------------------------------------------------===//

TEST(SlicePartitionTest, SyntacticSlicesEmitAcceptedMode0Certificate) {
  CertRun Ru = makeRun(PipelinesClient);
  EXPECT_FALSE(Ru.R.Degraded) << Ru.R.str();
  EXPECT_TRUE(Ru.R.CertStats.Checked);
  const cert::Certificate *C = findPartition(Ru.R);
  ASSERT_NE(C, nullptr) << "pipelines client did not split";

  SP S = parseSP(C->Payload);
  EXPECT_EQ(S.Mode, 0u);
  EXPECT_GE(S.Slices.size(), 2u);

  cert::CheckResult CR = Ru.checker().check(*C);
  EXPECT_TRUE(CR.Valid) << CR.Reason;
  // One partitioned program, not one per slice.
  EXPECT_EQ(Ru.R.Pre.MultiSliceMethods, 1u);
  EXPECT_EQ(Ru.R.Pre.SliceRuns, 1u);
}

TEST(SlicePartitionTest, HeapStoresForceOneSliceAndBoolIntraCertificate) {
  CertRun Ru = makeRun(StashedPairsClient);
  EXPECT_FALSE(Ru.R.Degraded) << Ru.R.str();
  EXPECT_EQ(findPartition(Ru.R), nullptr);
  ASSERT_FALSE(Ru.R.SliceSummaries.empty());
  EXPECT_EQ(Ru.R.SliceSummaries[0].Slices, 1u);
  EXPECT_NE(Ru.R.SliceSummaries[0].ForcedSingleReason.find("heap"),
            std::string::npos);
  ASSERT_EQ(Ru.R.Certificates.size(), 1u);
  EXPECT_EQ(Ru.R.Certificates[0].Kind, cert::CertKind::BoolIntra);
}

TEST(SlicePartitionTest, SurvivesSerializationRoundTrip) {
  CertRun Ru = makeRun(PipelinesClient);
  ASSERT_NE(findPartition(Ru.R), nullptr);
  std::vector<uint8_t> Blob = cert::serializeCertificates(Ru.R.Certificates);
  std::vector<cert::Certificate> Parsed;
  std::string Error;
  ASSERT_TRUE(cert::parseCertificates(Blob, Parsed, Error)) << Error;
  for (const cert::Certificate &C : Parsed) {
    cert::CheckResult CR = Ru.checker().check(C);
    EXPECT_TRUE(CR.Valid) << C.Unit << ": " << CR.Reason;
  }
}

//===----------------------------------------------------------------------===//
// Tamper mutants
//===----------------------------------------------------------------------===//

TEST(SlicePartitionTamperTest, MovedVariableAcrossSlicesRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  SP S = parseSP(C.Payload);
  ASSERT_EQ(S.Slices.size(), 2u);

  // Swap ia and ib between the slices: each iterator now sits apart
  // from the set that created it.
  auto Swap = [&](const std::string &A, const std::string &B) {
    for (std::vector<std::string> &Sl : S.Slices)
      for (std::string &V : Sl) {
        if (V == A)
          V = B;
        else if (V == B)
          V = A;
      }
  };
  Swap("ia", "ib");
  C.Payload = buildSP(S);
  C.seal();
  expectRejected(Ru, C, "variable moved across slices",
                 "an action relates variables across slices");
}

TEST(SlicePartitionTamperTest, NonZeroModeRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  ASSERT_EQ(C.Payload[0], 0u);
  C.Payload[0] = 1;
  C.seal();
  expectRejected(Ru, C, "mode byte set to 1", "bad partition mode");
}

TEST(SlicePartitionTamperTest, InflatedMustAssignedAnnotationRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  const cj::CFGMethod *M = Ru.CFG.findMethod("Pipelines", "main");
  ASSERT_NE(M, nullptr);

  // main() has no parameters, so claiming any variable assigned at
  // entry overclaims what the environment provides.
  SP S = parseSP(C.Payload);
  ASSERT_TRUE(S.DA[M->Entry].Covered);
  ASSERT_TRUE(S.DA[M->Entry].Must.empty());
  S.DA[M->Entry].Must.push_back(0);
  C.Payload = buildSP(S);
  C.seal();
  expectRejected(Ru, C, "inflated entry must-assigned set", "parameters");
}

TEST(SlicePartitionTamperTest, OutOfRangeMustAssignedVariableRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  SP S = parseSP(C.Payload);
  // Set a padding bit of the last byte: a variable index past the
  // method's component variables.
  ASSERT_NE(S.NumCompVars % 8, 0u);
  bool Poisoned = false;
  for (SP::DANode &N : S.DA)
    if (N.Covered && !N.Must.empty()) {
      N.Must.push_back(S.NumCompVars);
      Poisoned = true;
      break;
    }
  ASSERT_TRUE(Poisoned);
  C.Payload = buildSP(S);
  C.seal();
  expectRejected(Ru, C, "out-of-range must-assigned variable");
}

TEST(SlicePartitionTamperTest, ForgedPartitionOfHeapMethodRejected) {
  CertRun Ru = makeRun(StashedPairsClient);
  const cj::CFGMethod *M = Ru.CFG.findMethod("Pairs", "main");
  ASSERT_NE(M, nullptr);

  // The four pipelines never interfere, but the heap stores keep the
  // engine from proving it: a partition built and solved outside the
  // engine, with honest must-assigned evidence, is still refused.
  const std::vector<std::vector<std::string>> Pipelines = {
      {"s1", "i1"}, {"s2", "i2"}, {"s3", "i3"}, {"s4", "i4"}};
  ASSERT_EQ(M->CompVars.size(), 8u);
  DiagnosticEngine Diags;
  const bp::BooleanProgram BP =
      bp::buildBooleanProgram(Ru.C->abstraction(), *M, Diags, Pipelines);
  const bp::IntraResult R = bp::analyzeIntraproc(BP);
  std::vector<dataflow::BitVector> MayUninit;
  dataflow::analyzeDefiniteAssignment(*M, dataflow::CFGInfo(*M),
                                      &Ru.C->abstraction(), nullptr,
                                      &MayUninit);
  const cert::Certificate C =
      cert::emitSlicePartition(Pipelines, BP, R, MayUninit);
  expectRejected(Ru, C, "forged partition of a heap method", "heap");
}

TEST(SlicePartitionTamperTest, FlippedClaimRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  size_t SafeIdx = C.Claims.size();
  for (size_t I = 0; I != C.Claims.size(); ++I)
    if (C.Claims[I].Outcome == CheckOutcome::Safe)
      SafeIdx = I;
  ASSERT_LT(SafeIdx, C.Claims.size()) << "expected a Safe claim";
  C.Claims[SafeIdx].Outcome = CheckOutcome::Unreachable;
  C.seal();
  expectRejected(Ru, C, "Safe claim flipped to Unreachable");
}

TEST(SlicePartitionTamperTest, CorruptedByteWithoutResealRejected) {
  CertRun Ru = makeRun(PipelinesClient);
  cert::Certificate C = *findPartition(Ru.R);
  C.Payload[C.Payload.size() / 2] ^= 0x40;
  expectRejected(Ru, C, "corrupted payload byte");
}

} // namespace
