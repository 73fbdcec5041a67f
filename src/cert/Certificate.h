//===----------------------------------------------------------------------===//
///
/// \file
/// The proof-carrying certificate format backing Proven verdicts: the
/// fixpoint evidence an engine emits once (per-point abstract states,
/// path-edge sets, interned-structure sets) so that an independent
/// single-pass checker (cert/Checker.h) can re-validate the verdicts
/// without re-running any fixpoint. The shape follows abstraction-
/// carrying code: certificates are closed annotations, and a checker
/// only needs the transfer-function evaluators — never the worklists,
/// caps, or memo caches — to confirm closure.
///
/// A certificate is content-hashed (FNV-1a over the serialized record)
/// so a cert store can key re-validation on identity, and carries the
/// raw-vs-stored entry counts documenting the ACC pruning trick applied
/// at emission.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CERT_CERTIFICATE_H
#define CANVAS_CERT_CERTIFICATE_H

#include "core/Verdict.h"

#include <cstdint>
#include <string>
#include <vector>

namespace canvas {
namespace cert {

/// Which engine's evidence the payload encodes.
enum class CertKind : uint8_t {
  BoolIntra = 1,      ///< SCMPIntra possible-value annotation (pruned).
  Ifds = 2,           ///< SCMPInterproc path-edge/summary tabulation.
  TvlaIndependent = 3, ///< One structure per point.
  TvlaRelational = 4,  ///< Structure set per point.
  AllocSite = 5,       ///< Allocation-site states + summarized sites.
  /// SCMPIntra annotation of a partitioned boolean program plus the
  /// evidence that the slice partition itself is sound (a must-assigned
  /// annotation; the checker re-derives the syntactic gates).
  SlicePartition = 6,
};

const char *certKindName(CertKind K);

/// One verdict the certificate justifies: the check's index in the
/// unit's canonical check enumeration (boolean-program check order,
/// tvla::Transfer::checks() order, InterprocModel::anchors() order, or
/// sorted CheckSite order for AllocSite) and the claimed outcome. Only
/// proven outcomes (Safe, Unreachable) require justification; violation
/// verdicts are certified separately by witness replay.
struct Claim {
  uint32_t Check = 0;
  core::CheckOutcome Outcome = core::CheckOutcome::Safe;
};

struct Certificate {
  CertKind Kind = CertKind::BoolIntra;
  /// Analyzed unit: "Class::method" for per-method engines, "" for the
  /// whole-program interprocedural engine.
  std::string Unit;
  std::vector<Claim> Claims;
  /// Kind-specific binary evidence (see cert/Emit.cpp for layouts).
  std::vector<uint8_t> Payload;
  /// Annotation entries the engine computed / actually serialized
  /// (StoredEntries < RawEntries documents reconstruction pruning).
  uint32_t RawEntries = 0;
  uint32_t StoredEntries = 0;
  /// FNV-1a over the serialized record with this field zeroed.
  uint64_t ContentHash = 0;

  /// Serialized size in bytes (the exact length serialize() appends).
  size_t bytes() const;
  /// Computes the content hash of the current field values.
  uint64_t computeHash() const;
  /// Stamps ContentHash; call after the payload and claims are final.
  void seal() { ContentHash = computeHash(); }
};

/// Bounds-checked little-endian readers/writers shared by the payload
/// codecs and the container format. Writer never fails; Reader latches
/// a failure flag instead of throwing so a truncated or hostile buffer
/// degrades to a parse error.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void str(const std::string &S);
  void bytes(const std::vector<uint8_t> &B);
  std::vector<uint8_t> take() { return std::move(Buf); }
  const std::vector<uint8_t> &buffer() const { return Buf; }

private:
  std::vector<uint8_t> Buf;
};

class Reader {
public:
  Reader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit Reader(const std::vector<uint8_t> &B)
      : Reader(B.data(), B.size()) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  std::string str();
  std::vector<uint8_t> bytes();

  bool failed() const { return Fail; }
  bool atEnd() const { return Pos == Size; }
  /// True iff the whole buffer was consumed without a bounds failure.
  bool done() const { return !Fail && atEnd(); }

private:
  bool take(size_t N);

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Fail = false;
};

/// FNV-1a 64-bit over \p Data, continuing from \p Seed.
uint64_t fnv1a(const uint8_t *Data, size_t Size,
               uint64_t Seed = 0xcbf29ce484222325ull);

/// Serializes certificates into the "CNVC1" container (magic, count,
/// then one record per certificate). Deterministic: re-serializing a
/// parsed container is byte-identical.
std::vector<uint8_t>
serializeCertificates(const std::vector<Certificate> &Certs);

/// Parses a container produced by serializeCertificates. Returns false
/// (with \p Error set) on malformed input or a content-hash mismatch.
bool parseCertificates(const std::vector<uint8_t> &Data,
                       std::vector<Certificate> &Out, std::string &Error);

} // namespace cert
} // namespace canvas

#endif // CANVAS_CERT_CERTIFICATE_H
