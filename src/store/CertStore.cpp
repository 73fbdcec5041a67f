//===----------------------------------------------------------------------===//
///
/// \file
/// Store implementation. The log is a sequence of frames, each a 16-byte
/// header (magic, version, payload length, CRC-32 of the payload) and
/// its payload. Entry frames carry a whole StoreEntry; tombstone frames
/// carry only the key they revoke.
///
/// A put is one write of one frame at the end of the log, under the
/// lock. A crash mid-write leaves a frame whose header promises more
/// bytes than the file holds: readers stop indexing there, so the key
/// still reads as its pre-state, and the next writer truncates the tail
/// before it appends. Corruption that slips past the framing (bit rot,
/// hostile edits) is caught by the CRC on open, by the full decode on
/// get, and by the checker gate on use.
///
//===----------------------------------------------------------------------===//

#include "store/CertStore.h"

#include "store/InputHash.h"
#include "support/Budget.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

constexpr uint32_t FrameMagic = 0x53564E43; // "CNVS" little-endian.
constexpr uint32_t TombMagic = 0x44564E43;  // "CNVD" little-endian.
constexpr size_t HeaderSize = 16;
/// The open scan reads the log in chunks of this size (a frame larger
/// than a chunk gets a buffer of its own size).
constexpr size_t ScanChunk = 64 * 1024;
constexpr const char *ManifestLine = "canvas-cert-store v2\n";

[[noreturn]] void ioError(std::string What) {
  throw CertifyError(CertifyErrorKind::StoreIO, std::move(What), "store");
}

std::string errnoText() { return std::strerror(errno); }

std::string hex(uint64_t V, int Digits) {
  static const char *Hex = "0123456789abcdef";
  std::string Out(Digits, '0');
  for (int I = Digits - 1; I >= 0; --I, V >>= 4)
    Out[I] = Hex[V & 0xF];
  return Out;
}

/// Reads up to \p Size bytes at \p Offset, stopping early only at the
/// end of the file; returns the count read, or -1 on an I/O error.
ssize_t readAt(int Fd, uint8_t *Out, size_t Size, uint64_t Offset) {
  size_t Got = 0;
  while (Got != Size) {
    const ssize_t N =
        ::pread(Fd, Out + Got, Size - Got, static_cast<off_t>(Offset + Got));
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return -1;
    if (N == 0)
      break;
    Got += static_cast<size_t>(N);
  }
  return static_cast<ssize_t>(Got);
}

bool pwriteAll(int Fd, const uint8_t *Data, size_t Size, uint64_t Offset) {
  while (Size) {
    const ssize_t N = ::pwrite(Fd, Data, Size, static_cast<off_t>(Offset));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data += N;
    Size -= static_cast<size_t>(N);
    Offset += static_cast<uint64_t>(N);
  }
  return true;
}

struct Header {
  uint32_t Magic = 0;
  uint32_t Version = 0;
  uint32_t Len = 0;
  uint32_t Crc = 0;
};

Header readHeader(const uint8_t *P) {
  cert::Reader R(P, HeaderSize);
  Header H;
  H.Magic = R.u32();
  H.Version = R.u32();
  H.Len = R.u32();
  H.Crc = R.u32();
  return H;
}

std::vector<uint8_t> frame(uint32_t Magic, const std::vector<uint8_t> &Payload) {
  cert::Writer W;
  W.u32(Magic);
  W.u32(EntryFormatVersion);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(crc32(Payload.data(), Payload.size()));
  std::vector<uint8_t> Out = W.take();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

/// Entry and tombstone payloads both start with the key.
std::vector<uint8_t> encodeKey(uint64_t InputHash, const std::string &Unit) {
  cert::Writer W;
  W.u64(InputHash);
  W.str(Unit);
  return W.take();
}

void encodeLoc(cert::Writer &W, SourceLoc L) {
  W.u32(L.Line);
  W.u32(L.Col);
}

SourceLoc decodeLoc(cert::Reader &R) {
  SourceLoc L;
  L.Line = R.u32();
  L.Col = R.u32();
  return L;
}

std::vector<uint8_t> encodeEntry(const StoreEntry &E) {
  cert::Writer W;
  W.u64(E.InputHash);
  W.str(E.Unit);
  W.str(E.Engine);
  W.u32(static_cast<uint32_t>(E.Checks.size()));
  for (const core::CheckRecord &C : E.Checks) {
    W.str(C.Method);
    encodeLoc(W, C.Loc);
    W.str(C.What);
    W.u8(static_cast<uint8_t>(C.Outcome));
    encodeLoc(W, C.ReqLoc);
    W.u8(C.Degraded ? 1 : 0);
    W.str(C.DegradeNote);
    W.str(C.Witness.SeedFact);
    W.u32(static_cast<uint32_t>(C.Witness.Steps.size()));
    for (const core::WitnessStep &S : C.Witness.Steps) {
      W.u8(static_cast<uint8_t>(S.K));
      W.str(S.Method);
      W.i32(S.Edge);
      encodeLoc(W, S.Loc);
      W.str(S.ActionText);
      W.str(S.Fact);
    }
  }
  W.u8(E.HasCert ? 1 : 0);
  if (E.HasCert) {
    W.u64(E.CertHash);
    W.bytes(cert::serializeCertificates({E.Cert}));
  }
  return W.take();
}

bool decodeEntry(const uint8_t *Payload, size_t Size, StoreEntry &Out,
                 std::string &Error) {
  cert::Reader R(Payload, Size);
  Out.InputHash = R.u64();
  Out.Unit = R.str();
  Out.Engine = R.str();
  const uint32_t NumChecks = R.u32();
  for (uint32_t I = 0; I != NumChecks && !R.failed(); ++I) {
    core::CheckRecord C;
    C.Method = R.str();
    C.Loc = decodeLoc(R);
    C.What = R.str();
    uint8_t O = R.u8();
    if (O > static_cast<uint8_t>(core::CheckOutcome::Unreachable)) {
      Error = "out-of-range check outcome";
      return false;
    }
    C.Outcome = static_cast<core::CheckOutcome>(O);
    C.ReqLoc = decodeLoc(R);
    C.Degraded = R.u8() != 0;
    C.DegradeNote = R.str();
    C.Witness.SeedFact = R.str();
    const uint32_t NumSteps = R.u32();
    for (uint32_t J = 0; J != NumSteps && !R.failed(); ++J) {
      core::WitnessStep S;
      uint8_t K = R.u8();
      if (K > static_cast<uint8_t>(core::WitnessStep::Kind::Check)) {
        Error = "out-of-range witness step kind";
        return false;
      }
      S.K = static_cast<core::WitnessStep::Kind>(K);
      S.Method = R.str();
      S.Edge = R.i32();
      S.Loc = decodeLoc(R);
      S.ActionText = R.str();
      S.Fact = R.str();
      C.Witness.Steps.push_back(std::move(S));
    }
    Out.Checks.push_back(std::move(C));
  }
  Out.HasCert = R.u8() != 0;
  if (Out.HasCert) {
    Out.CertHash = R.u64();
    std::vector<uint8_t> Container = R.bytes();
    if (R.failed()) {
      Error = "truncated payload";
      return false;
    }
    std::vector<cert::Certificate> Certs;
    // parseCertificates re-verifies each certificate's content hash, so
    // a tampered certificate body dies here, before the checker gate.
    if (!cert::parseCertificates(Container, Certs, Error))
      return false;
    if (Certs.size() != 1) {
      Error = "entry must embed exactly one certificate";
      return false;
    }
    Out.Cert = std::move(Certs[0]);
    if (Out.CertHash != Out.Cert.ContentHash) {
      Error = "stored certificate hash disagrees with the certificate";
      return false;
    }
  }
  if (!R.done()) {
    Error = "truncated or oversized payload";
    return false;
  }
  return true;
}

} // namespace

uint32_t store::crc32(const uint8_t *Data, size_t Size) {
  // Slicing-by-8: T[S][B] is the CRC of byte B followed by S zero bytes,
  // so eight input bytes fold into the register with eight lookups.
  static const auto T = [] {
    std::array<std::array<uint32_t, 256>, 8> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
      T[0][I] = C;
    }
    for (uint32_t I = 0; I != 256; ++I)
      for (int S = 1; S != 8; ++S)
        T[S][I] = (T[S - 1][I] >> 8) ^ T[0][T[S - 1][I] & 0xFFu];
    return T;
  }();
  auto Word = [](const uint8_t *P) {
    return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
           uint32_t(P[3]) << 24;
  };
  uint32_t C = 0xFFFFFFFFu;
  for (; Size >= 8; Data += 8, Size -= 8) {
    const uint32_t Lo = Word(Data) ^ C, Hi = Word(Data + 4);
    C = T[7][Lo & 0xFFu] ^ T[6][(Lo >> 8) & 0xFFu] ^ T[5][(Lo >> 16) & 0xFFu] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFFu] ^ T[2][(Hi >> 8) & 0xFFu] ^
        T[1][(Hi >> 16) & 0xFFu] ^ T[0][Hi >> 24];
  }
  for (; Size; --Size)
    C = T[0][(C ^ *Data++) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> CertStore::frameEntry(const StoreEntry &E) {
  return frame(FrameMagic, encodeEntry(E));
}

bool CertStore::parseFrame(const std::vector<uint8_t> &Bytes, StoreEntry &Out,
                           std::string &Error) {
  if (Bytes.size() < HeaderSize) {
    Error = "frame shorter than its header";
    return false;
  }
  const Header H = readHeader(Bytes.data());
  if (H.Magic != FrameMagic) {
    Error = "bad frame magic";
    return false;
  }
  if (H.Version != EntryFormatVersion) {
    Error = "unsupported entry format version";
    return false;
  }
  if (Bytes.size() - HeaderSize != H.Len) {
    Error = "frame length disagrees with the record size";
    return false;
  }
  if (crc32(Bytes.data() + HeaderSize, H.Len) != H.Crc) {
    Error = "CRC mismatch (torn or corrupt record)";
    return false;
  }
  return decodeEntry(Bytes.data() + HeaderSize, H.Len, Out, Error);
}

/// Acquires the exclusive multi-process lock: one LOCK_NB try (a
/// failure is counted in Stats.LockWaits, so contention is observable)
/// and then a blocking flock. Blocking is safe: the kernel releases a
/// dead holder's flock, and every critical section is one bounded
/// append, so a live holder always hands the lock over.
class CertStore::ScopedLock {
public:
  explicit ScopedLock(CertStore &S) : S(S) {
    if (S.Mode == StoreMode::ReadOnly)
      return;
    if (::flock(S.LockFd, LOCK_EX | LOCK_NB) != 0) {
      if (errno != EWOULDBLOCK && errno != EINTR)
        ioError("cannot lock the store: " + errnoText());
      ++S.Stats.LockWaits;
      while (::flock(S.LockFd, LOCK_EX) != 0)
        if (errno != EINTR)
          ioError("cannot lock the store: " + errnoText());
    }
    Owned = true;
  }

  ~ScopedLock() {
    if (Owned)
      ::flock(S.LockFd, LOCK_UN);
  }

  ScopedLock(const ScopedLock &) = delete;
  ScopedLock &operator=(const ScopedLock &) = delete;

private:
  CertStore &S;
  bool Owned = false;
};

CertStore::CertStore(std::string RootPath, StoreMode Mode)
    : Root(std::move(RootPath)), Mode(Mode) {
  support::faultProbe("store-open");
  const std::string Log = Root + "/records.log";
  if (Mode == StoreMode::ReadOnly) {
    LogFd = ::open(Log.c_str(), O_RDONLY | O_CLOEXEC);
    if (LogFd < 0)
      ioError("read-only open of a missing store '" + Root + "'");
  } else {
    std::error_code EC;
    fs::create_directories(Root + "/quarantine", EC);
    if (EC)
      ioError("cannot create store at '" + Root + "': " + EC.message());
    // O_CREAT and O_EXCL are atomic across racing openers, so the
    // layout needs no lock.
    const int Manifest = ::open((Root + "/MANIFEST").c_str(),
                                O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (Manifest >= 0) {
      const size_t N = std::strlen(ManifestLine);
      const bool Ok = pwriteAll(Manifest,
                                reinterpret_cast<const uint8_t *>(ManifestLine),
                                N, 0);
      ::close(Manifest);
      if (!Ok)
        ioError("cannot write the store manifest");
    } else if (errno != EEXIST) {
      ioError("cannot create the store manifest: " + errnoText());
    }
    LockFd = ::open((Root + "/LOCK").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                    0644);
    if (LockFd < 0)
      ioError("cannot open the store lock: " + errnoText());
    LogFd = ::open(Log.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (LogFd < 0) {
      ::close(LockFd);
      ioError("cannot open the store log: " + errnoText());
    }
  }
  try {
    support::faultProbe("store-recover");
    scan();
  } catch (...) {
    // The destructor does not run when the constructor throws; the fds
    // must not leak into the (store-less) continuation.
    ::close(LogFd);
    if (LockFd >= 0)
      ::close(LockFd);
    throw;
  }
}

CertStore::~CertStore() {
  ::close(LogFd);
  if (LockFd >= 0)
    ::close(LockFd);
}

std::vector<StoreIncident> CertStore::takeIncidents() {
  std::vector<StoreIncident> Out = std::move(Incidents);
  Incidents.clear();
  return Out;
}

uint64_t CertStore::scan() {
  struct stat St;
  if (::fstat(LogFd, &St) != 0)
    ioError("cannot stat the store log: " + errnoText());
  const uint64_t Size = static_cast<uint64_t>(St.st_size);
  std::vector<uint8_t> Buf;
  uint64_t BufAt = 0;
  // Makes Buf hold [At, At + Need); false when the file ends first
  // (a writer may truncate a torn tail while this scan reads it).
  auto Cover = [&](uint64_t At, uint64_t Need) {
    if (At >= BufAt && At + Need <= BufAt + Buf.size())
      return true;
    if (At + Need > Size)
      return false;
    Buf.resize(std::min<uint64_t>(Size - At, std::max<uint64_t>(Need, ScanChunk)));
    const ssize_t Got = readAt(LogFd, Buf.data(), Buf.size(), At);
    if (Got < 0)
      ioError("cannot read the store log: " + errnoText());
    Buf.resize(static_cast<size_t>(Got));
    BufAt = At;
    return Need <= Buf.size();
  };
  while (Cover(End, HeaderSize)) {
    const Header H = readHeader(Buf.data() + (End - BufAt));
    // Bytes that are not a whole frame of this version end the
    // readable log: a torn append, or junk the next writer truncates.
    if ((H.Magic != FrameMagic && H.Magic != TombMagic) ||
        H.Version != EntryFormatVersion || H.Len > UINT32_MAX - HeaderSize ||
        !Cover(End, HeaderSize + H.Len))
      break;
    const uint8_t *Rec = Buf.data() + (End - BufAt);
    const uint32_t Size32 = static_cast<uint32_t>(HeaderSize + H.Len);
    cert::Reader R(Rec + HeaderSize, H.Len);
    Key K;
    K.first = R.u64();
    K.second = R.str();
    if (crc32(Rec + HeaderSize, H.Len) != H.Crc)
      quarantine(End, Rec, Size32, "", "CRC mismatch (corrupt record)");
    else if (R.failed())
      quarantine(End, Rec, Size32, "", "record key does not decode");
    else if (H.Magic == FrameMagic)
      Index[std::move(K)] = {End, Size32};
    else
      Index.erase(K);
    End += Size32;
  }
  return Size;
}

bool CertStore::refresh() {
  struct stat Open, AtRoot;
  if (::fstat(LogFd, &Open) != 0 ||
      ::stat((Root + "/records.log").c_str(), &AtRoot) != 0 ||
      Open.st_ino != AtRoot.st_ino || Open.st_dev != AtRoot.st_dev ||
      static_cast<uint64_t>(Open.st_size) < End)
    return false;
  if (static_cast<uint64_t>(Open.st_size) > End)
    scan();
  return true;
}

uint64_t CertStore::append(const std::vector<uint8_t> &Frame) {
  const uint64_t Size = scan();
  if (Size > End) {
    // Under the lock no live writer is mid-append, so these bytes are
    // what a crashed or failed append left behind.
    support::faultProbe("store-recover");
    if (::ftruncate(LogFd, static_cast<off_t>(End)) != 0)
      ioError("cannot truncate the torn log tail: " + errnoText());
    ++Stats.TornTails;
    Incidents.push_back({"", "StoreRecover",
                         "truncated " + std::to_string(Size - End) +
                             " byte(s) of torn log tail at offset " +
                             std::to_string(End) +
                             " (a crashed append; every indexed entry is "
                             "pre- or post-state)"});
  }
  const bool Short = support::faultProbeAction("store-commit") ==
                     support::FaultAction::ShortWrite;
  // A short write leaves half a frame, exactly what a crash mid-write
  // leaves; End stays put, so the fragment is the next writer's tail.
  if (!pwriteAll(LogFd, Frame.data(), Short ? Frame.size() / 2 : Frame.size(),
                 End))
    ioError("cannot append to the store log: " + errnoText());
  if (Short)
    ioError("injected short write appending to the store log");
  const uint64_t At = End;
  End += Frame.size();
  return At;
}

bool CertStore::readRecord(const Record &R, std::vector<uint8_t> &Out) const {
  Out.resize(R.Size);
  return readAt(LogFd, Out.data(), R.Size, R.Offset) == R.Size;
}

void CertStore::quarantine(uint64_t Offset, const uint8_t *Bytes, size_t Size,
                           const std::string &Unit, const std::string &Reason) {
  const std::string Name = "record at offset " + std::to_string(Offset);
  if (Mode == StoreMode::ReadOnly) {
    ++Stats.SkippedInvalid;
    Incidents.push_back(
        {Unit, "StoreEntryInvalid", Name + ": " + Reason + " (read-only: skipped)"});
    return;
  }
  // The log keeps the bad bytes, so every process scanning it meets
  // them again: the copy's name is a function of the bytes and where
  // they lie, and only the process that creates it reports it.
  const std::string File = Root + "/quarantine/" + hex(Offset, 16) + "-" +
                           hex(crc32(Bytes, Size), 8) + ".rec";
  const int Fd =
      ::open(File.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (Fd < 0 && errno == EEXIST)
    return;
  if (Fd >= 0) {
    pwriteAll(Fd, Bytes, Size, 0);
    ::close(Fd);
  }
  ++Stats.Quarantined;
  Incidents.push_back({Unit, "StoreQuarantine", Name + ": " + Reason});
}

std::unique_ptr<StoreEntry>
CertStore::load(std::map<Key, Record>::iterator It) {
  std::vector<uint8_t> Bytes;
  if (!readRecord(It->second, Bytes))
    ioError("cannot read store record at offset " +
            std::to_string(It->second.Offset));
  auto E = std::make_unique<StoreEntry>();
  std::string Error;
  if (!parseFrame(Bytes, *E, Error) ||
      (E->InputHash != It->first.first || E->Unit != It->first.second)) {
    if (Error.empty())
      Error = "entry key disagrees with its index key";
    quarantine(It->second.Offset, Bytes.data(), Bytes.size(), It->first.second,
               Error);
    Index.erase(It);
    return nullptr;
  }
  return E;
}

std::unique_ptr<StoreEntry> CertStore::get(uint64_t InputHash,
                                           const std::string &Unit) {
  support::faultProbe("store-read");
  auto It = Index.find({InputHash, Unit});
  return It == Index.end() ? nullptr : load(It);
}

void CertStore::put(const StoreEntry &E) {
  if (Mode == StoreMode::ReadOnly)
    ioError("put into a read-only store");
  const std::vector<uint8_t> Frame = frameEntry(E);
  ScopedLock L(*this);
  const uint64_t At = append(Frame);
  Index[{E.InputHash, E.Unit}] = {At, static_cast<uint32_t>(Frame.size())};
  ++Stats.Writes;
}

void CertStore::evict(uint64_t InputHash, const std::string &Unit,
                      const std::string &Reason) {
  if (Mode == StoreMode::ReadOnly)
    return;
  Key K(InputHash, Unit);
  auto It = Index.find(K);
  if (It == Index.end())
    return;
  const Record Rejected = It->second;
  std::vector<uint8_t> Bytes;
  if (readRecord(Rejected, Bytes))
    quarantine(Rejected.Offset, Bytes.data(), Bytes.size(), Unit, Reason);
  ScopedLock L(*this);
  scan();
  It = Index.find(K);
  // Another process may have appended a fresh entry for the key since:
  // the tombstone must not revoke that one.
  if (It == Index.end() || It->second.Offset != Rejected.Offset)
    return;
  append(frame(TombMagic, encodeKey(InputHash, Unit)));
  Index.erase(It);
}

std::vector<StoreEntry> CertStore::listEntries() {
  std::vector<StoreEntry> Out;
  for (auto It = Index.begin(); It != Index.end();) {
    auto Next = std::next(It);
    if (std::unique_ptr<StoreEntry> E = load(It))
      Out.push_back(std::move(*E));
    It = Next;
  }
  std::sort(Out.begin(), Out.end(), [](const StoreEntry &A, const StoreEntry &B) {
    return A.Unit != B.Unit ? A.Unit < B.Unit : A.InputHash < B.InputHash;
  });
  return Out;
}
