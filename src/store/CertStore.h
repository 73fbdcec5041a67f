//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe persistent certificate store: on-disk certification
/// results keyed by (input hash, analyzed unit), kept as CRC-framed
/// records in one append-only log with an in-memory index from key to
/// record. A crash mid-append leaves a torn tail that no reader serves
/// and the next writer truncates — a crash can never poison future
/// runs.
///
/// Trust boundary: the store is UNTRUSTED. Nothing read from disk is
/// believed on faith — record frames are CRC-checked, payloads are
/// decoded by bounds-checked readers, embedded certificates re-verify
/// their content hash on parse, and above all core::Certifier serves a
/// hit only after the entry's certificate passes the independent
/// cert::Checker (plus claim/verdict cross-checks and witness replay).
/// The CRC and the framing defend durability against crashes; the
/// checker defends soundness against everything, including a hostile
/// store.
///
/// Failure model: every I/O failure path throws
/// CertifyError(StoreIO) — always recoverable; the certifier degrades
/// to re-analysis, never to a wrong or missing verdict. The fault
/// probe sites store-open / store-read / store-commit / store-recover
/// make each path deterministically testable; store-commit also
/// honors short (torn) writes via support::faultProbeAction.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_STORE_CERTSTORE_H
#define CANVAS_STORE_CERTSTORE_H

#include "cert/Certificate.h"
#include "core/Verdict.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace canvas {
namespace store {

enum class StoreMode {
  ReadWrite, ///< Normal operation: puts append, bad records quarantine.
  ReadOnly,  ///< No disk mutation at all: invalid records are skipped
             ///< (not quarantined), put/evict are rejected.
};

/// One persisted certification result for one analyzed unit: the full
/// verdict vector (with witnesses) and the proof-carrying certificate
/// that gates every hit.
struct StoreEntry {
  uint64_t InputHash = 0;
  /// "Class::method" for per-method engines, "" for the whole-program
  /// interprocedural engine (matching cert::Certificate::Unit).
  std::string Unit;
  /// engineName() of the producing rung; a hit requires an exact match.
  std::string Engine;
  std::vector<core::CheckRecord> Checks;
  bool HasCert = false;
  /// Certificate::ContentHash at commit time; re-checked against the
  /// parsed certificate on load.
  uint64_t CertHash = 0;
  cert::Certificate Cert;
};

/// Counters of the store's own disk-side activity (the hit/miss
/// accounting lives in StoreReport, filled by the certifier).
struct StoreStats {
  unsigned Quarantined = 0;    ///< Records copied to quarantine/.
  unsigned SkippedInvalid = 0; ///< Invalid records skipped (ReadOnly).
  unsigned TornTails = 0;      ///< Torn log tails truncated (crash
                               ///< evidence).
  unsigned Writes = 0;         ///< Entries appended.
  unsigned LockWaits = 0;      ///< Mutations that found the lock held
                               ///< by another process and blocked.
};

/// One structured store anomaly, surfaced on the certification report
/// so a quarantined or rejected entry is never silent.
struct StoreIncident {
  std::string Unit;
  std::string Kind; ///< "StoreEntryInvalid", "StoreIO", "StoreQuarantine",
                    ///< "StoreRecover".
  std::string Detail;
};

/// Store usage statistics of one certification run. Defined here (not
/// in core/Certifier.h) so the store layer owns its reporting
/// vocabulary; core::CertificationReport embeds it.
struct StoreReport {
  bool Enabled = false;
  bool ReadOnly = false;
  std::string Path;
  unsigned Hits = 0;     ///< Units answered from the store (checker-gated).
  unsigned Misses = 0;   ///< Units with no usable entry: engine ran.
  unsigned Rejected = 0; ///< Entries the checker gate refused (evicted).
  unsigned Quarantined = 0; ///< Records quarantined or skipped this run.
  unsigned Writes = 0;      ///< Entries appended this run.
  std::vector<StoreIncident> Incidents;
};

/// The on-disk store. Layout under the root directory:
///   MANIFEST        identifying magic + version line
///   LOCK            the multi-process mutex (flock target; empty file)
///   records.log     the append-only log of CRC-framed records
///   quarantine/     copies of corrupt or rejected records
///
/// A record is an entry frame (frameEntry) or a tombstone frame (same
/// header, its own magic, payload = the key). The index maps each key
/// to its latest entry frame; a later tombstone removes it. Opening
/// scans the log once through a bounded buffer and checks every
/// frame's CRC, but decodes only the key; get() reads one indexed frame
/// with one pread and decodes it in full (parseFrame + key check).
///
/// Concurrency model: one store directory may be shared by many
/// PROCESSES (the sharded driver's workers). Every append — put(),
/// evict()'s tombstone — runs under an exclusive flock(2) on LOCK: one
/// non-blocking try (a failure counts in StoreStats::LockWaits), then a
/// blocking flock. The kernel drops a dead holder's lock, so a crashed
/// worker cannot wedge the store, and the lock is held only inside one
/// append, never between calls. Under the lock the writer first indexes
/// what others appended, then truncates any bytes past the last
/// complete frame — a torn tail can only come from a writer that died
/// or failed mid-append, since live writers hold the lock — and
/// appends. Readers take no lock: they index complete frames only, so
/// an append in progress is simply not seen until the next refresh().
///
/// Within one process a CertStore instance is still not thread-safe:
/// core::Certifier serializes its calls on its shared instance.
/// Concurrent threads may also open their own instances, which then
/// serialize through the same file lock.
class CertStore {
public:
  /// Opens the store, creating the layout when absent (ReadWrite), and
  /// indexes the log. A corrupt record is quarantined (ReadWrite) or
  /// skipped (ReadOnly); a torn tail is left for the next writer. No
  /// lock is taken. Throws CertifyError(StoreIO) when the store cannot
  /// be opened (or an open/recover fault is injected) — the caller
  /// continues without a store.
  CertStore(std::string RootPath, StoreMode Mode);

  /// Closes the log and lock file descriptors.
  ~CertStore();

  CertStore(const CertStore &) = delete;
  CertStore &operator=(const CertStore &) = delete;

  StoreMode mode() const { return Mode; }
  const std::string &path() const { return Root; }
  const StoreStats &stats() const { return Stats; }
  /// Drains incidents recorded by open/refresh/get/put/evict.
  std::vector<StoreIncident> takeIncidents();

  /// Indexes the records other processes appended since the last scan.
  /// Returns false when the log at the root was removed or replaced
  /// since this instance opened it: the instance would keep serving a
  /// dead file, so the caller should open a new one. Costs one fstat
  /// and one stat when nothing changed.
  bool refresh();

  /// Loads the entry keyed (InputHash, Unit), or null when absent. A
  /// present-but-undecodable record is quarantined (ReadWrite) or
  /// skipped (ReadOnly) and reported null — never an error. Throws
  /// CertifyError(StoreIO) only on injected read faults or hard I/O
  /// failure.
  std::unique_ptr<StoreEntry> get(uint64_t InputHash,
                                  const std::string &Unit);

  /// Appends \p E as one frame under the lock. A crash (or injected
  /// store-commit fault, including a short write) leaves the store in
  /// the pre- or post-state, never torn. Throws CertifyError(StoreIO) on
  /// failure; ReadWrite mode only.
  void put(const StoreEntry &E);

  /// Rejects the entry keyed (InputHash, Unit) — the checker gate
  /// refused it: its record is copied to quarantine/ and a tombstone is
  /// appended, so every process stops serving it. No-op when the entry
  /// is absent or the store is ReadOnly.
  void evict(uint64_t InputHash, const std::string &Unit,
             const std::string &Reason);

  /// Every decodable entry, sorted by (Unit, InputHash): the
  /// snapshot/diff tooling's view. Invalid records are quarantined
  /// (ReadWrite) or skipped (ReadOnly).
  std::vector<StoreEntry> listEntries();

  /// Serializes \p E into a complete CRC-guarded frame (magic, version,
  /// length, CRC32, payload). Exposed for the framing fuzz tests.
  static std::vector<uint8_t> frameEntry(const StoreEntry &E);

  /// Parses an entry frame produced by frameEntry (or a hostile
  /// imitation). Never throws: returns false with \p Error on any
  /// malformation — bad magic/version/length, CRC mismatch, payload
  /// decode failure, or an embedded certificate whose content hash does
  /// not verify.
  static bool parseFrame(const std::vector<uint8_t> &Bytes, StoreEntry &Out,
                         std::string &Error);

private:
  /// RAII exclusive flock on the LOCK file; ReadOnly stores take none.
  class ScopedLock;

  /// Where one indexed entry frame lies in the log.
  struct Record {
    uint64_t Offset = 0;
    uint32_t Size = 0;
  };
  using Key = std::pair<uint64_t, std::string>;

  /// Indexes the complete frames in [End, file size) and advances End
  /// past them; returns the file size seen.
  uint64_t scan();
  /// Under the lock: indexes others' appends, truncates a torn tail,
  /// then writes \p Frame at the end of the log and returns its offset.
  uint64_t append(const std::vector<uint8_t> &Frame);
  bool readRecord(const Record &R, std::vector<uint8_t> &Out) const;
  /// Copies a bad record's bytes to quarantine/ (ReadWrite; once per
  /// record across processes) or counts it skipped (ReadOnly).
  void quarantine(uint64_t Offset, const uint8_t *Bytes, size_t Size,
                  const std::string &Unit, const std::string &Reason);
  /// Loads and validates the indexed record at \p It; an invalid one is
  /// quarantined and dropped from the index.
  std::unique_ptr<StoreEntry> load(std::map<Key, Record>::iterator It);

  std::string Root;
  StoreMode Mode;
  StoreStats Stats;
  std::vector<StoreIncident> Incidents;
  int LockFd = -1; ///< Open fd on LOCK (ReadWrite only).
  int LogFd = -1;  ///< Open fd on records.log.
  /// Offset just past the last complete frame scanned.
  uint64_t End = 0;
  std::map<Key, Record> Index;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over \p Size bytes.
uint32_t crc32(const uint8_t *Data, size_t Size);

} // namespace store
} // namespace canvas

#endif // CANVAS_STORE_CERTSTORE_H
