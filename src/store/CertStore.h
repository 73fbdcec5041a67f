//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe persistent certificate store: on-disk certification
/// results keyed by (input hash, analyzed unit), with write-ahead
/// journaling, atomic temp-file+rename commits, CRC-guarded record
/// framing, and a recovery pass that quarantines torn/truncated/corrupt
/// entries on open and continues — a crash mid-write can never poison
/// future runs.
///
/// Trust boundary: the store is UNTRUSTED. Nothing read from disk is
/// believed on faith — record frames are CRC-checked, payloads are
/// decoded by bounds-checked readers, embedded certificates re-verify
/// their content hash on parse, and above all core::Certifier serves a
/// hit only after the entry's certificate passes the independent
/// cert::Checker (plus claim/verdict cross-checks and witness replay).
/// The CRC and the journal defend durability against crashes; the
/// checker defends soundness against everything, including a hostile
/// store.
///
/// Failure model: every I/O failure path throws
/// CertifyError(StoreIO) — always recoverable; the certifier degrades
/// to re-analysis, never to a wrong or missing verdict. The fault
/// probe sites store-open / store-read / store-commit / store-recover
/// make each path deterministically testable, including short (torn)
/// writes via support::faultProbeAction.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_STORE_CERTSTORE_H
#define CANVAS_STORE_CERTSTORE_H

#include "cert/Certificate.h"
#include "core/Verdict.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace canvas {
namespace store {

enum class StoreMode {
  ReadWrite, ///< Normal operation: recovery mutates, puts commit.
  ReadOnly,  ///< No disk mutation at all: invalid entries are skipped
             ///< (not quarantined), put/evict are rejected.
};

/// One persisted certification result for one analyzed unit: the full
/// verdict vector (with witnesses), the SCMPIntra slicing summary when
/// present, and the proof-carrying certificate that gates every hit.
struct StoreEntry {
  uint64_t InputHash = 0;
  /// "Class::method" for per-method engines, "" for the whole-program
  /// interprocedural engine (matching cert::Certificate::Unit).
  std::string Unit;
  /// engineName() of the producing rung; a hit requires an exact match.
  std::string Engine;
  /// SCMPIntra slicing summary of the unit when it was committed. A hit
  /// does not need it: Stage 0 recomputes every method's partition, so
  /// the report's "slicing:" lines match a cold run either way.
  bool HasSummary = false;
  uint32_t Slices = 0;
  std::string ForcedSingleReason;
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
  unsigned Quarantined = 0;      ///< Entries moved to quarantine/.
  unsigned SkippedInvalid = 0;   ///< Invalid entries skipped (ReadOnly).
  unsigned JournalRecovered = 0; ///< Uncommitted journal records found
                                 ///< on open (crash evidence).
  unsigned TempsRemoved = 0;     ///< Stray temp files removed on open.
  unsigned Writes = 0;           ///< Entries committed.
  unsigned LockWaits = 0;        ///< Backoff sleeps taken while another
                                 ///< process held the store lock.
};

/// One structured store anomaly, surfaced on the certification report
/// so a quarantined or rejected entry is never silent.
struct StoreIncident {
  std::string Unit;
  std::string Kind; ///< "StoreEntryInvalid", "StoreIO", "StoreQuarantine".
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
  unsigned Quarantined = 0;
  unsigned Writes = 0;
  std::vector<StoreIncident> Incidents;
};

/// The on-disk store. Layout under the root directory:
///   MANIFEST        identifying magic + version line
///   LOCK            the multi-process mutex (flock target; empty file)
///   journal.log     write-ahead journal ("B <file>" / "C <file>" lines)
///   entries/        one CRC-framed record per (input hash, unit) key
///   quarantine/     torn/corrupt/rejected records, moved aside
///
/// Concurrency model: one store directory may be shared by many
/// PROCESSES (the sharded driver's workers). Every mutation — the
/// recovery pass, each put() commit, each quarantine/evict — runs under
/// an exclusive flock(2) on the dedicated LOCK file, acquired
/// non-blocking with exponential backoff; exhausting the backoff throws
/// CertifyError(StoreIO), which the certifier treats like any other
/// store failure (degrade to re-analysis). The lock is on LOCK, not on
/// journal.log: flock follows the open file description's inode, and
/// recovery replaces the journal by rename — locking a file that gets
/// renamed lets two processes each hold "the" lock on different inodes.
/// LOCK is never renamed or removed, and the kernel drops the lock when
/// a holder dies, so a crashed worker cannot wedge the store. Readers
/// (get) take no lock: entries are only ever produced whole by rename,
/// so a read sees a complete old or complete new frame.
///
/// Within one process a CertStore instance is still not thread-safe:
/// core::Certifier gates hits and commits entries serially (the
/// parallel fan-out only reads the pre-validated hit map). Concurrent
/// threads must open their own instances, which then serialize through
/// the same file lock.
class CertStore {
public:
  /// Opens the store, creating the layout when absent (ReadWrite), and
  /// runs the recovery pass: discard a torn journal tail, remove stray
  /// temp files, quarantine entries whose frame fails validation, and
  /// compact the journal. Throws CertifyError(StoreIO) when the store
  /// cannot be brought to a sane state (or an open/recover fault is
  /// injected) — the caller continues without a store.
  CertStore(std::string RootPath, StoreMode Mode);

  /// Releases the process lock file descriptor (any held flock is
  /// already scoped; this only closes the fd).
  ~CertStore();

  CertStore(const CertStore &) = delete;
  CertStore &operator=(const CertStore &) = delete;

  StoreMode mode() const { return Mode; }
  const std::string &path() const { return Root; }
  const StoreStats &stats() const { return Stats; }
  /// Drains incidents recorded by recovery/get/evict.
  std::vector<StoreIncident> takeIncidents();

  /// Loads the entry keyed (InputHash, Unit), or null when absent. A
  /// present-but-undecodable entry is quarantined (ReadWrite) or
  /// skipped (ReadOnly) and reported null — never an error. Throws
  /// CertifyError(StoreIO) only on injected read faults or hard I/O
  /// failure.
  std::unique_ptr<StoreEntry> get(uint64_t InputHash,
                                  const std::string &Unit);

  /// Atomically commits \p E: journal intent, write a temp file, rename
  /// over the final name, journal completion. A crash (or injected
  /// store-commit fault, including short writes) at any step leaves the
  /// store in the pre- or post-state, never torn. Throws
  /// CertifyError(StoreIO) on failure; ReadWrite mode only.
  void put(const StoreEntry &E);

  /// Quarantines the entry keyed (InputHash, Unit) — the checker gate
  /// refused it. No-op when the entry is absent or the store is
  /// ReadOnly.
  void evict(uint64_t InputHash, const std::string &Unit,
             const std::string &Reason);

  /// Every decodable entry, sorted by (Unit, InputHash): the
  /// snapshot/diff tooling's view. Invalid entries are quarantined
  /// (ReadWrite) or skipped (ReadOnly).
  std::vector<StoreEntry> listEntries();

  /// The entry file name of a key: hex(InputHash)-hex(fnv1a(Unit)).cert
  /// (the unit is hashed — method names contain path-hostile
  /// characters).
  static std::string entryFileName(uint64_t InputHash,
                                   const std::string &Unit);

  /// Serializes \p E into a complete CRC-guarded frame (magic, version,
  /// length, CRC32, payload). Exposed for the framing fuzz tests.
  static std::vector<uint8_t> frameEntry(const StoreEntry &E);

  /// Parses a frame produced by frameEntry (or a hostile imitation).
  /// Never throws: returns false with \p Error on any malformation —
  /// bad magic/version/length, CRC mismatch, payload decode failure,
  /// or an embedded certificate whose content hash does not verify.
  static bool parseFrame(const std::vector<uint8_t> &Bytes, StoreEntry &Out,
                         std::string &Error);

private:
  /// RAII exclusive flock on the LOCK file. Recursion-guarded: a
  /// ScopedLock taken while this instance already holds the lock (e.g.
  /// quarantineFile under recover) is a no-op, so the outer scope's
  /// unlock is the only unlock.
  class ScopedLock;
  friend class ScopedLock;

  void recover();
  std::string entriesDir() const;
  std::string quarantineDir() const;
  std::string journalPath() const;
  std::string lockPath() const;
  void appendJournal(const std::string &Line);
  void quarantineFile(const std::string &File, const std::string &Unit,
                      const std::string &Reason);

  std::string Root;
  StoreMode Mode;
  StoreStats Stats;
  std::vector<StoreIncident> Incidents;
  int LockFd = -1;       ///< Open fd on LOCK (ReadWrite only).
  bool LockHeld = false; ///< This instance holds the exclusive flock.
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over \p Size bytes.
uint32_t crc32(const uint8_t *Data, size_t Size);

} // namespace store
} // namespace canvas

#endif // CANVAS_STORE_CERTSTORE_H
