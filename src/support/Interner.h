//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed interning pool: maps structurally-equal values to one
/// stable 32-bit id, so identity checks, set membership, and memo keys
/// on the analysis hot path become integer operations instead of
/// re-serialized canonical strings.
///
/// The pool buckets values by a caller-supplied 64-bit structural hash
/// and falls back to full equality within a bucket, so hash collisions
/// cost a comparison, never a wrong id. Values are stored by value and
/// must not be mutated after interning (the pool hands out const
/// references only; verifyIntegrity() re-hashes every entry and catches
/// out-of-band mutation in tests and debug builds).
///
/// The pool is deliberately not thread-safe: each analysis engine owns
/// a private pool, and an engine runs on the one thread of the
/// certify() call that made it.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_INTERNER_H
#define CANVAS_SUPPORT_INTERNER_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace canvas {
namespace support {

/// Stable identity of one interned value within its pool. Ids are dense
/// (0, 1, 2, ...) in first-intern order, so they double as indices into
/// side tables.
using InternId = uint32_t;

/// Mixes a 64-bit value (splitmix64 finalizer); used by hashers to
/// decorrelate field hashes before combining.
inline uint64_t hashMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Combines a running hash with the next field hash.
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  return hashMix(Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) +
                         (Seed >> 2)));
}

/// FNV-1a over a byte range; the building block for hashing predicate
/// matrices.
inline uint64_t hashBytes(const uint8_t *Data, size_t Len,
                          uint64_t Seed = 0xcbf29ce484222325ull) {
  uint64_t H = Seed;
  for (size_t I = 0; I != Len; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Word-parallel hash over a uint64_t range (mix-and-combine per word);
/// the building block for hashing packed predicate bit matrices, ~8x
/// fewer steps than byte-wise FNV over the same payload.
inline uint64_t hashWords(const uint64_t *Data, size_t Len,
                          uint64_t Seed = 0xcbf29ce484222325ull) {
  uint64_t H = Seed;
  for (size_t I = 0; I != Len; ++I)
    H = hashCombine(H, hashMix(Data[I]));
  return H;
}

/// Running statistics of one pool, surfaced by the TVLA engine in
/// TVLAResult and the bench drivers' BENCH_JSON lines.
struct InternStats {
  uint64_t Hits = 0;       ///< intern() found an existing equal value.
  uint64_t Misses = 0;     ///< intern() admitted a new value.
  uint64_t Collisions = 0; ///< Equality comparisons that failed within a
                           ///< bucket (distinct values, same 64-bit hash).
};

/// The pool. \p Hasher is a callable `uint64_t(const T &)` producing the
/// structural hash; equality falls back to `operator==` on T.
template <typename T, typename Hasher> class InternPool {
public:
  explicit InternPool(Hasher H = Hasher()) : Hash(std::move(H)) {}

  /// Interns \p Value: returns the id of the existing structurally-equal
  /// entry, or admits the value and returns its fresh id.
  InternId intern(T Value) {
    uint64_t H = Hash(Value);
    std::vector<InternId> &Bucket = Buckets[H];
    for (InternId Id : Bucket) {
      if (Values[Id] == Value) {
        ++Stats.Hits;
        return Id;
      }
      ++Stats.Collisions;
    }
    ++Stats.Misses;
    InternId Id = static_cast<InternId>(Values.size());
    Values.push_back(std::move(Value));
    Hashes.push_back(H);
    Bucket.push_back(Id);
    return Id;
  }

  /// Interns by reference: identical to intern(), but the value is only
  /// copied when the pool admits it as new. The hot path for values
  /// whose copy is expensive or changes ownership (arena-backed
  /// tvla::Structure copies detach to the heap) — a hit costs zero
  /// allocations.
  InternId internRef(const T &Value) {
    uint64_t H = Hash(Value);
    std::vector<InternId> &Bucket = Buckets[H];
    for (InternId Id : Bucket) {
      if (Values[Id] == Value) {
        ++Stats.Hits;
        return Id;
      }
      ++Stats.Collisions;
    }
    ++Stats.Misses;
    InternId Id = static_cast<InternId>(Values.size());
    Values.push_back(Value);
    Hashes.push_back(H);
    Bucket.push_back(Id);
    return Id;
  }

  /// Id of the structurally-equal entry, or -1 when absent. Never
  /// admits the value; the read-only probe of emit-side verify-pruning.
  long find(const T &Value) const {
    auto It = Buckets.find(Hash(Value));
    if (It == Buckets.end())
      return -1;
    for (InternId Id : It->second)
      if (Values[Id] == Value)
        return static_cast<long>(Id);
    return -1;
  }

  /// The interned value; valid for the pool's lifetime. Callers must not
  /// mutate it (copy first) — see verifyIntegrity().
  const T &get(InternId Id) const { return Values[Id]; }

  /// Number of distinct values admitted.
  size_t size() const { return Values.size(); }

  const InternStats &stats() const { return Stats; }

  /// Re-hashes every entry and checks it still lands in its recorded
  /// bucket: false means some caller mutated an interned value in place
  /// (intern-then-mutate misuse), invalidating every id handed out.
  bool verifyIntegrity() const {
    for (size_t Id = 0; Id != Values.size(); ++Id)
      if (Hash(Values[Id]) != Hashes[Id])
        return false;
    return true;
  }

private:
  Hasher Hash;
  std::vector<T> Values;
  std::vector<uint64_t> Hashes; ///< Hash at intern time, for integrity.
  std::unordered_map<uint64_t, std::vector<InternId>> Buckets;
  InternStats Stats;
};

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_INTERNER_H
