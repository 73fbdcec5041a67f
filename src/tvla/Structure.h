//===----------------------------------------------------------------------===//
///
/// \file
/// 3-valued logical structures (Section 5.5): a universe of individuals
/// with Kleene-valued unary and binary predicates, a summary bit per
/// individual, canonical abstraction ("blur") driven by the unary
/// abstraction predicates of a TVP vocabulary, and the single-structure
/// join used by the independent-attribute engine.
///
/// Representation: one contiguous word buffer of 2-bit entries (the
/// flat struct-of-arrays layout of DESIGN.md "Arena / flat-structure
/// memory architecture"). Kleene values are stored join-encoded —
/// False=01, True=10, Half=11 (bit0 = "may be false", bit1 = "may be
/// true") — so kJoin is bitwise OR, whole-structure joins and blur
/// group-folds are word-parallel OR over the buffer, and the numeric
/// entry order 01<10<11 matches the canonical-key character order
/// '0'<'1'<'?' of the previous string-keyed representation (canonical
/// node order is unchanged). The summary bit uses 01/11 so it joins by
/// OR too. Layout, by ascending entry index: summary bits (N entries),
/// unary predicates in vocabulary slot order (N entries each), binary
/// predicates in slot order (N*N row-major entries each); slots come
/// from tvp::Vocabulary's flat-layout cache.
///
/// Buffers live on the heap or in a support::Arena: scratch structures
/// inside one fixpoint visit are arena-backed (tvla::Transfer), while
/// copy construction/assignment into a non-arena structure always
/// detaches to the heap, so anything stored in an InternPool or
/// annotation owns its words.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_TVLA_STRUCTURE_H
#define CANVAS_TVLA_STRUCTURE_H

#include "logic/Kleene.h"
#include "support/Arena.h"
#include "tvp/Program.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace canvas {
namespace tvla {

/// One 3-valued structure over a fixed vocabulary. Predicate storage is
/// indexed by the vocabulary's predicate index; unary predicates store
/// one value per individual, binary predicates a row-major matrix.
class Structure {
public:
  explicit Structure(const tvp::Vocabulary &V);
  /// An empty structure whose buffer grows inside \p Scratch; use for
  /// fixpoint-visit temporaries only (see file comment).
  Structure(const tvp::Vocabulary &V, support::Arena &Scratch);

  /// Copies always detach to the heap, so the copy may outlive any
  /// arena the source lived in.
  Structure(const Structure &O);
  /// Arena copy: a scratch duplicate of \p O inside \p Scratch.
  Structure(const Structure &O, support::Arena &Scratch);
  Structure(Structure &&O) noexcept;
  Structure &operator=(const Structure &O);
  Structure &operator=(Structure &&O) noexcept;
  ~Structure() {
    if (!A)
      delete[] W;
  }

  unsigned numNodes() const { return N; }
  bool isSummary(unsigned Node) const {
    assert(Node < N);
    return (entry(Node) & 2) != 0;
  }
  void setSummary(unsigned Node, bool S) {
    assert(Node < N);
    setEntry(Node, S ? 3u : 1u);
  }

  Kleene unary(int Pred, unsigned Node) const {
    assert(L->Arity[Pred] == 1 && Node < N);
    return decodeKleene(entry(unaryEntry(Pred, Node)));
  }
  void setUnary(int Pred, unsigned Node, Kleene V) {
    assert(L->Arity[Pred] == 1 && Node < N);
    setEntry(unaryEntry(Pred, Node), encodeKleene(V));
  }
  Kleene binary(int Pred, unsigned A, unsigned B) const {
    assert(L->Arity[Pred] == 2 && A < N && B < N);
    return decodeKleene(entry(binaryEntry(Pred, A, B)));
  }
  void setBinary(int Pred, unsigned A, unsigned B, Kleene V) {
    assert(L->Arity[Pred] == 2 && A < N && B < N);
    setEntry(binaryEntry(Pred, A, B), encodeKleene(V));
  }

  /// Value of predicate \p Pred at \p Tuple (arity 1 or 2).
  Kleene at(int Pred, const std::vector<unsigned> &Tuple) const;

  /// Adds a fresh non-summary individual with all predicate values 0;
  /// returns its index.
  unsigned addNode();

  /// Grows the universe to \p NewN individuals in one buffer rebuild
  /// (fresh individuals are non-summary with all predicate values 0);
  /// N calls to addNode() cost N rebuilds, this costs one.
  void resizeNodes(unsigned NewN);

  /// The equality predicate of 3-valued structures: distinct individuals
  /// are unequal; an individual equals itself definitely unless it is a
  /// summary node.
  Kleene nodeEq(unsigned A, unsigned B) const {
    if (A != B)
      return Kleene::False;
    return isSummary(A) ? Kleene::Half : Kleene::True;
  }

  /// Canonical abstraction: merges individuals that agree on every
  /// unary abstraction predicate; merged individuals become summary
  /// nodes and binary values are joined. A no-op (no rebuild) when the
  /// structure is already canonical.
  void blur(const tvp::Vocabulary &V);

  /// Deterministic rendering of a blurred structure (node order is the
  /// canonical-key order); used for display and as the reference
  /// identity in tests. The relational engine's hot path identifies
  /// structures by structuralHash()/operator== instead.
  std::string canonicalStr(const tvp::Vocabulary &V) const;

  /// 64-bit structural hash over the node count and the packed entry
  /// words (word-parallel; see support::hashWords). For canonical
  /// structures (blur() leaves nodes in canonical-key order), equal
  /// hashes + operator== equality coincide with canonicalStr equality.
  uint64_t structuralHash() const;

  /// Structural equality on the raw representation. Meaningful for
  /// canonical structures over the same vocabulary (see
  /// structuralHash()).
  bool operator==(const Structure &O) const;

  /// True when the structure is in canonical form: node canonical keys
  /// are unique and stored in ascending key order (the form blur()
  /// establishes). The relational engine's interning and the
  /// independent engine's join both rely on this invariant.
  bool isCanonical(const tvp::Vocabulary &V) const;

  /// Debug-mode invariant check: asserts isCanonical(). Called after
  /// every join; compiled out in NDEBUG builds.
  void assertCanonical(const tvp::Vocabulary &V) const;

  /// Approximate heap footprint in bytes, for allocation budgets.
  size_t approxBytes() const;

  /// Independent-attribute join: embeds both structures into the union
  /// of their canonical keys and joins predicate values. Inputs that
  /// are not canonically blurred (duplicate canonical keys) are blurred
  /// first rather than silently dropping bindings; the result is always
  /// canonical (points-to smoothing and universe unions re-blur when
  /// they disturb canonical keys). Returns true when *this changed
  /// semantically. When both sides carry the same canonical key set in
  /// the same order, the join is one word-parallel OR over the buffers.
  bool joinWith(const Structure &O, const tvp::Vocabulary &V);

private:
  // Join-encoded 2-bit entries: False=01, True=10, Half=11 (0 unused).
  static uint32_t encodeKleene(Kleene K) {
    return static_cast<uint32_t>(K) + 1;
  }
  static Kleene decodeKleene(uint32_t E) {
    assert(E >= 1 && E <= 3);
    return static_cast<Kleene>(E - 1);
  }
  /// Every entry of an all-zero structure, packed: 0b01 repeated.
  static constexpr uint64_t kFalsePattern = 0x5555555555555555ull;

  uint32_t entry(size_t E) const {
    return static_cast<uint32_t>(W[E >> 5] >> ((E & 31) * 2)) & 3u;
  }
  void setEntry(size_t E, uint32_t V) {
    uint64_t &Word = W[E >> 5];
    unsigned Shift = (E & 31) * 2;
    Word = (Word & ~(3ull << Shift)) | (static_cast<uint64_t>(V) << Shift);
  }

  size_t unaryEntry(int Pred, unsigned Node) const {
    return static_cast<size_t>(N) + static_cast<size_t>(L->Slot[Pred]) * N +
           Node;
  }
  size_t binaryEntry(int Pred, unsigned A, unsigned B) const {
    return static_cast<size_t>(N) * (1 + L->NumUnary) +
           (static_cast<size_t>(L->Slot[Pred]) * N + A) * N + B;
  }
  static size_t totalEntries(const tvp::PredLayout &L, unsigned Nodes) {
    return static_cast<size_t>(Nodes) * (1 + L.NumUnary) +
           static_cast<size_t>(Nodes) * Nodes * L.NumBinary;
  }

  uint64_t *allocWords(uint32_t Count) const;
  void freeWords(uint64_t *Ptr) const {
    if (!A)
      delete[] Ptr;
  }

  /// Packs node \p Node's canonical key (unary abstraction predicate
  /// values, MSB-first so word comparison is lexicographic) into
  /// \p Out[0..keyWords).
  void packKey(unsigned Node, uint64_t *Out) const;
  unsigned keyWords() const {
    return (static_cast<unsigned>(L->AbsUnary.size()) + 31) / 32;
  }
  /// Per-node canonical key as the legacy character string (display /
  /// canonicalStr only).
  std::string keyOf(const tvp::Vocabulary &V, unsigned Node) const;

  /// True when two nodes share a canonical key (the structure needs a
  /// blur() before keys can identify nodes).
  bool hasDuplicateKeys(const tvp::Vocabulary &V) const;

  /// Process-lifetime interned layout (tvp::internLayout): safe to
  /// dereference even after the source Vocabulary is destroyed, which
  /// annotation and certificate structures rely on.
  const tvp::PredLayout *L;
  support::Arena *A = nullptr; ///< Null: W is heap-owned.
  uint64_t *W = nullptr;
  uint32_t Words = 0;
  unsigned N = 0;
};

} // namespace tvla
} // namespace canvas

#endif // CANVAS_TVLA_STRUCTURE_H
