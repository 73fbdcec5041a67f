#include "tvla/Structure.h"

#include "support/Interner.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace canvas;
using namespace canvas::tvla;

namespace {

/// Lexicographic comparison of two packed canonical keys (MSB-first
/// packing makes word order the pred order).
inline bool keyLess(const uint64_t *A, const uint64_t *B, unsigned KW) {
  for (unsigned I = 0; I != KW; ++I)
    if (A[I] != B[I])
      return A[I] < B[I];
  return false;
}

inline bool keyEq(const uint64_t *A, const uint64_t *B, unsigned KW) {
  for (unsigned I = 0; I != KW; ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

} // namespace

Structure::Structure(const tvp::Vocabulary &V) {
  // buildVocabulary always finalizes the layout; hand-built
  // vocabularies (tests) are finalized lazily here.
  if (!V.layoutReady())
    const_cast<tvp::Vocabulary &>(V).finalizeLayout();
  L = V.Layout;
}

Structure::Structure(const tvp::Vocabulary &V, support::Arena &Scratch)
    : Structure(V) {
  A = &Scratch;
}

Structure::Structure(const Structure &O)
    : L(O.L), A(nullptr), Words(O.Words), N(O.N) {
  if (Words) {
    W = new uint64_t[Words];
    std::memcpy(W, O.W, Words * sizeof(uint64_t));
  }
}

Structure::Structure(const Structure &O, support::Arena &Scratch)
    : L(O.L), A(&Scratch), Words(O.Words), N(O.N) {
  if (Words) {
    W = A->allocateArray<uint64_t>(Words);
    std::memcpy(W, O.W, Words * sizeof(uint64_t));
  }
}

Structure::Structure(Structure &&O) noexcept
    : L(O.L), A(O.A), W(O.W), Words(O.Words), N(O.N) {
  O.W = nullptr;
  O.Words = 0;
  O.N = 0;
}

Structure &Structure::operator=(const Structure &O) {
  if (this == &O)
    return *this;
  L = O.L;
  if (Words != O.Words) {
    uint64_t *NW = nullptr;
    if (O.Words)
      NW = A ? A->allocateArray<uint64_t>(O.Words) : new uint64_t[O.Words];
    freeWords(W);
    W = NW;
    Words = O.Words;
  }
  if (Words)
    std::memcpy(W, O.W, Words * sizeof(uint64_t));
  N = O.N;
  return *this;
}

Structure &Structure::operator=(Structure &&O) noexcept {
  if (this == &O)
    return *this;
  if (A == O.A) {
    freeWords(W);
    L = O.L;
    W = O.W;
    Words = O.Words;
    N = O.N;
    O.W = nullptr;
    O.Words = 0;
    O.N = 0;
    return *this;
  }
  // Allocator kinds differ (e.g. a heap-owned destination receiving an
  // arena scratch value): copy, preserving the destination's ownership
  // guarantee — non-arena structures always own heap words.
  return *this = static_cast<const Structure &>(O);
}

uint64_t *Structure::allocWords(uint32_t Count) const {
  if (!Count)
    return nullptr;
  uint64_t *P = A ? A->allocateArray<uint64_t>(Count) : new uint64_t[Count];
  std::fill_n(P, Count, kFalsePattern);
  return P;
}

Kleene Structure::at(int Pred, const std::vector<unsigned> &Tuple) const {
  if (Tuple.size() == 1)
    return unary(Pred, Tuple[0]);
  return binary(Pred, Tuple[0], Tuple[1]);
}

void Structure::resizeNodes(unsigned NewN) {
  assert(NewN >= N && "resizeNodes only grows the universe");
  if (NewN == N)
    return;
  const tvp::PredLayout &Lay = *L;
  const unsigned OldN = N;
  size_t TE = totalEntries(Lay, NewN);
  uint32_t NewWords = static_cast<uint32_t>((TE + 31) / 32);
  uint64_t *NW = allocWords(NewWords);

  auto Get = [&](size_t E) {
    return static_cast<uint32_t>(W[E >> 5] >> ((E & 31) * 2)) & 3u;
  };
  auto Put = [&](size_t E, uint32_t Val) {
    unsigned Shift = (E & 31) * 2;
    NW[E >> 5] =
        (NW[E >> 5] & ~(3ull << Shift)) | (static_cast<uint64_t>(Val) << Shift);
  };

  // Summary bits, then unary columns, then binary matrices: each section
  // re-based from the old node count to the new one.
  for (unsigned Node = 0; Node != OldN; ++Node)
    Put(Node, Get(Node));
  for (unsigned U = 0; U != Lay.NumUnary; ++U) {
    size_t OldBase = static_cast<size_t>(OldN) + static_cast<size_t>(U) * OldN;
    size_t NewBase = static_cast<size_t>(NewN) + static_cast<size_t>(U) * NewN;
    for (unsigned Node = 0; Node != OldN; ++Node)
      Put(NewBase + Node, Get(OldBase + Node));
  }
  size_t OldBin = static_cast<size_t>(OldN) * (1 + Lay.NumUnary);
  size_t NewBin = static_cast<size_t>(NewN) * (1 + Lay.NumUnary);
  for (unsigned B = 0; B != Lay.NumBinary; ++B)
    for (unsigned R = 0; R != OldN; ++R)
      for (unsigned C = 0; C != OldN; ++C)
        Put(NewBin + (static_cast<size_t>(B) * NewN + R) * NewN + C,
            Get(OldBin + (static_cast<size_t>(B) * OldN + R) * OldN + C));

  freeWords(W);
  W = NW;
  Words = NewWords;
  N = NewN;
}

unsigned Structure::addNode() {
  unsigned Old = N;
  resizeNodes(N + 1);
  return Old;
}

void Structure::packKey(unsigned Node, uint64_t *Out) const {
  const std::vector<int> &Abs = L->AbsUnary;
  const unsigned KW = keyWords();
  for (unsigned I = 0; I != KW; ++I)
    Out[I] = 0;
  for (size_t I = 0; I != Abs.size(); ++I) {
    uint32_t E = entry(unaryEntry(Abs[I], Node));
    Out[I >> 5] |= static_cast<uint64_t>(E) << (62 - 2 * (I & 31));
  }
}

std::string Structure::keyOf(const tvp::Vocabulary &V, unsigned Node) const {
  std::string Key;
  for (size_t P = 0; P != V.Preds.size(); ++P) {
    if (V.Preds[P].Arity != 1 || !V.Preds[P].Abstraction)
      continue;
    Key += kleeneChar(unary(static_cast<int>(P), Node));
  }
  return Key;
}

void Structure::blur(const tvp::Vocabulary &V) {
  (void)V;
  if (N < 2)
    return;
  const tvp::PredLayout &Lay = *L;
  const unsigned KW = keyWords();
  std::vector<uint64_t> Keys(static_cast<size_t>(N) * KW);
  for (unsigned Node = 0; Node != N; ++Node)
    packKey(Node, Keys.data() + static_cast<size_t>(Node) * KW);

  // Already canonical (keys strictly ascending): blurring is the
  // identity, skip the rebuild.
  bool Sorted = KW > 0;
  for (unsigned Node = 1; Node < N && Sorted; ++Node)
    Sorted = keyLess(Keys.data() + static_cast<size_t>(Node - 1) * KW,
                     Keys.data() + static_cast<size_t>(Node) * KW, KW);
  if (Sorted)
    return;

  // Group nodes by canonical key, ascending (stable: original node
  // order within a group).
  std::vector<unsigned> Ord(N);
  std::iota(Ord.begin(), Ord.end(), 0u);
  std::stable_sort(Ord.begin(), Ord.end(), [&](unsigned L, unsigned R) {
    return keyLess(Keys.data() + static_cast<size_t>(L) * KW,
                   Keys.data() + static_cast<size_t>(R) * KW, KW);
  });
  std::vector<std::pair<unsigned, unsigned>> Groups; // [From, To) into Ord.
  for (unsigned I = 0; I != N;) {
    unsigned J = I + 1;
    while (J != N && keyEq(Keys.data() + static_cast<size_t>(Ord[I]) * KW,
                           Keys.data() + static_cast<size_t>(Ord[J]) * KW, KW))
      ++J;
    Groups.emplace_back(I, J);
    I = J;
  }

  const unsigned OldN = N;
  const unsigned NewN = static_cast<unsigned>(Groups.size());
  size_t TE = totalEntries(Lay, NewN);
  uint32_t NewWords = static_cast<uint32_t>((TE + 31) / 32);
  uint64_t *NW = allocWords(NewWords);
  auto Put = [&](size_t E, uint32_t Val) {
    unsigned Shift = (E & 31) * 2;
    NW[E >> 5] =
        (NW[E >> 5] & ~(3ull << Shift)) | (static_cast<uint64_t>(Val) << Shift);
  };

  for (unsigned G = 0; G != NewN; ++G) {
    auto [From, To] = Groups[G];
    bool Sum = To - From > 1;
    for (unsigned I = From; I != To && !Sum; ++I)
      Sum = isSummary(Ord[I]);
    Put(G, Sum ? 3u : 1u);
  }
  for (unsigned U = 0; U != Lay.NumUnary; ++U) {
    size_t OldBase = static_cast<size_t>(OldN) + static_cast<size_t>(U) * OldN;
    size_t NewBase = static_cast<size_t>(NewN) + static_cast<size_t>(U) * NewN;
    for (unsigned G = 0; G != NewN; ++G) {
      auto [From, To] = Groups[G];
      uint32_t Acc = 0; // Join-encoded: kJoin folds are bitwise OR.
      for (unsigned I = From; I != To; ++I)
        Acc |= entry(OldBase + Ord[I]);
      Put(NewBase + G, Acc);
    }
  }
  size_t OldBin = static_cast<size_t>(OldN) * (1 + Lay.NumUnary);
  size_t NewBin = static_cast<size_t>(NewN) * (1 + Lay.NumUnary);
  for (unsigned B = 0; B != Lay.NumBinary; ++B)
    for (unsigned GI = 0; GI != NewN; ++GI)
      for (unsigned GJ = 0; GJ != NewN; ++GJ) {
        auto [FI, TI] = Groups[GI];
        auto [FJ, TJ] = Groups[GJ];
        uint32_t Acc = 0;
        for (unsigned I = FI; I != TI; ++I)
          for (unsigned J = FJ; J != TJ; ++J)
            Acc |= entry(OldBin + (static_cast<size_t>(B) * OldN + Ord[I]) *
                                      OldN +
                         Ord[J]);
        Put(NewBin + (static_cast<size_t>(B) * NewN + GI) * NewN + GJ, Acc);
      }

  freeWords(W);
  W = NW;
  Words = NewWords;
  N = NewN;
}

std::string Structure::canonicalStr(const tvp::Vocabulary &V) const {
  // Assumes blurred: keys are unique; order nodes by key.
  std::vector<std::pair<std::string, unsigned>> Order;
  for (unsigned Node = 0; Node != N; ++Node)
    Order.emplace_back(keyOf(V, Node), Node);
  std::sort(Order.begin(), Order.end());

  std::string Out;
  for (const auto &[Key, Node] : Order) {
    Out += Key;
    Out += isSummary(Node) ? "S" : ".";
    Out += "|";
  }
  for (size_t P = 0; P != L->Arity.size(); ++P) {
    if (L->Arity[P] != 2)
      continue;
    for (const auto &[KA, A2] : Order)
      for (const auto &[KB, B2] : Order)
        Out += kleeneChar(binary(static_cast<int>(P), A2, B2));
    Out += "|";
  }
  // Unary non-abstraction values (none in the current vocabulary, but
  // keep the rendering complete).
  for (size_t P = 0; P != L->Arity.size(); ++P) {
    if (L->Arity[P] != 1 || L->IsAbs[P])
      continue;
    for (const auto &[K, Node] : Order)
      Out += kleeneChar(unary(static_cast<int>(P), Node));
    Out += "|";
  }
  return Out;
}

uint64_t Structure::structuralHash() const {
  uint64_t H = support::hashMix(N);
  return support::hashCombine(H, support::hashWords(W, Words));
}

bool Structure::operator==(const Structure &O) const {
  return N == O.N && Words == O.Words &&
         (Words == 0 ||
          std::memcmp(W, O.W, Words * sizeof(uint64_t)) == 0);
}

bool Structure::isCanonical(const tvp::Vocabulary &V) const {
  (void)V;
  if (N < 2)
    return true;
  const unsigned KW = keyWords();
  if (KW == 0)
    return false; // No abstraction preds: every key collides.
  std::vector<uint64_t> Prev(KW), Curr(KW);
  packKey(0, Prev.data());
  for (unsigned Node = 1; Node != N; ++Node) {
    packKey(Node, Curr.data());
    if (!keyLess(Prev.data(), Curr.data(), KW))
      return false;
    std::swap(Prev, Curr);
  }
  return true;
}

void Structure::assertCanonical(const tvp::Vocabulary &V) const {
#ifndef NDEBUG
  assert(isCanonical(V) &&
         "structure must be in canonical form (blurred, key-ordered)");
#endif
  (void)V;
}

size_t Structure::approxBytes() const {
  return sizeof(Structure) + static_cast<size_t>(Words) * sizeof(uint64_t);
}

bool Structure::hasDuplicateKeys(const tvp::Vocabulary &V) const {
  (void)V;
  if (N < 2)
    return false;
  const unsigned KW = keyWords();
  if (KW == 0)
    return true;
  std::vector<uint64_t> Keys(static_cast<size_t>(N) * KW);
  for (unsigned Node = 0; Node != N; ++Node)
    packKey(Node, Keys.data() + static_cast<size_t>(Node) * KW);
  std::vector<unsigned> Ord(N);
  std::iota(Ord.begin(), Ord.end(), 0u);
  std::sort(Ord.begin(), Ord.end(), [&](unsigned L, unsigned R) {
    return keyLess(Keys.data() + static_cast<size_t>(L) * KW,
                   Keys.data() + static_cast<size_t>(R) * KW, KW);
  });
  for (unsigned I = 1; I != N; ++I)
    if (keyEq(Keys.data() + static_cast<size_t>(Ord[I - 1]) * KW,
              Keys.data() + static_cast<size_t>(Ord[I]) * KW, KW))
      return true;
  return false;
}

bool Structure::joinWith(const Structure &O, const tvp::Vocabulary &V) {
  bool Changed = false;

  // An input that is not canonically blurred has nodes sharing a key; a
  // key-to-node map would silently drop all but one of them, losing
  // bindings. Blur first instead (merging indistinguishable nodes is
  // the canonical abstraction, never a precision loss beyond it).
  if (hasDuplicateKeys(V)) {
    blur(V);
    Changed = true;
  }
  Structure OBlurred(V);
  const Structure *Other = &O;
  if (O.hasDuplicateKeys(V)) {
    OBlurred = O;
    OBlurred.blur(V);
    Other = &OBlurred;
  }
  const Structure &OC = *Other;
  const unsigned KW = keyWords();

  std::vector<uint64_t> MK(static_cast<size_t>(N) * KW),
      TK(static_cast<size_t>(OC.N) * KW);
  for (unsigned Node = 0; Node != N; ++Node)
    packKey(Node, MK.data() + static_cast<size_t>(Node) * KW);
  for (unsigned Node = 0; Node != OC.N; ++Node)
    OC.packKey(Node, TK.data() + static_cast<size_t>(Node) * KW);

  bool Imported = false;
  bool Smoothed = false;

  if (N == OC.N && MK == TK) {
    // Same canonical key set in the same node order: the matched-node
    // join (summary OR, binary kJoin, unary values already equal) is
    // one word-parallel OR over the packed buffers.
    for (uint32_t I = 0; I != Words; ++I) {
      uint64_t J = W[I] | OC.W[I];
      if (J != W[I]) {
        W[I] = J;
        Changed = true;
      }
    }
  } else {
    // Map canonical keys to node ids on both sides (keys are unique
    // after the blurs above), merging the two sorted orders.
    std::vector<unsigned> OM(N), OT(OC.N);
    std::iota(OM.begin(), OM.end(), 0u);
    std::iota(OT.begin(), OT.end(), 0u);
    auto ByKey = [&](const std::vector<uint64_t> &Keys) {
      return [&Keys, KW](unsigned L, unsigned R) {
        return keyLess(Keys.data() + static_cast<size_t>(L) * KW,
                       Keys.data() + static_cast<size_t>(R) * KW, KW);
      };
    };
    std::sort(OM.begin(), OM.end(), ByKey(MK));
    std::sort(OT.begin(), OT.end(), ByKey(TK));

    std::vector<int> Map(OC.N, -1);
    std::vector<unsigned> Missing; // Their nodes, ascending key order.
    size_t I = 0;
    for (unsigned T : OT) {
      const uint64_t *TKey = TK.data() + static_cast<size_t>(T) * KW;
      while (I != OM.size() &&
             keyLess(MK.data() + static_cast<size_t>(OM[I]) * KW, TKey, KW))
        ++I;
      if (I != OM.size() &&
          keyEq(MK.data() + static_cast<size_t>(OM[I]) * KW, TKey, KW))
        Map[T] = static_cast<int>(OM[I]);
      else
        Missing.push_back(T);
    }

    // Import nodes present only in OC, in ascending key order (one
    // buffer rebuild for the whole batch).
    if (!Missing.empty()) {
      unsigned Fresh = N;
      resizeNodes(N + static_cast<unsigned>(Missing.size()));
      Changed = true;
      Imported = true;
      for (unsigned T : Missing) {
        for (size_t P = 0; P != L->Arity.size(); ++P)
          if (L->Arity[P] == 1)
            setUnary(static_cast<int>(P), Fresh,
                     OC.unary(static_cast<int>(P), T));
        setSummary(Fresh, OC.isSummary(T));
        Map[T] = static_cast<int>(Fresh++);
      }
    }

    // Join summary bits and binary values over matched nodes.
    for (unsigned T = 0; T != OC.N; ++T) {
      unsigned M = static_cast<unsigned>(Map[T]);
      if (OC.isSummary(T) && !isSummary(M)) {
        setSummary(M, true);
        Changed = true;
      }
    }
    for (size_t P = 0; P != L->Arity.size(); ++P) {
      if (L->Arity[P] != 2)
        continue;
      for (unsigned TA = 0; TA != OC.N; ++TA)
        for (unsigned TB = 0; TB != OC.N; ++TB) {
          size_t E = binaryEntry(static_cast<int>(P),
                                 static_cast<unsigned>(Map[TA]),
                                 static_cast<unsigned>(Map[TB]));
          uint32_t Old = entry(E);
          uint32_t J =
              Old | OC.entry(OC.binaryEntry(static_cast<int>(P), TA, TB));
          if (J != Old) {
            setEntry(E, J);
            Changed = true;
          }
        }
    }
  }

  // A variable references exactly one object per execution; after a
  // universe union a points-to predicate definite at two individuals
  // means "one or the other", i.e. 1/2 at each.
  for (size_t P = 0; P != L->Arity.size(); ++P) {
    if (!L->IsVarPT[P])
      continue;
    unsigned Definite = 0;
    for (unsigned Node = 0; Node != N; ++Node)
      Definite += entry(unaryEntry(static_cast<int>(P), Node)) == 2u;
    if (Definite < 2)
      continue;
    for (unsigned Node = 0; Node != N; ++Node) {
      size_t E = unaryEntry(static_cast<int>(P), Node);
      if (entry(E) == 2u) {
        setEntry(E, 3u);
        Changed = true;
        Smoothed = true;
      }
    }
  }

  // Restore the canonical invariant: smoothing flips abstraction
  // predicate values (node keys change, and previously distinguished
  // nodes may now coincide), and imported nodes were appended out of
  // key order. Either way the canonical keys no longer identify nodes
  // until we re-blur.
  if ((Smoothed || Imported) && !isCanonical(V))
    blur(V);
  assertCanonical(V);
  return Changed;
}
