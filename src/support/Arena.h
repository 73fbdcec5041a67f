//===----------------------------------------------------------------------===//
///
/// \file
/// A per-fixpoint bump arena for analysis scratch values. Engines that
/// produce many short-lived intermediate values per worklist visit
/// (tvla::Transfer's edge images, snapshots, and rule temporaries)
/// allocate them here instead of the global heap; reset() at the top of
/// the next visit rewinds the arena to empty while keeping every block
/// mapped, so the steady state performs zero heap traffic.
///
/// Ownership rules (see DESIGN.md "Arena / flat-structure memory
/// architecture"):
///  - The arena never runs destructors; only trivially-destructible
///    payloads (packed word buffers) may live in it.
///  - Anything that outlives the current fixpoint visit must be copied
///    out to the heap before reset() — tvla::Structure's copy
///    constructor always detaches to the heap for exactly this reason.
///  - One arena belongs to one engine instance and is not thread-safe;
///    an engine instance runs one unit of one certify() call, on the
///    thread that called it.
///
/// Budget integration: each *new block* (not each bump) is charged to
/// the optional CancelToken via addAllocation(), so allocation-budget
/// ceilings still bound arena growth while a bump makes no budget
/// call.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_ARENA_H
#define CANVAS_SUPPORT_ARENA_H

#include "support/Budget.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace canvas {
namespace support {

class Arena {
public:
  /// \p Cancel, when given, is charged once per fresh block mapping.
  explicit Arena(CancelToken *Cancel = nullptr, size_t BlockBytes = 1 << 14)
      : Cancel(Cancel), BlockBytes(BlockBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Bump-allocates \p Bytes with \p Align alignment (power of two,
  /// at most alignof(std::max_align_t)).
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    if (Cur < Blocks.size()) {
      Block &B = Blocks[Cur];
      size_t Off = (B.Used + Align - 1) & ~(Align - 1);
      if (Off + Bytes <= B.Size) {
        B.Used = Off + Bytes;
        ++Allocs;
        return B.Mem.get() + Off;
      }
    }
    return allocateSlow(Bytes, Align);
  }

  /// Typed convenience: an uninitialized array of \p Count Ts. T must be
  /// trivially destructible (the arena never runs destructors).
  template <typename T> T *allocateArray(size_t Count) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena payloads must not need destructors");
    return static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
  }

  /// Rewinds the arena to empty, keeping every block mapped for reuse.
  /// Every pointer previously handed out becomes dangling; callers must
  /// have copied surviving values to the heap first.
  void reset() {
    for (size_t I = 0; I <= Cur && I < Blocks.size(); ++I)
      Blocks[I].Used = 0;
    Cur = 0;
  }

  /// Frees every block (used by tests to force fresh mappings).
  void release() {
    Blocks.clear();
    Cur = 0;
  }

  size_t bytesMapped() const {
    size_t S = 0;
    for (const Block &B : Blocks)
      S += B.Size;
    return S;
  }
  size_t bytesUsed() const {
    size_t S = 0;
    for (const Block &B : Blocks)
      S += B.Used;
    return S;
  }
  uint64_t numAllocations() const { return Allocs; }
  size_t numBlocks() const { return Blocks.size(); }

private:
  struct Block {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
    size_t Used = 0;
  };

  void *allocateSlow(size_t Bytes, size_t Align) {
    // Advance through already-mapped blocks first (post-reset reuse).
    while (Cur + 1 < Blocks.size()) {
      ++Cur;
      Block &B = Blocks[Cur];
      size_t Off = (B.Used + Align - 1) & ~(Align - 1);
      if (Off + Bytes <= B.Size) {
        B.Used = Off + Bytes;
        ++Allocs;
        return B.Mem.get() + Off;
      }
    }
    size_t Size = BlockBytes;
    if (Size < Bytes + Align)
      Size = Bytes + Align;
    if (Cancel)
      Cancel->addAllocation(Size);
    Block B;
    B.Mem = std::make_unique<char[]>(Size);
    B.Size = Size;
    Blocks.push_back(std::move(B));
    Cur = Blocks.size() - 1;
    Block &NB = Blocks[Cur];
    uintptr_t Raw = reinterpret_cast<uintptr_t>(NB.Mem.get());
    size_t Off = ((Raw + Align - 1) & ~(uintptr_t)(Align - 1)) - Raw;
    NB.Used = Off + Bytes;
    ++Allocs;
    return NB.Mem.get() + Off;
  }

  CancelToken *Cancel;
  size_t BlockBytes;
  std::vector<Block> Blocks;
  size_t Cur = 0;
  uint64_t Allocs = 0;
};

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_ARENA_H
