//===----------------------------------------------------------------------===//
///
/// \file
/// Instance slicing (Stage-0 pass 2): partitions a method's component
/// locals into copy/alias-connected slices. The SCMP intraprocedural
/// engine instantiates only the predicate instances within one slice,
/// so its one boolean program has B = Σ Bᵢ variables instead of the
/// instances over every pair of slices.
///
/// Two variables land in the same slice when any action mentions both
/// (copies, call receiver/arguments/result, constructor arguments,
/// client-call arguments); method parameters are merged into one group
/// because they may already be related at method entry, and "$ret"
/// joins that group only when some edge actually assigns it (a method
/// that never returns a value cannot relate its return slot to
/// anything). A predicate instance over variables from *different*
/// slices can then never become true — no action ever relates the
/// objects — which is what lets the engine fold such instances to
/// constant false without changing a verdict (see DESIGN.md).
///
/// Slicing is forced off (one slice) when the invariant cannot be
/// established syntactically: heap component references, havoc/opaque
/// actions, possibly-uninitialized uses, or abstractions with
/// "ret"-reading update sources.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_DATAFLOW_SLICING_H
#define CANVAS_DATAFLOW_SLICING_H

#include "dataflow/Dataflow.h"

#include <string>
#include <vector>

namespace canvas {
namespace dataflow {

struct SliceResult {
  /// Partition of the variables; slices and the variables within them
  /// follow declaration order. Always at least one slice when the
  /// variable set is nonempty.
  std::vector<std::vector<std::string>> Slices;
  /// When slicing was forced off, the reason (static string); null
  /// otherwise.
  const char *ForcedSingleReason = nullptr;
};

/// Computes the slice partition of \p Vars (component locals of \p M,
/// declaration order). \p HasUninitUses and \p AbsReadsRetSources
/// communicate the Stage-0 gates that force a single slice.
SliceResult computeSlices(const cj::CFGMethod &M,
                          const std::vector<std::string> &Vars,
                          bool HasUninitUses, bool AbsReadsRetSources);

} // namespace dataflow
} // namespace canvas

#endif // CANVAS_DATAFLOW_SLICING_H
