//===----------------------------------------------------------------------===//
///
/// \file
/// The Stage-0 client pre-analysis: the cheapest stage of the staged
/// certification pipeline (Section 1.3), run after CFG construction and
/// before any engine. Per client method, over the original CFG, it
///
///   1. lints possibly-uninitialized component uses (definite
///      assignment), and
///   2. partitions the component locals into copy/alias-connected
///      slices (dataflow/Slicing.h).
///
/// The SCMPIntra engine builds one boolean program per method over the
/// partition: instances whose component-variable arguments fall in two
/// different slices fold to constant false, and every verdict, witness
/// and check text stays that of the unpartitioned program (see
/// bp::buildBooleanProgram and DESIGN.md "Stage 0 pre-analysis").
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_DATAFLOW_PREANALYSIS_H
#define CANVAS_DATAFLOW_PREANALYSIS_H

#include "dataflow/DefiniteAssignment.h"
#include "dataflow/Slicing.h"
#include "wp/Abstraction.h"

#include <string>
#include <vector>

namespace canvas {
namespace dataflow {

struct PreAnalysisOptions {
  /// Compute the slice partition; without it every method with
  /// component variables gets one slice.
  bool Slice = true;
  /// No effect: dead-store elimination was removed. Kept so existing
  /// callers still compile.
  bool EliminateDeadStores = false;
  /// Optional budget handle bounding the Stage-0 fixpoints (not owned).
  support::CancelToken *Cancel = nullptr;
};

/// The Stage-0 result for one client method.
struct MethodPlan {
  const cj::CFGMethod *Source = nullptr;
  /// Partition of the component locals, declaration order (at least one
  /// slice when the method has any).
  std::vector<std::vector<std::string>> Slices;
  const char *ForcedSingleReason = nullptr;
  /// The definite-assignment fixpoint (analyzeDefiniteAssignment's
  /// StatesOut), kept for multi-slice methods only: a SlicePartition
  /// certificate derives its must-assigned annotation from it.
  std::vector<BitVector> MayUninit;

  bool multiSlice() const { return Slices.size() > 1; }
};

struct PreAnalysisResult {
  /// Indexed like the ClientCFG's method list.
  std::vector<MethodPlan> Plans;
  /// Lint findings across all methods, method order then edge order.
  std::vector<UninitUse> Findings;
  /// Methods attributed per finding (parallel to Findings).
  std::vector<std::string> FindingMethods;

  unsigned multiSliceMethods() const;
};

/// True when any update rule of \p Abs reads a predicate over "ret" in
/// the pre-call state; such abstractions disable slicing (no built-in
/// spec triggers this).
bool abstractionReadsRetSources(const wp::DerivedAbstraction &Abs);

/// Runs Stage 0 on every method of a client.
PreAnalysisResult preAnalyze(const cj::ClientCFG &CFG,
                             const wp::DerivedAbstraction &Abs,
                             const PreAnalysisOptions &Opts = {});

} // namespace dataflow
} // namespace canvas

#endif // CANVAS_DATAFLOW_PREANALYSIS_H
