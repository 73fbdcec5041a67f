//===----------------------------------------------------------------------===//
///
/// \file
/// The first-order certification engine of Section 5: abstract
/// interpretation of the client over 3-valued structures whose
/// vocabulary combines client points-to predicates with the derived
/// first-order instrumentation predicates (Figs. 10/11), in two
/// configurations (Section 5.5):
///
///  - relational: a set of 3-valued structures per program point;
///  - independent-attribute: a single joined structure per point.
///
/// Component-method calls update the instrumentation predicates via the
/// derived update rules quantified over individuals; value-returning
/// methods proved fresh-returning are modeled as allocations.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_TVLA_CERTIFY_H
#define CANVAS_TVLA_CERTIFY_H

#include "boolprog/Analysis.h"
#include "client/CFG.h"
#include "easl/AST.h"
#include "tvla/Structure.h"
#include "wp/Abstraction.h"

#include <string>
#include <vector>

namespace canvas {
namespace tvla {

struct TVLAResult {
  struct Chk {
    SourceLoc Loc;
    std::string What;
    bp::CheckOutcome Outcome;
  };
  std::vector<Chk> Checks;
  unsigned Iterations = 0;
  /// Peak number of structures kept at one program point (1 for the
  /// independent-attribute engine).
  unsigned MaxStructuresPerPoint = 0;
  /// Relational engine only: distinct structures admitted to the
  /// hash-consing pool over the whole fixpoint.
  uint64_t InternedStructures = 0;
  /// Relational engine only: (StructId, edge) transfer evaluations
  /// served from the memo table / computed fresh.
  uint64_t TransferCacheHits = 0;
  uint64_t TransferCacheMisses = 0;
};

/// The engine's fixpoint annotation: the structures resident at each
/// program point when the worklist drained (empty inner vector =
/// unreachable point). Relational configuration: the per-point set in
/// deterministic insertion order; independent-attribute: exactly one
/// structure per reached point. This is the evidence a proof-carrying
/// certificate serializes for cert::Checker.
struct PointAnnotation {
  std::vector<std::vector<Structure>> PerNode;
};

struct TVLAOptions {
  bool Relational = false;
  /// Relational engine: structures kept per point before the engine
  /// joins overflow structures together (precision, not soundness, is
  /// lost at the cap).
  unsigned MaxStructuresPerPoint = 256;
  /// Optional budget handle bounding the fixpoint (not owned); ticked
  /// once per worklist pop and informed of the resident structure
  /// population. See support/Budget.h.
  support::CancelToken *Cancel = nullptr;
  /// When non-null, receives the final per-point structure sets (not
  /// owned; overwritten).
  PointAnnotation *AnnotationOut = nullptr;
};

/// Certifies one client method. \p Spec is not read: the transfer
/// needs only the abstraction derived from it.
TVLAResult certifyWithTVLA(const easl::Spec &Spec,
                           const wp::DerivedAbstraction &Abs,
                           const cj::CFGMethod &M, bool Relational,
                           DiagnosticEngine &Diags);

TVLAResult certifyWithTVLA(const easl::Spec &Spec,
                           const wp::DerivedAbstraction &Abs,
                           const cj::CFGMethod &M, const TVLAOptions &Opts,
                           DiagnosticEngine &Diags);

} // namespace tvla
} // namespace canvas

#endif // CANVAS_TVLA_CERTIFY_H
