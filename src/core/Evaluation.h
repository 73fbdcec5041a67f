//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation support for the Section 7 experiments: compares a static
/// certification report against the concrete reference executor's
/// ground truth, counting verified sites, flagged sites, false alarms
/// (flagged but unviolable) and missed violations (a soundness bug if
/// ever nonzero).
///
/// Comparison is at call-site granularity: one site per (method,
/// component-call location); a site is flagged when any of its requires
/// checks is flagged, and violating when some concretely explored
/// execution violates one of them.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CORE_EVALUATION_H
#define CANVAS_CORE_EVALUATION_H

#include "core/Certifier.h"
#include "core/Interpreter.h"

namespace canvas {
namespace core {

struct SiteComparison {
  unsigned Sites = 0;          ///< Call sites explored by ground truth.
  unsigned ViolatingSites = 0; ///< Sites with a real (explored) violation.
  unsigned FlaggedSites = 0;   ///< Sites the certifier flagged.
  unsigned FalseAlarms = 0;    ///< Flagged but never violated.
  unsigned Missed = 0;         ///< Violated but not flagged (soundness!).
  bool Exhaustive = true;      ///< Ground truth explored every path.

  std::string str() const;
};

/// Runs the reference executor on \p P's main and compares with
/// \p Report.
SiteComparison compareWithGroundTruth(const CertificationReport &Report,
                                      const easl::Spec &Spec,
                                      const cj::Program &P,
                                      const InterpreterOptions &Opts = {});

/// Compares \p Report with ground truth \p GT already computed over
/// \p CFG (executeConcretely from its main), so one executor run can
/// judge several reports on the same client.
SiteComparison compareWithGroundTruth(const CertificationReport &Report,
                                      const cj::ClientCFG &CFG,
                                      const GroundTruth &GT);

} // namespace core
} // namespace canvas

#endif // CANVAS_CORE_EVALUATION_H
