//===----------------------------------------------------------------------===//
///
/// \file
/// The independent certificate checker: validates a Proven verdict's
/// certificate in one monotone sweep over the serialized annotation,
/// confirming (a) the engine's initial facts are covered, (b) the
/// annotation is closed under the transfer/flow functions, and (c) each
/// claimed Safe/Unreachable check is uncovered by the annotation.
///
/// Trusted-base boundary: the checker shares only the *evaluators* with
/// the engines — bp::EdgeTransfer, the ifds::Problem flow functions,
/// tvla::Transfer, baseline::AllocSiteTransfer — plus the trusted input
/// constructions those evaluators are derived from (boolean-program /
/// vocabulary / model building over the spec abstraction and client
/// CFG). It never touches a fixpoint driver, worklist, structure cap,
/// reseed loop, or memo cache; a bug confined to driver machinery
/// cannot make an invalid certificate pass.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CERT_CHECKER_H
#define CANVAS_CERT_CHECKER_H

#include "cert/Certificate.h"
#include "client/CFG.h"
#include "easl/AST.h"
#include "wp/Abstraction.h"

#include <string>

namespace canvas {
namespace cert {

struct CheckResult {
  bool Valid = false;
  std::string Reason; ///< Empty when Valid.
  double Micros = 0;  ///< Wall-clock verification time.

  /// Size of the canonical check enumeration the claims index, rebuilt
  /// from the trusted inputs (boolean-program checks, activated IFDS
  /// anchors, TVLA requires sites, flagged allocation-site
  /// obligations). Valid certificates always set it; store::CertStore
  /// uses it to reject entries whose stored verdict vector is
  /// incomplete — a deleted check is as wrong as a flipped one.
  size_t NumChecks = 0;

  /// IFDS only: the full verdict vector recomputed from the verified
  /// tabulation, in the engine's report order (per activated procedure,
  /// per canonical check). The IFDS claim space indexes anchors() while
  /// the report skips non-activated anchors, so positional claim
  /// cross-checks cannot gate a stored report; this vector can, and
  /// exactly — Solver::reached is genuine-gated just like the
  /// recomputation here. Empty for every other certificate kind.
  std::vector<core::CheckOutcome> Canonical;
};

/// Verifies certificates against the trusted inputs: the component
/// spec, its derived abstraction, and the client CFG. Stateless across
/// check() calls; one checker validates certificates from any engine.
class Checker {
public:
  Checker(const easl::Spec &Spec, const wp::DerivedAbstraction &Abs,
          const cj::ClientCFG &CFG)
      : Spec(Spec), Abs(Abs), CFG(CFG) {}

  /// Single-pass verification of one certificate. Never throws on
  /// invalid evidence — rejection is a structured CheckResult (the
  /// certifier converts it into a CertifyError); only the injected
  /// fault probe "cert-check" may throw.
  CheckResult check(const Certificate &C) const;

private:
  CheckResult checkBoolIntra(const Certificate &C) const;
  CheckResult checkSlicePartition(const Certificate &C) const;
  CheckResult checkIfds(const Certificate &C) const;
  CheckResult checkTvla(const Certificate &C) const;
  CheckResult checkAllocSite(const Certificate &C) const;

  const cj::CFGMethod *findUnit(const std::string &Unit) const;

  const easl::Spec &Spec;
  const wp::DerivedAbstraction &Abs;
  const cj::ClientCFG &CFG;
};

} // namespace cert
} // namespace canvas

#endif // CANVAS_CERT_CHECKER_H
