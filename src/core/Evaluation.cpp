#include "core/Evaluation.h"

#include "client/CFG.h"

#include <map>

using namespace canvas;
using namespace canvas::core;

std::string SiteComparison::str() const {
  return std::to_string(Sites) + " site(s), " +
         std::to_string(ViolatingSites) + " violating, " +
         std::to_string(FlaggedSites) + " flagged, " +
         std::to_string(FalseAlarms) + " false alarm(s), " +
         std::to_string(Missed) + " missed" +
         (Exhaustive ? "" : " (exploration bounded)");
}

SiteComparison core::compareWithGroundTruth(const CertificationReport &Report,
                                            const easl::Spec &Spec,
                                            const cj::Program &P,
                                            const InterpreterOptions &Opts) {
  DiagnosticEngine Diags;
  cj::ClientCFG CFG = cj::buildCFG(P, Spec, Diags);
  const cj::CFGMethod *Main = CFG.mainCFG();
  if (!Main)
    return {};
  return compareWithGroundTruth(Report, CFG,
                                executeConcretely(Spec, CFG, *Main, Opts));
}

SiteComparison core::compareWithGroundTruth(const CertificationReport &Report,
                                            const cj::ClientCFG &CFG,
                                            const GroundTruth &GT) {
  SiteComparison Out;
  Out.Exhaustive = GT.Exhaustive;

  // Aggregate ground truth per (method, client location of the call).
  std::map<std::pair<std::string, std::string>, bool> TruthBySite;
  for (const auto &[Site, Violates] : GT.MayViolate) {
    const cj::CFGMethod *M = nullptr;
    for (const cj::CFGMethod &Cand : CFG.Methods)
      if (Cand.name() == Site.Method)
        M = &Cand;
    if (!M || Site.Edge < 0 ||
        Site.Edge >= static_cast<int>(M->Edges.size()))
      continue;
    std::string Loc = M->Edges[Site.Edge].Act.Loc.str();
    bool &T = TruthBySite[{Site.Method, Loc}];
    T = T || Violates;
  }

  // Aggregate the report the same way.
  std::map<std::pair<std::string, std::string>, bool> FlaggedBySite;
  for (const CheckVerdict &C : Report.Checks) {
    bool Flagged = C.Outcome == bp::CheckOutcome::Potential ||
                   C.Outcome == bp::CheckOutcome::Definite;
    bool &F = FlaggedBySite[{C.Method, C.Loc.str()}];
    F = F || Flagged;
  }

  for (const auto &[Key, Violates] : TruthBySite) {
    ++Out.Sites;
    Out.ViolatingSites += Violates;
    auto It = FlaggedBySite.find(Key);
    bool Flagged = It != FlaggedBySite.end() && It->second;
    Out.FlaggedSites += Flagged;
    Out.FalseAlarms += Flagged && !Violates;
    Out.Missed += !Flagged && Violates;
  }
  return Out;
}
