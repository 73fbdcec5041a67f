#include "dataflow/PreAnalysis.h"

using namespace canvas;
using namespace canvas::dataflow;

unsigned PreAnalysisResult::multiSliceMethods() const {
  unsigned N = 0;
  for (const MethodPlan &P : Plans)
    N += P.multiSlice();
  return N;
}

bool dataflow::abstractionReadsRetSources(const wp::DerivedAbstraction &Abs) {
  for (const wp::MethodAbstraction &M : Abs.Methods)
    for (const wp::UpdateRule &R : M.Rules)
      for (const wp::PredApp &Src : R.Sources)
        for (const std::string &Arg : Src.Args)
          if (Arg == "ret")
            return true;
  return false;
}

PreAnalysisResult dataflow::preAnalyze(const cj::ClientCFG &CFG,
                                       const wp::DerivedAbstraction &Abs,
                                       const PreAnalysisOptions &Opts) {
  PreAnalysisResult R;
  R.Plans.reserve(CFG.Methods.size());
  const bool RetSources = Opts.Slice && abstractionReadsRetSources(Abs);
  for (const cj::CFGMethod &M : CFG.Methods) {
    MethodPlan &Plan = R.Plans.emplace_back();
    Plan.Source = &M;

    std::vector<BitVector> MayUninit;
    DefiniteAssignmentResult DA = analyzeDefiniteAssignment(
        M, CFGInfo(M), &Abs, Opts.Cancel, Opts.Slice ? &MayUninit : nullptr);
    const bool HasUninitUses = !DA.clean();
    for (UninitUse &U : DA.Uses) {
      R.Findings.push_back(std::move(U));
      R.FindingMethods.push_back(M.name());
    }

    std::vector<std::string> Vars;
    Vars.reserve(M.CompVars.size());
    for (const auto &NameAndType : M.CompVars)
      Vars.push_back(NameAndType.first);
    if (!Opts.Slice) {
      if (!Vars.empty())
        Plan.Slices.assign(1, std::move(Vars));
      continue;
    }
    SliceResult SR = computeSlices(M, Vars, HasUninitUses, RetSources);
    Plan.Slices = std::move(SR.Slices);
    Plan.ForcedSingleReason = SR.ForcedSingleReason;
    if (Plan.multiSlice())
      Plan.MayUninit = std::move(MayUninit);
  }
  return R;
}
