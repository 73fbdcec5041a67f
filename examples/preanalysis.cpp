//===----------------------------------------------------------------------===//
//
// Stage-0 pre-analysis tour: the two monotone-dataflow passes that run
// on the client before any certification engine.
//
// Shows, end to end:
//   - the definite-assignment conformance lint firing on a client that
//     may call a requires-bearing method on an uninitialized component
//     reference, with a precise source location and no engine involved,
//   - the slice partition of a client with several independent
//     component pipelines, and
//   - the SCMPIntra certification of that client: one boolean program
//     per method over the partition, smaller than the unpartitioned
//     program, with the same verdicts.
//
//===----------------------------------------------------------------------===//

#include "boolprog/Analysis.h"
#include "client/Parser.h"
#include "core/Certifier.h"
#include "dataflow/PreAnalysis.h"
#include "easl/Builtins.h"

#include <cstdio>

using namespace canvas;

// A client with a possibly-uninitialized iterator: the lint catches the
// conformance problem before any boolean program is built.
static const char *LintClient = R"(
  class Sloppy {
    void main() {
      Set s = new Set();
      Iterator i;
      if (*) { i = s.iterator(); }
      i.next();
    }
  }
)";

// Two independent Set/Iterator pipelines: no action relates them, so
// Stage 0 splits main() into two slices.
static const char *SliceClient = R"(
  class Pipelines {
    void main() {
      Set s = new Set();
      Iterator i = s.iterator();
      Set t = new Set();
      Iterator j = t.iterator();
      if (*) { s.add(); }
      i.next();
      j.next();
    }
  }
)";

static core::CertificationReport certify(const char *Source) {
  DiagnosticEngine Diags;
  core::Certifier C(easl::cmpSpecSource(), core::EngineKind::SCMPIntra,
                    Diags);
  core::CertificationReport R = C.certifySource(Source, Diags);
  if (Diags.hasErrors())
    std::fprintf(stderr, "%s", Diags.str().c_str());
  return R;
}

int main() {
  // --- 1. The conformance lint. -------------------------------------
  std::printf("=== Stage-0 lint on an uninitialized-iterator client ===\n");
  std::printf("%s\n", certify(LintClient).str().c_str());

  // --- 2. The slice partition. --------------------------------------
  DiagnosticEngine Diags;
  easl::Spec Spec = easl::parseSpec(easl::cmpSpecSource(), Diags);
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  cj::Program Prog = cj::parseProgram(SliceClient, Diags);
  cj::ClientCFG CFG = cj::buildCFG(Prog, Spec, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  dataflow::PreAnalysisResult PA = dataflow::preAnalyze(CFG, Abs);
  std::printf("=== Stage-0 partition of the pipelines client ===\n");
  size_t Unpartitioned = 0;
  for (const dataflow::MethodPlan &Plan : PA.Plans) {
    std::printf("%s: %zu slice(s)\n", Plan.Source->name().c_str(),
                Plan.Slices.size());
    for (size_t S = 0; S != Plan.Slices.size(); ++S) {
      std::printf("  slice %zu: {", S);
      for (size_t V = 0; V != Plan.Slices[S].size(); ++V)
        std::printf("%s%s", V ? ", " : "", Plan.Slices[S][V].c_str());
      std::printf("}\n");
    }
    if (Plan.ForcedSingleReason)
      std::printf("  (single slice forced: %s)\n", Plan.ForcedSingleReason);
    Unpartitioned += bp::buildBooleanProgram(Abs, *Plan.Source, Diags)
                         .Vars.size();
  }
  std::printf("\n");

  // --- 3. Certification over the partition. -------------------------
  core::CertificationReport R = certify(SliceClient);
  std::printf("=== SCMPIntra certification ===\n%s\n", R.str().c_str());
  std::printf("boolean program size B: %zu partitioned, %zu unpartitioned\n",
              R.BoolVars, Unpartitioned);
  return R.BoolVars < Unpartitioned ? 0 : 1;
}
