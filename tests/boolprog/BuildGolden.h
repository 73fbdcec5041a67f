//===----------------------------------------------------------------------===//
///
/// \file
/// Renderings that pin bp::buildBooleanProgram's output byte for byte:
/// for every method of the 13 bench-suite clients and the first 20
/// clients of corpus seed 7, the boolean program (variables with their
/// family and arguments, per-edge assignments) and every check of two
/// builds — unrestricted, and unrestricted over the ghost-extended CFG
/// the interprocedural engine analyzes.
///
/// For every such client with a main(), a third rendering pins the
/// interprocedural engine: its report (verdicts and witnesses), the four
/// tabulation counters (worklist pops, exploded nodes, path edges,
/// summaries) and the serialized IFDS certificate. The pop count moves
/// with any change in the solver's worklist order.
///
/// BuildGoldenTest compares FNV-1a digests of these renderings with
/// tests/boolprog/BuildGolden.txt; `build_golden_gen CORPUS_DIR` writes
/// that file, and `build_golden_gen --full CORPUS_DIR` prints the
/// renderings themselves (diff two builds' outputs to see what moved).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_TESTS_BOOLPROG_BUILDGOLDEN_H
#define CANVAS_TESTS_BOOLPROG_BUILDGOLDEN_H

#include "boolprog/BooleanProgram.h"
#include "boolprog/Interprocedural.h"
#include "cert/Emit.h"
#include "client/Parser.h"
#include "easl/Builtins.h"
#include "shard/Corpus.h"

#include "../../bench/Suite.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace canvas {
namespace golden {

struct Entry {
  std::string Key; ///< "client method build".
  std::string Text;
};

inline uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// "<digest> <bytes> <key>", the golden file's line format.
inline std::string digestLine(const Entry &E) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(E.Text)));
  return std::string(Buf) + " " + std::to_string(E.Text.size()) + " " +
         E.Key;
}

inline std::string checksStr(const std::vector<bp::Check> &Checks) {
  std::string Out;
  for (const bp::Check &C : Checks)
    Out += "  check edge " + std::to_string(C.Edge) + " var " +
           std::to_string(C.Var) + " const " +
           (C.ConstantViolated ? "1" : "0") + " at " + C.Loc.str() +
           " req " + C.ReqLoc.str() + ": " + C.What + "\n";
  return Out;
}

inline std::string programStr(const bp::BooleanProgram &BP) {
  std::string Out = BP.str();
  for (size_t V = 0; V != BP.Vars.size(); ++V) {
    Out += "  b" + std::to_string(V) + " family " +
           std::to_string(BP.Vars[V].Family) + " args";
    for (const std::string &A : BP.Vars[V].Args)
      Out += " " + A;
    Out += "\n";
  }
  return Out + checksStr(BP.Checks);
}

/// The method with two ghost variables per family slot type appended,
/// as the interprocedural model extends every method.
inline cj::CFGMethod ghostExtended(const wp::DerivedAbstraction &Abs,
                                   const cj::CFGMethod &M) {
  cj::CFGMethod Ext = M;
  std::vector<std::string> Types;
  for (const wp::PredicateFamily &F : Abs.Families)
    for (const std::string &T : F.VarTypes)
      if (std::find(Types.begin(), Types.end(), T) == Types.end())
        Types.push_back(T);
  for (const std::string &T : Types)
    for (const char *G : {"$g0$", "$g1$"})
      Ext.CompVars.emplace_back(G + T, T);
  return Ext;
}

/// The interprocedural engine's output rooted at \p Main: report,
/// counters, and certificate bytes in hex, 32 bytes a line.
inline std::string interprocStr(const wp::DerivedAbstraction &Abs,
                                const cj::ClientCFG &CFG,
                                const cj::CFGMethod &Main) {
  DiagnosticEngine D;
  const bp::InterprocModel Model(Abs, CFG, Main, D);
  bp::IfdsTabulation Tab;
  const bp::InterResult R = bp::analyzeInterproc(Model, nullptr, &Tab);
  std::string Out = R.str() + "  pops " +
                    std::to_string(R.SummaryIterations) + " exploded " +
                    std::to_string(R.ExplodedNodes) + " path-edges " +
                    std::to_string(R.PathEdges) + " summaries " +
                    std::to_string(R.Summaries) + "\n";
  const std::vector<uint8_t> Bytes =
      cert::serializeCertificates({cert::emitIfds(Model, Tab)});
  for (size_t I = 0; I != Bytes.size(); ++I) {
    char Hex[4];
    std::snprintf(Hex, sizeof(Hex), "%02x", Bytes[I]);
    Out += (I % 32 == 0 ? "  cert " : "") + std::string(Hex) +
           (I % 32 == 31 || I + 1 == Bytes.size() ? "\n" : "");
  }
  return Out;
}

inline void collectClient(const std::string &Name, const std::string &Source,
                          const easl::Spec &Spec,
                          const wp::DerivedAbstraction &Abs,
                          std::vector<Entry> &Out) {
  DiagnosticEngine Diags;
  cj::Program P = cj::parseProgram(Source, Diags);
  cj::ClientCFG CFG = cj::buildCFG(P, Spec, Diags);
  for (const cj::CFGMethod &M : CFG.Methods) {
    const std::string Prefix = Name + " " + M.name() + " ";
    DiagnosticEngine D;
    Out.push_back({Prefix + "unrestricted",
                   programStr(bp::buildBooleanProgram(Abs, M, D))});
    const cj::CFGMethod Ext = ghostExtended(Abs, M);
    Out.push_back({Prefix + "ghost",
                   programStr(bp::buildBooleanProgram(Abs, Ext, D))});
  }
  if (const cj::CFGMethod *Main = CFG.mainCFG())
    Out.push_back({Name + " " + Main->name() + " interproc",
                   interprocStr(Abs, CFG, *Main)});
}

/// Every golden rendering; \p CorpusDir receives the generated corpus.
inline std::vector<Entry> collect(const std::string &CorpusDir,
                                  std::string &Error) {
  easl::Spec Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  std::vector<Entry> Out;
  for (const bench::BenchClient &BC : bench::cmpSuite())
    collectClient(BC.Name, BC.Source, Spec, Abs, Out);
  if (!shard::generateCorpus(CorpusDir, 20, 7, Error))
    return {};
  for (unsigned I = 0; I != 20; ++I) {
    char File[32];
    std::snprintf(File, sizeof(File), "gen-%04u.cj", I);
    std::ifstream In(CorpusDir + "/" + File);
    std::stringstream SS;
    SS << In.rdbuf();
    collectClient(File, SS.str(), Spec, Abs, Out);
  }
  return Out;
}

} // namespace golden
} // namespace canvas

#endif // CANVAS_TESTS_BOOLPROG_BUILDGOLDEN_H
