#include "store/InputHash.h"

#include "cert/Certificate.h"

using namespace canvas;
using namespace canvas::store;

namespace {

uint64_t hashBuffer(const cert::Writer &W, uint64_t Seed) {
  return cert::fnv1a(W.buffer().data(), W.buffer().size(), Seed);
}

/// The method's own certification-relevant shape, independent of any
/// callee body. Everything an intraprocedural engine (or the
/// interprocedural model builder) reads from the CFG is folded:
/// topology, classified actions with their source locations, component
/// variables, parameters, and the heap-escape flag that drives the
/// slicing gates.
uint64_t localMethodHash(const cj::CFGMethod &M) {
  cert::Writer W;
  W.str(M.name());
  W.i32(M.Entry);
  W.i32(M.Exit);
  W.i32(M.NumNodes);
  W.u8(M.HasHeapComponentRefs ? 1 : 0);
  W.u32(static_cast<uint32_t>(M.CompVars.size()));
  for (const auto &[Name, Type] : M.CompVars) {
    W.str(Name);
    W.str(Type);
  }
  uint32_t NumParams =
      M.Method ? static_cast<uint32_t>(M.Method->Params.size()) : 0;
  W.u32(NumParams);
  if (M.Method)
    for (const cj::CParam &P : M.Method->Params)
      W.str(P.Name);
  W.u32(static_cast<uint32_t>(M.Edges.size()));
  for (const cj::CFGEdge &E : M.Edges) {
    W.i32(E.From);
    W.i32(E.To);
    W.u8(static_cast<uint8_t>(E.Act.K));
    W.str(E.Act.Lhs);
    W.str(E.Act.Recv);
    W.str(E.Act.Callee);
    W.u32(static_cast<uint32_t>(E.Act.Args.size()));
    for (const std::string &A : E.Act.Args)
      W.str(A);
    // ClientCall targets by name: the callee *body* is folded by the
    // closure walk, the resolved identity belongs to the local shape.
    W.str(E.Act.CalleeClass ? E.Act.CalleeClass->Name : "");
    W.str(E.Act.CalleeMethod ? E.Act.CalleeMethod->Name : "");
    W.u32(E.Act.Loc.Line);
    W.u32(E.Act.Loc.Col);
  }
  return hashBuffer(W, 0xcbf29ce484222325ull);
}

struct ClosureWalk {
  const cj::ClientCFG &CFG;
  std::map<const cj::CFGMethod *, uint64_t> Local;
  std::map<const cj::CFGMethod *, uint64_t> Memo;
  std::map<const cj::CFGMethod *, bool> OnStack;

  explicit ClosureWalk(const cj::ClientCFG &CFG) : CFG(CFG) {
    for (const cj::CFGMethod &M : CFG.Methods)
      Local[&M] = localMethodHash(M);
  }

  uint64_t closure(const cj::CFGMethod &M) {
    auto It = Memo.find(&M);
    if (It != Memo.end())
      return It->second;
    OnStack[&M] = true;
    uint64_t H = Local[&M];
    for (const cj::CFGEdge &E : M.Edges) {
      if (E.Act.K != cj::Action::Kind::ClientCall || !E.Act.CalleeMethod)
        continue;
      const cj::CFGMethod *Callee = CFG.findMethod(E.Act.CalleeMethod);
      cert::Writer W;
      if (!Callee || OnStack[Callee]) {
        // Unresolvable or on-stack (cycle): fold the name only. Sound
        // for cycles — every member folds every other member's local
        // hash transitively, so any body edit re-keys the whole cycle.
        W.u8(1);
        W.str(Callee ? Callee->name()
                     : E.Act.Callee + "/" +
                           (E.Act.CalleeClass ? E.Act.CalleeClass->Name : ""));
      } else {
        W.u8(2);
        W.u64(closure(*Callee));
      }
      H = hashBuffer(W, H);
    }
    OnStack[&M] = false;
    Memo[&M] = H;
    return H;
  }
};

} // namespace

uint64_t store::contextFingerprint(uint64_t SpecHash,
                                   const std::string &AbsText,
                                   const std::string &EngineName) {
  cert::Writer W;
  W.u32(EntryFormatVersion);
  W.u64(SpecHash);
  W.str(AbsText);
  W.str(EngineName);
  return hashBuffer(W, 0xcbf29ce484222325ull);
}

std::map<std::string, uint64_t>
store::methodInputHashes(const cj::ClientCFG &CFG, uint64_t Context) {
  ClosureWalk Walk(CFG);
  std::map<std::string, uint64_t> Out;
  for (const cj::CFGMethod &M : CFG.Methods) {
    cert::Writer W;
    W.u64(Context);
    W.u64(Walk.closure(M));
    Out.emplace(M.name(), hashBuffer(W, 0xcbf29ce484222325ull));
  }
  return Out;
}

uint64_t store::programInputHash(const cj::ClientCFG &CFG, uint64_t Context) {
  ClosureWalk Walk(CFG);
  cert::Writer W;
  W.u64(Context);
  W.u32(static_cast<uint32_t>(CFG.Methods.size()));
  for (const cj::CFGMethod &M : CFG.Methods)
    W.u64(Walk.Local[&M]);
  return hashBuffer(W, 0xcbf29ce484222325ull);
}
