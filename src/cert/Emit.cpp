#include "cert/Emit.h"

#include "dataflow/Dataflow.h"
#include "ifds/Solver.h"
#include "support/Interner.h"
#include "tvla/Transfer.h"

#include <algorithm>
#include <set>

using namespace canvas;
using namespace canvas::cert;

//===----------------------------------------------------------------------===//
// Shared codecs
//===----------------------------------------------------------------------===//

void cert::writeStructure(Writer &W, const tvla::Structure &S,
                          const tvp::Vocabulary &V) {
  unsigned N = S.numNodes();
  W.u32(N);
  for (unsigned I = 0; I != N; ++I)
    W.u8(S.isSummary(I) ? 1 : 0);
  for (size_t P = 0; P != V.Preds.size(); ++P) {
    if (V.Preds[P].Arity == 1) {
      for (unsigned I = 0; I != N; ++I)
        W.u8(static_cast<uint8_t>(S.unary(static_cast<int>(P), I)));
    } else {
      for (unsigned A = 0; A != N; ++A)
        for (unsigned B = 0; B != N; ++B)
          W.u8(static_cast<uint8_t>(S.binary(static_cast<int>(P), A, B)));
    }
  }
}

bool cert::readStructure(Reader &R, const tvp::Vocabulary &V,
                         tvla::Structure &Out, std::string &Error) {
  uint32_t N = R.u32();
  if (R.failed() || N > 4096) {
    Error = "implausible structure universe size";
    return false;
  }
  Out = tvla::Structure(V);
  Out.resizeNodes(N); // One buffer rebuild, not N.
  for (uint32_t I = 0; I != N; ++I)
    Out.setSummary(I, R.u8() != 0);
  for (size_t P = 0; P != V.Preds.size(); ++P) {
    unsigned Count = V.Preds[P].Arity == 1 ? N : N * N;
    for (unsigned I = 0; I != Count; ++I) {
      uint8_t B = R.u8();
      if (B > 2) {
        Error = "out-of-range Kleene value in structure";
        return false;
      }
      if (V.Preds[P].Arity == 1)
        Out.setUnary(static_cast<int>(P), I, static_cast<Kleene>(B));
      else
        Out.setBinary(static_cast<int>(P), I / N, I % N,
                      static_cast<Kleene>(B));
    }
  }
  if (R.failed()) {
    Error = "truncated structure";
    return false;
  }
  return true;
}

void cert::writeLocSet(Writer &W, const core::baseline::LocSet &L) {
  W.u32(static_cast<uint32_t>(L.size()));
  for (core::baseline::Loc X : L)
    W.i32(X);
}

bool cert::readLocSet(Reader &R, core::baseline::LocSet &Out) {
  uint32_t N = R.u32();
  for (uint32_t I = 0; I != N && !R.failed(); ++I)
    Out.insert(R.i32());
  return !R.failed();
}

void cert::writeAbsState(Writer &W, const core::baseline::AbsState &St) {
  W.u32(static_cast<uint32_t>(St.Vars.size()));
  for (const auto &[Name, Set] : St.Vars) {
    W.str(Name);
    writeLocSet(W, Set);
  }
  W.u32(static_cast<uint32_t>(St.Heap.size()));
  for (const auto &[Key, Set] : St.Heap) {
    W.i32(Key.first);
    W.str(Key.second);
    writeLocSet(W, Set);
  }
  writeLocSet(W, St.Allocated);
}

bool cert::readAbsState(Reader &R, core::baseline::AbsState &Out) {
  uint32_t NV = R.u32();
  for (uint32_t I = 0; I != NV && !R.failed(); ++I) {
    std::string Name = R.str();
    core::baseline::LocSet Set;
    if (!readLocSet(R, Set))
      return false;
    Out.Vars.emplace(std::move(Name), std::move(Set));
  }
  uint32_t NH = R.u32();
  for (uint32_t I = 0; I != NH && !R.failed(); ++I) {
    core::baseline::Loc L = R.i32();
    std::string Field = R.str();
    core::baseline::LocSet Set;
    if (!readLocSet(R, Set))
      return false;
    Out.Heap.emplace(std::make_pair(L, std::move(Field)), std::move(Set));
  }
  if (!readLocSet(R, Out.Allocated))
    return false;
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// Boolean-program intraprocedural
//===----------------------------------------------------------------------===//

namespace {

/// Serializes one method's possible-value annotation body (per-node
/// tag + stored states) with verify-pruning: a node's state is omitted
/// only when re-running the checker's reconstruction rule (unique
/// in-edge from an earlier annotated node) reproduces the engine's
/// value exactly. The engine's and the checker's values then coincide
/// by induction over RPO, so pruning is unconditionally sound — a
/// disagreement simply stores the entry instead. Shared by the plain
/// and the partitioned emitters.
void writeBoolSection(Writer &W, const bp::BooleanProgram &BP,
                      const bp::IntraResult &R, bool AssumeChecksPass,
                      uint32_t &RawEntries, uint32_t &StoredEntries) {
  const cj::CFGMethod &M = *BP.CFG;
  const dataflow::CFGInfo Info(M);
  const bp::EdgeTransfer T(BP, AssumeChecksPass);
  for (int N = 0; N != M.NumNodes; ++N) {
    if (!R.reachable(N)) {
      W.u8(0);
      continue;
    }
    ++RawEntries;
    bool Pruned = false;
    if (N != M.Entry && Info.rpoNumber(N) > 0 &&
        Info.predEdges(N).size() == 1) {
      int EIdx = Info.predEdges(N)[0];
      int From = M.Edges[EIdx].From;
      if (R.reachable(From) && Info.rpoNumber(From) >= 0 &&
          Info.rpoNumber(From) < Info.rpoNumber(N)) {
        bp::StateVec Out;
        Pruned = T.apply(EIdx, R.In[From], Out) && Out == R.In[N];
      }
    }
    if (Pruned) {
      W.u8(2);
      continue;
    }
    ++StoredEntries;
    W.u8(1);
    for (unsigned V = 0; V != R.In[N].size(); ++V)
      W.u8(static_cast<uint8_t>(R.In[N].get(V)));
  }
}

/// Claims for every proven verdict, indexed like the checks.
std::vector<Claim> provenClaims(const std::vector<core::CheckOutcome> &Rs) {
  std::vector<Claim> Out;
  for (size_t I = 0; I != Rs.size(); ++I)
    if (Rs[I] == core::CheckOutcome::Safe ||
        Rs[I] == core::CheckOutcome::Unreachable)
      Out.push_back({static_cast<uint32_t>(I), Rs[I]});
  return Out;
}

} // namespace

Certificate cert::emitBoolIntra(const bp::BooleanProgram &BP,
                                const bp::IntraResult &R,
                                bool AssumeChecksPass) {
  const cj::CFGMethod &M = *BP.CFG;
  Certificate C;
  C.Kind = CertKind::BoolIntra;
  C.Unit = M.name();
  C.Claims = provenClaims(R.CheckResults);

  Writer W;
  W.u32(static_cast<uint32_t>(M.NumNodes));
  W.u32(static_cast<uint32_t>(BP.Vars.size()));
  W.u32(static_cast<uint32_t>(BP.Checks.size()));
  W.u8(AssumeChecksPass ? 1 : 0);
  writeBoolSection(W, BP, R, AssumeChecksPass, C.RawEntries, C.StoredEntries);
  C.Payload = W.take();
  C.seal();
  return C;
}

Certificate cert::emitSlicePartition(
    const std::vector<std::vector<std::string>> &Parts,
    const bp::BooleanProgram &BP, const bp::IntraResult &R,
    const std::vector<dataflow::BitVector> &MayUninit,
    bool AssumeChecksPass) {
  const cj::CFGMethod &M = *BP.CFG;
  Certificate C;
  C.Kind = CertKind::SlicePartition;
  C.Unit = M.name();
  C.Claims = provenClaims(R.CheckResults);

  Writer W;
  W.u8(0); // Partition mode: the syntactic gates are the only evidence.
  W.u8(AssumeChecksPass ? 1 : 0);
  W.u32(static_cast<uint32_t>(M.NumNodes));
  W.u32(static_cast<uint32_t>(M.CompVars.size()));

  // Must-assigned annotation: the complement of the engine's
  // may-uninitialized fixpoint, per covered node, as a bitset over the
  // component variables (bit V of byte V / 8). The checker validates it
  // as a single-pass under-approximation, proving no component variable
  // is used before assignment — the gate a slice partition shares with
  // the engine-side slicer.
  for (int N = 0; N != M.NumNodes; ++N) {
    const dataflow::BitVector &B = MayUninit[N];
    W.u8(B.empty() ? 0 : 1);
    if (B.empty())
      continue;
    for (size_t Byte = 0; Byte * 8 < B.size(); ++Byte) {
      uint8_t Bits = 0;
      for (size_t V = Byte * 8; V != B.size() && V != Byte * 8 + 8; ++V)
        Bits |= static_cast<uint8_t>(!B[V]) << (V - Byte * 8);
      W.u8(Bits);
    }
  }

  W.u32(static_cast<uint32_t>(Parts.size()));
  for (const std::vector<std::string> &Part : Parts) {
    W.u32(static_cast<uint32_t>(Part.size()));
    for (const std::string &V : Part)
      W.str(V);
  }

  W.u32(static_cast<uint32_t>(BP.Vars.size()));
  W.u32(static_cast<uint32_t>(BP.Checks.size()));
  writeBoolSection(W, BP, R, AssumeChecksPass, C.RawEntries, C.StoredEntries);
  C.Payload = W.take();
  C.seal();
  return C;
}

//===----------------------------------------------------------------------===//
// Interprocedural IFDS
//===----------------------------------------------------------------------===//

Certificate cert::emitIfds(const bp::InterprocModel &Model,
                           const bp::IfdsTabulation &Tab) {
  const ifds::Problem &Prob = Model.problem();
  Certificate C;
  C.Kind = CertKind::Ifds;
  C.Unit = ""; // Whole program.
  C.RawEntries = C.StoredEntries = static_cast<uint32_t>(Tab.PathEdges.size());

  // Recompute the per-anchor verdicts from the tabulation itself (the
  // same genuine-reachability queries the analysis makes), so claims
  // stay in anchors() order regardless of which procedures the verdict
  // loop visited.
  std::vector<std::vector<char>> Genuine(Prob.numProcs());
  for (int P = 0; P != Prob.numProcs(); ++P)
    Genuine[P].assign(Prob.numFacts(P), 0);
  for (const auto &[P, F] : Tab.Genuine)
    Genuine[P][F] = 1;
  ifds::ExplodedNodeSet ReachedG(Prob);
  for (const bp::IfdsTabulation::PE &E : Tab.PathEdges)
    if (Genuine[E.Proc][E.EntryFact])
      ReachedG.insert(E.Proc, E.Node, E.Fact);
  auto Reached = [&](int P, int N, int F) {
    return ReachedG.contains(P, N, F);
  };

  const std::vector<bp::InterprocModel::Anchor> &Anchors = Model.anchors();
  for (size_t I = 0; I != Anchors.size(); ++I) {
    const bp::InterprocModel::Anchor &A = Anchors[I];
    if (!Reached(A.Proc, Prob.proc(A.Proc).Entry, ifds::LambdaFact))
      continue; // Procedure not activated: no verdict reported.
    core::CheckOutcome Out;
    if (!Reached(A.Proc, A.Node, ifds::LambdaFact))
      Out = core::CheckOutcome::Unreachable;
    else if (A.Var < 0)
      Out = A.ConstantViolated ? core::CheckOutcome::Potential
                               : core::CheckOutcome::Safe;
    else
      Out = Reached(A.Proc, A.Node, 1 + A.Var) ? core::CheckOutcome::Potential
                                               : core::CheckOutcome::Safe;
    if (Out == core::CheckOutcome::Safe ||
        Out == core::CheckOutcome::Unreachable)
      C.Claims.push_back({static_cast<uint32_t>(I), Out});
  }

  Writer W;
  W.u32(static_cast<uint32_t>(Prob.numProcs()));
  W.u32(static_cast<uint32_t>(Anchors.size()));
  W.u32(static_cast<uint32_t>(Tab.PathEdges.size()));
  for (const bp::IfdsTabulation::PE &E : Tab.PathEdges) {
    W.u32(static_cast<uint32_t>(E.Proc));
    W.u32(static_cast<uint32_t>(E.EntryFact));
    W.u32(static_cast<uint32_t>(E.Node));
    W.u32(static_cast<uint32_t>(E.Fact));
  }
  W.u32(static_cast<uint32_t>(Tab.Genuine.size()));
  for (const auto &[P, F] : Tab.Genuine) {
    W.u32(static_cast<uint32_t>(P));
    W.u32(static_cast<uint32_t>(F));
  }
  C.Payload = W.take();
  C.seal();
  return C;
}

//===----------------------------------------------------------------------===//
// TVLA
//===----------------------------------------------------------------------===//

Certificate cert::emitTvla(const wp::DerivedAbstraction &Abs,
                           const cj::CFGMethod &M,
                           const tvla::PointAnnotation &Ann,
                           const tvla::TVLAResult &R, bool Relational) {
  // The vocabulary construction already warned through the engine's
  // diagnostics; re-deriving it here must not duplicate the stream.
  DiagnosticEngine Quiet;
  tvla::Transfer T(Abs, M, Quiet);
  const tvp::Vocabulary &V = T.vocabulary();

  Certificate C;
  C.Kind = Relational ? CertKind::TvlaRelational : CertKind::TvlaIndependent;
  C.Unit = M.name();

  for (size_t I = 0; I != R.Checks.size(); ++I)
    if (R.Checks[I].Outcome == core::CheckOutcome::Safe ||
        R.Checks[I].Outcome == core::CheckOutcome::Unreachable)
      C.Claims.push_back({static_cast<uint32_t>(I), R.Checks[I].Outcome});

  // Intern every annotation structure: one per-point set member costs
  // one u32 id reference, and each distinct structure is serialized at
  // most once in the unique table. Program points overwhelmingly share
  // structures, so this collapses the payload the old
  // one-serialization-per-occurrence format blew up.
  struct Hasher {
    uint64_t operator()(const tvla::Structure &S) const {
      return S.structuralHash();
    }
  };
  support::InternPool<tvla::Structure, Hasher> Pool;
  std::vector<std::vector<support::InternId>> Ids(M.NumNodes);
  for (int N = 0; N != M.NumNodes; ++N)
    for (const tvla::Structure &S : Ann.PerNode[N]) {
      ++C.RawEntries;
      support::InternId Id = Pool.internRef(S);
      // Structural duplicates within one set (possible after budget-cap
      // victim joins) collapse to one id; coverage is unaffected.
      if (std::find(Ids[N].begin(), Ids[N].end(), Id) == Ids[N].end())
        Ids[N].push_back(Id);
    }

  // Verify-prune, the per-point-set analogue of writeBoolSection: a
  // node whose unique in-edge comes from an RPO-earlier annotated node
  // stores no ids at all when re-applying that edge to the
  // predecessor's set reproduces the node's id set exactly — the
  // checker reconstructs it the same way, so pruning is verified sound
  // at emit time.
  const dataflow::CFGInfo Info(M);
  std::vector<uint8_t> Tag(M.NumNodes, 0);
  for (int N = 0; N != M.NumNodes; ++N) {
    if (Ids[N].empty())
      continue; // Tag 0: unreached / empty set.
    Tag[N] = 1;
    if (N == M.Entry || Info.rpoNumber(N) <= 0 ||
        Info.predEdges(N).size() != 1)
      continue;
    int EIdx = Info.predEdges(N)[0];
    int From = M.Edges[EIdx].From;
    if (Ids[From].empty() || Info.rpoNumber(From) < 0 ||
        Info.rpoNumber(From) >= Info.rpoNumber(N))
      continue;
    std::set<support::InternId> Rebuilt;
    bool Prunable = true;
    for (support::InternId SId : Ids[From]) {
      bool Dead = false;
      tvla::Structure Out = T.apply(Pool.get(SId), EIdx, Dead, nullptr);
      if (Dead)
        continue;
      long Found = Pool.find(Out);
      if (Found < 0) {
        Prunable = false;
        break;
      }
      Rebuilt.insert(static_cast<support::InternId>(Found));
    }
    if (Prunable &&
        Rebuilt == std::set<support::InternId>(Ids[N].begin(), Ids[N].end()))
      Tag[N] = 2;
  }

  // Only structures some stored (tag 1) id list references go into the
  // unique table; ids are remapped to table order.
  std::vector<long> Remap(Pool.size(), -1);
  std::vector<support::InternId> Table;
  for (int N = 0; N != M.NumNodes; ++N) {
    if (Tag[N] != 1)
      continue;
    for (support::InternId Id : Ids[N])
      if (Remap[Id] < 0) {
        Remap[Id] = static_cast<long>(Table.size());
        Table.push_back(Id);
      }
  }

  Writer W;
  W.u8(Relational ? 1 : 0);
  W.u32(static_cast<uint32_t>(M.NumNodes));
  W.u32(static_cast<uint32_t>(V.Preds.size()));
  W.u32(static_cast<uint32_t>(T.checks().size()));
  W.u32(static_cast<uint32_t>(Table.size()));
  for (support::InternId Id : Table) {
    writeStructure(W, Pool.get(Id), V);
    ++C.StoredEntries;
  }
  for (int N = 0; N != M.NumNodes; ++N) {
    W.u8(Tag[N]);
    if (Tag[N] != 1)
      continue;
    W.u32(static_cast<uint32_t>(Ids[N].size()));
    for (support::InternId Id : Ids[N])
      W.u32(static_cast<uint32_t>(Remap[Id]));
  }
  C.Payload = W.take();
  C.seal();
  return C;
}

//===----------------------------------------------------------------------===//
// Allocation-site baseline
//===----------------------------------------------------------------------===//

Certificate cert::emitAllocSite(const cj::CFGMethod &M,
                                const core::BaselineAnnotation &Ann,
                                const core::BaselineResult &R) {
  Certificate C;
  C.Kind = CertKind::AllocSite;
  C.Unit = M.name();

  {
    uint32_t I = 0;
    for (const auto &[Site, Flagged] : R.Flagged) {
      if (!Flagged)
        C.Claims.push_back({I, core::CheckOutcome::Safe});
      ++I;
    }
  }

  Writer W;
  W.u32(static_cast<uint32_t>(M.NumNodes));
  writeLocSet(W, Ann.Multi);
  W.u32(static_cast<uint32_t>(R.Flagged.size()));
  for (const auto &[Site, Flagged] : R.Flagged) {
    (void)Flagged;
    W.u32(static_cast<uint32_t>(Site.Edge));
    W.u32(Site.ReqLoc.Line);
    W.u32(Site.ReqLoc.Col);
  }
  for (int N = 0; N != M.NumNodes; ++N) {
    if (!Ann.Reached[N]) {
      W.u8(0);
      continue;
    }
    ++C.RawEntries;
    ++C.StoredEntries;
    W.u8(1);
    writeAbsState(W, Ann.In[N]);
  }
  C.Payload = W.take();
  C.seal();
  return C;
}
