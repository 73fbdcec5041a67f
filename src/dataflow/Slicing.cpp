#include "dataflow/Slicing.h"

#include <map>
#include <numeric>

using namespace canvas;
using namespace canvas::dataflow;

namespace {

/// Plain union-find over dense variable indices.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  int find(int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void merge(int A, int B) { Parent[find(A)] = find(B); }

private:
  std::vector<int> Parent;
};

} // namespace

SliceResult dataflow::computeSlices(const cj::CFGMethod &M,
                                    const std::vector<std::string> &Vars,
                                    bool HasUninitUses,
                                    bool AbsReadsRetSources) {
  SliceResult R;
  if (Vars.empty())
    return R;

  auto Single = [&](const char *Why) {
    R.Slices.assign(1, Vars);
    R.ForcedSingleReason = Why;
    return R;
  };

  if (HasUninitUses)
    return Single("possibly-uninitialized component uses");
  if (AbsReadsRetSources)
    return Single("abstraction reads pre-call 'ret' predicates");

  // Any heap traffic or havocked reference breaks the "cross-slice
  // predicates stay false" invariant, so the whole method stays one
  // slice.
  if (M.HasHeapComponentRefs)
    return Single("heap component references");
  for (const cj::CFGEdge &E : M.Edges)
    if (E.Act.K == cj::Action::Kind::Havoc ||
        E.Act.K == cj::Action::Kind::OpaqueEffect)
      return Single("havocked component reference");

  std::map<std::string, int> Index;
  for (size_t I = 0; I != Vars.size(); ++I)
    Index.emplace(Vars[I], static_cast<int>(I));
  auto IndexOf = [&](const std::string &V) {
    auto It = Index.find(V);
    return It == Index.end() ? -1 : It->second;
  };

  UnionFind UF(Vars.size());
  auto Merge = [&](int &Anchor, const std::string &V) {
    int I = IndexOf(V);
    if (I < 0)
      return;
    if (Anchor < 0)
      Anchor = I;
    else
      UF.merge(Anchor, I);
  };

  // Parameters may be related before the method runs; the return slot
  // joins them only when some action actually assigns it (a method
  // with no return statement cannot relate "$ret" to anything).
  int ParamAnchor = -1;
  for (const cj::CParam &P : M.Method->Params)
    Merge(ParamAnchor, P.Name);
  bool DefinesRet = false;
  for (const cj::CFGEdge &E : M.Edges)
    if (const std::string *Def = actionDef(E.Act))
      DefinesRet |= *Def == "$ret";
  if (DefinesRet)
    Merge(ParamAnchor, "$ret");

  // Any action relating two variables merges their slices.
  for (const cj::CFGEdge &E : M.Edges) {
    int Anchor = -1;
    if (const std::string *Def = actionDef(E.Act))
      Merge(Anchor, *Def);
    forEachActionUse(E.Act,
                     [&](const std::string &Use) { Merge(Anchor, Use); });
  }

  // Emit slices in declaration order of their first member.
  std::map<int, size_t> RootToSlice;
  for (size_t I = 0; I != Vars.size(); ++I) {
    int Root = UF.find(static_cast<int>(I));
    auto It = RootToSlice.find(Root);
    if (It == RootToSlice.end()) {
      It = RootToSlice.emplace(Root, R.Slices.size()).first;
      R.Slices.emplace_back();
    }
    R.Slices[It->second].push_back(Vars[I]);
  }
  return R;
}
