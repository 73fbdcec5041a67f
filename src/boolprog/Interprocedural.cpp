#include "boolprog/Interprocedural.h"

#include "boolprog/Witness.h"
#include "ifds/Solver.h"
#include "ifds/Witness.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <unordered_map>

using namespace canvas;
using namespace canvas::bp;
using namespace canvas::wp;

unsigned InterResult::numFlagged() const {
  unsigned N = 0;
  for (const core::CheckRecord &C : Checks)
    N += C.Outcome == CheckOutcome::Potential ||
         C.Outcome == CheckOutcome::Definite;
  return N;
}

std::string InterResult::str() const {
  std::string Out;
  for (const core::CheckRecord &C : Checks) {
    Out += C.Method + " " + C.Loc.str() + ": " + C.What + ": " +
           core::outcomeStr(C.Outcome) + "\n";
    if (!C.Witness.empty())
      Out += C.Witness.str();
  }
  return Out;
}

// Not an anonymous namespace: InterprocModel::Impl (externally visible)
// holds an InterprocProblem member, and GCC's -Wsubobject-linkage fires
// on internal-linkage subobjects of external-linkage types.
namespace canvas {
namespace bp {
namespace detail {

/// Per-method analysis artifacts: the ghost-extended CFG, its boolean
/// program, and the exploded-edge reading of the program's assignments.
/// Client variables are BP.KeyNames indices throughout.
struct MethodInfo {
  const cj::CFGMethod *Orig = nullptr;
  /// CFG copy with ghost variables appended to CompVars.
  cj::CFGMethod Ext;
  BooleanProgram BP;
  std::vector<EdgeFlow> Flows;
  /// Per edge, the checked variables refined to 0 past their check.
  std::vector<std::vector<char>> Kills;
  /// The key tables below are filled for methods at either end of a
  /// call site. Per boolean variable, its family arguments.
  bool Indexed = false;
  std::vector<std::array<int, wp::MaxSlots>> VarArgs;
  /// Per key: the component variable's type (an index into
  /// InterprocProblem::Types), or -1.
  std::vector<int> TypeOf;
  /// Per key: a ghost variable.
  std::vector<char> IsGhost;
  /// Per type: its component variables, in CompVars order, and its two
  /// ghosts.
  std::vector<std::vector<int>> VarsOfType;
  std::vector<std::array<int, 2>> Ghosts;

  /// The key of client variable \p Name, or -1.
  int keyOf(const std::string &Name) const {
    auto It = std::find(BP.KeyNames.begin(), BP.KeyNames.end(), Name);
    return It == BP.KeyNames.end()
               ? -1
               : static_cast<int>(It - BP.KeyNames.begin());
  }
};

/// The ghosts one caller variable's tuple binds in the callee: callee
/// ghost key -> the caller key it stands for.
struct TupleMap {
  unsigned NumGhosts = 0;
  std::array<std::pair<int, int>, wp::MaxSlots> GhostToCaller;

  int callerOf(int Ghost) const {
    for (unsigned I = 0; I != NumGhosts; ++I)
      if (GhostToCaller[I].first == Ghost)
        return GhostToCaller[I].second;
    return -1;
  }
};

/// Precomputed call-site translation tables for one ClientCall edge
/// with a known callee. Facts are 0 = Lambda, 1+v = boolean variable v.
struct CallTable {
  int Caller = -1;
  int Callee = -1;
  /// The call's operands as keys: per argument position bound on both
  /// sides, the formal's callee key and the actual's caller key (-1
  /// for an empty actual); and the result's caller key (-1 for none)
  /// with the callee key of $ret. A name a program never met has a key
  /// past its KeyNames.
  std::vector<std::pair<int, int>> Bindings; ///< (formal, actual).
  int Lhs = -1;
  int Ret = -1;
  /// FeedOut[caller fact] -> callee entry facts it genuinely feeds
  /// (the inverted calleeEntryFactMay1 relation).
  std::vector<std::vector<int>> FeedOut;
  /// Caller vars whose tuple is not mappable into the callee: they
  /// flow Lambda -> 1+B across the call unconditionally.
  std::vector<int> Bypass;
  /// Callee var c -> caller vars B whose tuple maps onto c.
  std::vector<std::vector<int>> SummaryTargets;
  /// Tuple map per caller var (meaningful for mapped vars).
  std::vector<TupleMap> TMs;
  /// Memoized return-translation feeder per caller var B and callee
  /// entry var e (rows allocated on first use): the caller fact whose
  /// 1-ness lets summary entry fact 1+e contribute to 1+B, or NoFeeder.
  mutable std::vector<std::vector<int>> Feeders;

  /// The callee key a caller key binds to directly ($ret or a formal),
  /// or -1.
  int directTarget(int Key) const {
    if (Lhs >= 0 && Key == Lhs)
      return Ret;
    for (const auto &[Formal, Actual] : Bindings)
      if (Actual == Key)
        return Formal;
    return -1;
  }
};

class InterprocProblem : public ifds::Problem {
public:
  InterprocProblem(const DerivedAbstraction &Abs, const cj::ClientCFG &CFG,
                   const cj::CFGMethod &Entry, DiagnosticEngine &Diags)
      : Abs(Abs) {
    build(CFG, Entry, Diags);
  }

  //===--- ifds::Problem -------------------------------------------------===//

  int numProcs() const override { return static_cast<int>(Infos.size()); }
  const ifds::ProcView &proc(int P) const override { return Views[P]; }
  int entryProc() const override { return EntryIdx; }
  int numFacts(int P) const override {
    return 1 + static_cast<int>(Infos[P].BP.Vars.size());
  }

  void initialFacts(std::vector<int> &Out) const override {
    // The entry method's variables are unconstrained at entry.
    for (int F = 0; F != numFacts(EntryIdx); ++F)
      Out.push_back(F);
  }

  void flowNormal(int P, int Edge, int Fact,
                  std::vector<int> &Out) const override {
    // Covers plain edges and ClientCall edges with an unknown callee,
    // whose boolean-program lowering is a clobber of every fact. A
    // checked variable dies past its check, as in the intraprocedural
    // fixpoint: reaching the next node means the check passed.
    const std::vector<char> &K = Infos[P].Kills[Edge];
    applyEdgeFlow(Infos[P].Flows[Edge], Fact, K.empty() ? nullptr : &K, Out);
  }

  std::span<const int> flowCall(int P, int Edge, int Fact) const override {
    return table(P, Edge).FeedOut[Fact];
  }

  void flowCallToReturn(int P, int Edge, int Fact,
                        std::vector<int> &Out) const override {
    if (Fact != ifds::LambdaFact)
      return;
    Out.push_back(ifds::LambdaFact);
    for (int B : table(P, Edge).Bypass)
      Out.push_back(1 + B);
  }

  void flowSummary(int P, int Edge, int Fact, int CalleeEntryFact,
                   int CalleeExitFact, std::vector<int> &Out) const override {
    if (CalleeExitFact == ifds::LambdaFact)
      return; // Reachability crosses via flowCallToReturn.
    const CallTable &CT = table(P, Edge);
    for (int B : CT.SummaryTargets[CalleeExitFact - 1]) {
      if (CalleeEntryFact == ifds::LambdaFact) {
        // An unconditional callee fact: flows whenever the call site
        // is reached.
        if (Fact == ifds::LambdaFact)
          Out.push_back(1 + B);
        continue;
      }
      if (feederOf(CT, B, CalleeEntryFact - 1) == Fact)
        Out.push_back(1 + B);
    }
  }

  //===--- verdict/witness accessors -------------------------------------===//

  const std::vector<MethodInfo> &infos() const { return Infos; }

private:
  static constexpr int NoFeeder = -1;
  static constexpr int Unset = -2;

  const CallTable &table(int P, int Edge) const {
    return Calls[TableOf[P][Edge]];
  }

  void build(const cj::ClientCFG &CFG, const cj::CFGMethod &Entry,
             DiagnosticEngine &Diags);
  void indexKeys(MethodInfo &Info) const;
  CallTable buildCallTable(int CallerIdx, const cj::Action &Call,
                           int CalleeIdx) const;

  static bool isGhost(const std::string &Name) {
    return Name.size() > 3 && Name[0] == '$' && Name[1] == 'g';
  }

  /// Maps caller var \p B's tuple into the callee: actuals become
  /// formals, the call result becomes $ret, everything else becomes a
  /// ghost (at most two distinct ghosts per type). Fills \p CalleeArgs
  /// and \p TM; false when the tuple is not mappable.
  bool mapTuple(const MethodInfo &Caller, const MethodInfo &Callee,
                const CallTable &CT, int B, int *CalleeArgs,
                TupleMap &TM) const;

  /// Looks up the boolvar for (Family, Args) in \p Info. Returns 0 for
  /// constant-false, 1 for constant-true (or unknown, conservatively),
  /// 2 for a variable (set in \p VarOut).
  static int instantiateIn(const MethodInfo &Info, int Family,
                           const int *Args, int &VarOut);

  /// Caller facts genuinely feeding callee entry fact 1+e at this call
  /// site, sorted: the inverted per-tuple enumeration of the functional
  /// engine (slot order matters — the first decisive slot wins,
  /// matching the original formulation exactly).
  void factFeeders(const MethodInfo &Caller, const MethodInfo &Callee,
                   const CallTable &CT, int CalleeVar,
                   std::vector<int> &Out) const;

  /// The caller fact through which summary entry fact 1+e reaches
  /// caller var B at return (the translate-back of the functional
  /// engine), or NoFeeder.
  int feederOf(const CallTable &CT, int B, int CalleeEntryVar) const;

  const DerivedAbstraction &Abs;
  std::vector<MethodInfo> Infos;
  std::vector<ifds::ProcView> Views;
  /// Component types mentioned by any predicate family, and per family
  /// slot its type's index here.
  std::vector<std::string> Types;
  std::vector<std::vector<int>> SlotType;
  /// Call tables of the known-callee ClientCall edges, and per
  /// (proc, edge) the index of the edge's table in Calls (-1 for none).
  std::vector<CallTable> Calls;
  std::vector<std::vector<int>> TableOf;
  int EntryIdx = -1;
};

void InterprocProblem::build(const cj::ClientCFG &CFG,
                             const cj::CFGMethod &Entry,
                             DiagnosticEngine &Diags) {
  SlotType.resize(Abs.Families.size());
  for (size_t F = 0; F != Abs.Families.size(); ++F)
    for (const std::string &T : Abs.Families[F].VarTypes) {
      auto It = std::find(Types.begin(), Types.end(), T);
      SlotType[F].push_back(static_cast<int>(It - Types.begin()));
      if (It == Types.end())
        Types.push_back(T);
    }

  std::unordered_map<const cj::CMethod *, int> ProcOf;
  Infos.reserve(CFG.Methods.size());
  for (const cj::CFGMethod &M : CFG.Methods) {
    MethodInfo Info;
    Info.Orig = &M;
    Info.Ext = M; // Copy; Edges/CompVars are value types.
    for (const std::string &T : Types)
      for (const char *G : {"$g0$", "$g1$"})
        Info.Ext.CompVars.emplace_back(G + T, T);
    if (&M == &Entry)
      EntryIdx = static_cast<int>(Infos.size());
    ProcOf.emplace(M.Method, static_cast<int>(Infos.size()));
    Infos.push_back(std::move(Info));
  }
  for (MethodInfo &Info : Infos) {
    Info.BP = buildBooleanProgram(Abs, Info.Ext, Diags);
    Info.Flows = computeEdgeFlows(Info.BP);
    Info.Kills = checkKills(Info.BP);
  }

  Views.resize(Infos.size());
  TableOf.resize(Infos.size());
  for (size_t P = 0; P != Infos.size(); ++P) {
    const cj::CFGMethod &M = Infos[P].Ext;
    ifds::ProcView &V = Views[P];
    V.Entry = M.Entry;
    V.Exit = M.Exit;
    V.NumNodes = M.NumNodes;
    TableOf[P].assign(M.Edges.size(), -1);
    for (size_t E = 0; E != M.Edges.size(); ++E) {
      const cj::CFGEdge &Edge = M.Edges[E];
      int Callee = -1;
      if (Edge.Act.K == cj::Action::Kind::ClientCall) {
        auto It = ProcOf.find(Edge.Act.CalleeMethod);
        if (It != ProcOf.end())
          Callee = It->second;
      }
      V.Edges.push_back({Edge.From, Edge.To, Callee});
      if (Callee >= 0) {
        indexKeys(Infos[P]);
        indexKeys(Infos[Callee]);
        TableOf[P][E] = static_cast<int>(Calls.size());
        Calls.push_back(
            buildCallTable(static_cast<int>(P), Edge.Act, Callee));
      }
    }
  }
}

void InterprocProblem::indexKeys(MethodInfo &Info) const {
  const BooleanProgram &BP = Info.BP;
  if (Info.Indexed)
    return;
  Info.Indexed = true;
  Info.VarArgs.resize(BP.Vars.size());
  for (size_t V = 0; V != BP.Vars.size(); ++V)
    for (size_t S = 0; S != BP.Vars[V].Args.size(); ++S)
      Info.VarArgs[V][S] = Info.keyOf(BP.Vars[V].Args[S]);
  Info.TypeOf.assign(BP.KeyNames.size(), -1);
  Info.IsGhost.resize(BP.KeyNames.size());
  for (size_t K = 0; K != BP.KeyNames.size(); ++K)
    Info.IsGhost[K] = isGhost(BP.KeyNames[K]);
  Info.VarsOfType.resize(Types.size());
  Info.Ghosts.resize(Types.size());
  for (const auto &[Name, T] : Info.Ext.CompVars) {
    const int Key = Info.keyOf(Name);
    auto It = std::find(Types.begin(), Types.end(), T);
    if (Key < 0 || It == Types.end())
      continue;
    const auto TI = It - Types.begin();
    Info.TypeOf[Key] = static_cast<int>(TI);
    Info.VarsOfType[TI].push_back(Key);
  }
  for (size_t TI = 0; TI != Types.size(); ++TI)
    Info.Ghosts[TI] = {Info.keyOf("$g0$" + Types[TI]),
                       Info.keyOf("$g1$" + Types[TI])};
}

bool InterprocProblem::mapTuple(const MethodInfo &Caller,
                                const MethodInfo &Callee, const CallTable &CT,
                                int B, int *CalleeArgs, TupleMap &TM) const {
  const std::array<int, wp::MaxSlots> &Args = Caller.VarArgs[B];
  const size_t Arity = Caller.BP.Vars[B].Args.size();
  // Ghosts handed out per type, for the types this tuple has met.
  std::array<std::pair<int, unsigned>, wp::MaxSlots> Used;
  size_t NumUsed = 0;
  for (size_t S = 0; S != Arity; ++S) {
    const int A = Args[S];
    size_t Prev = 0;
    while (Prev != S && Args[Prev] != A)
      ++Prev;
    if (Prev != S) { // A repeated name maps where it did first.
      CalleeArgs[S] = CalleeArgs[Prev];
      continue;
    }
    int Mapped = CT.directTarget(A);
    if (Mapped < 0) {
      const int T = Caller.TypeOf[A];
      if (T < 0)
        return false;
      size_t U = 0;
      while (U != NumUsed && Used[U].first != T)
        ++U;
      if (U == NumUsed)
        Used[NumUsed++] = {T, 0};
      if (Used[U].second >= 2)
        return false;
      Mapped = Callee.Ghosts[T][Used[U].second++];
      TM.GhostToCaller[TM.NumGhosts++] = {Mapped, A};
    }
    CalleeArgs[S] = Mapped;
  }
  return true;
}

int InterprocProblem::instantiateIn(const MethodInfo &Info, int Family,
                                    const int *Args, int &VarOut) {
  switch (Info.BP.instance(Family, Args, VarOut)) {
  case Folded::False:
    return 0;
  case Folded::True:
    return 1;
  case Folded::Var:
    break;
  }
  return VarOut < 0 ? 1 : 2; // Unknown instance: conservative.
}

void InterprocProblem::factFeeders(const MethodInfo &Caller,
                                   const MethodInfo &Callee,
                                   const CallTable &CT, int CalleeVar,
                                   std::vector<int> &Out) const {
  Out.clear();
  const BoolVar &BV = Callee.BP.Vars[CalleeVar];
  const size_t Arity = BV.Args.size();
  // Candidate caller keys per slot.
  std::array<std::span<const int>, wp::MaxSlots> Cands;
  std::array<int, wp::MaxSlots> Actual;
  for (size_t I = 0; I != Arity; ++I) {
    const int V = Callee.VarArgs[CalleeVar][I];
    if (Callee.IsGhost[V]) {
      // An arbitrary caller object of the slot's type.
      Cands[I] = Caller.VarsOfType[SlotType[BV.Family][I]];
      if (Cands[I].empty())
        return;
      continue;
    }
    auto It = std::find_if(CT.Bindings.begin(), CT.Bindings.end(),
                           [&](const auto &Bd) { return Bd.first == V; });
    if (It == CT.Bindings.end() || It->second < 0) {
      // Callee local / $ret (uninitialized), or an unknown actual:
      // conservative.
      Out.push_back(ifds::LambdaFact);
      return;
    }
    Actual[I] = It->second;
    Cands[I] = {&Actual[I], 1};
  }
  // Enumerate candidate tuples (arity <= 2 keeps this tiny).
  std::array<size_t, wp::MaxSlots> Idx{};
  int Tuple[wp::MaxSlots] = {};
  while (true) {
    for (size_t I = 0; I != Arity; ++I)
      Tuple[I] = Cands[I][Idx[I]];
    int CallerVar = -1;
    switch (instantiateIn(Caller, BV.Family, Tuple, CallerVar)) {
    case 1:
      Out.push_back(ifds::LambdaFact);
      break;
    case 2:
      Out.push_back(1 + CallerVar);
      break;
    default:
      break;
    }
    size_t I = 0;
    for (; I != Arity; ++I) {
      if (++Idx[I] < Cands[I].size())
        break;
      Idx[I] = 0;
    }
    if (I == Arity)
      break;
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
}

CallTable InterprocProblem::buildCallTable(int CallerIdx,
                                           const cj::Action &Call,
                                           int CalleeIdx) const {
  const MethodInfo &Caller = Infos[CallerIdx];
  const MethodInfo &Callee = Infos[CalleeIdx];
  CallTable CT;
  CT.Caller = CallerIdx;
  CT.Callee = CalleeIdx;

  // Resolve the call's operand names once: a name a program never met
  // gets a key past its KeyNames, one per distinct name.
  std::vector<std::string> UnknownIn[2];
  auto Resolve = [&](const MethodInfo &Info, int Side,
                     const std::string &Name) {
    if (int K = Info.keyOf(Name); K >= 0)
      return K;
    std::vector<std::string> &U = UnknownIn[Side];
    auto It = std::find(U.begin(), U.end(), Name);
    if (It == U.end())
      It = U.insert(It, Name);
    return static_cast<int>(Info.BP.KeyNames.size() + (It - U.begin()));
  };
  const std::vector<cj::CParam> &Params = Call.CalleeMethod->Params;
  for (size_t I = 0; I != Call.Args.size() && I != Params.size(); ++I)
    CT.Bindings.emplace_back(
        Resolve(Callee, 1, Params[I].Name),
        Call.Args[I].empty() ? -1 : Resolve(Caller, 0, Call.Args[I]));
  if (!Call.Lhs.empty()) {
    CT.Lhs = Caller.keyOf(Call.Lhs);
    CT.Ret = Resolve(Callee, 1, "$ret");
  }

  const size_t NB = Caller.BP.Vars.size();
  CT.SummaryTargets.resize(Callee.BP.Vars.size());
  CT.TMs.resize(NB);
  CT.Feeders.resize(NB);
  for (size_t B = 0; B != NB; ++B) {
    int CalleeArgs[wp::MaxSlots] = {};
    int CalleeVar = -1;
    if (!mapTuple(Caller, Callee, CT, static_cast<int>(B), CalleeArgs,
                  CT.TMs[B]) ||
        instantiateIn(Callee, Caller.BP.Vars[B].Family, CalleeArgs,
                      CalleeVar) != 2) {
      // Unmappable; or, since injective renaming preserves
      // constant-ness, a constant or unknown instance: stay
      // conservative.
      CT.Bypass.push_back(static_cast<int>(B));
      continue;
    }
    CT.SummaryTargets[CalleeVar].push_back(static_cast<int>(B));
  }

  CT.FeedOut.resize(1 + NB);
  CT.FeedOut[ifds::LambdaFact].push_back(ifds::LambdaFact);
  std::vector<int> Feeders;
  for (size_t E = 0; E != Callee.BP.Vars.size(); ++E) {
    factFeeders(Caller, Callee, CT, static_cast<int>(E), Feeders);
    for (int F : Feeders)
      CT.FeedOut[F].push_back(1 + static_cast<int>(E));
  }
  return CT;
}

int InterprocProblem::feederOf(const CallTable &CT, int B,
                               int CalleeEntryVar) const {
  const MethodInfo &Callee = Infos[CT.Callee];
  std::vector<int> &Row = CT.Feeders[B];
  if (Row.empty())
    Row.assign(Callee.BP.Vars.size(), Unset);
  int &Feeder = Row[CalleeEntryVar];
  if (Feeder != Unset)
    return Feeder;

  const TupleMap &TM = CT.TMs[B];
  const BoolVar &BV = Callee.BP.Vars[CalleeEntryVar];
  int CallerArgs[wp::MaxSlots] = {};
  for (size_t I = 0; I != BV.Args.size(); ++I) {
    const int V = Callee.VarArgs[CalleeEntryVar][I];
    int K = TM.callerOf(V);
    for (size_t P = 0; K < 0 && P != CT.Bindings.size(); ++P)
      if (CT.Bindings[P].first == V && CT.Bindings[P].second >= 0)
        K = CT.Bindings[P].second;
    // A callee local, $ret, an unbound formal, or a callee ghost not in
    // this tuple's assignment: uninitialized/arbitrary at callee entry,
    // hence unconditionally may-be-1.
    if (K < 0)
      return Feeder = ifds::LambdaFact;
    CallerArgs[I] = K;
  }
  int CallerVar = -1;
  switch (instantiateIn(Infos[CT.Caller], BV.Family, CallerArgs, CallerVar)) {
  case 0:
    return Feeder = NoFeeder; // Constant-false at entry: contributes nothing.
  case 1:
    return Feeder = ifds::LambdaFact;
  default:
    return Feeder = 1 + CallerVar;
  }
}

} // namespace detail
} // namespace bp
} // namespace canvas

using canvas::bp::detail::InterprocProblem;
using canvas::bp::detail::MethodInfo;

struct InterprocModel::Impl {
  InterprocProblem Prob;
  std::vector<InterprocModel::Anchor> Anchors;

  Impl(const DerivedAbstraction &Abs, const cj::ClientCFG &CFG,
       const cj::CFGMethod &Entry, DiagnosticEngine &Diags)
      : Prob(Abs, CFG, Entry, Diags) {
    const std::vector<MethodInfo> &Infos = Prob.infos();
    for (size_t P = 0; P != Infos.size(); ++P) {
      for (const Check &C : Infos[P].BP.Checks) {
        InterprocModel::Anchor A;
        A.Method = Infos[P].Orig->name();
        A.Loc = C.Loc;
        A.ReqLoc = C.ReqLoc;
        A.What = C.What;
        A.Proc = static_cast<int>(P);
        A.Node = Infos[P].Ext.Edges[C.Edge].From;
        A.Var = C.Var;
        A.ConstantViolated = C.ConstantViolated;
        Anchors.push_back(std::move(A));
      }
    }
  }
};

InterprocModel::InterprocModel(const DerivedAbstraction &Abs,
                               const cj::ClientCFG &CFG,
                               const cj::CFGMethod &Entry,
                               DiagnosticEngine &Diags)
    : I(std::make_unique<Impl>(Abs, CFG, Entry, Diags)) {}
InterprocModel::~InterprocModel() = default;
InterprocModel::InterprocModel(InterprocModel &&) noexcept = default;
InterprocModel &
InterprocModel::operator=(InterprocModel &&) noexcept = default;

const ifds::Problem &InterprocModel::problem() const { return I->Prob; }
const std::vector<InterprocModel::Anchor> &InterprocModel::anchors() const {
  return I->Anchors;
}

InterResult bp::analyzeInterproc(const DerivedAbstraction &Abs,
                                 const cj::ClientCFG &CFG,
                                 const cj::CFGMethod &Entry,
                                 DiagnosticEngine &Diags,
                                 support::CancelToken *Cancel) {
  InterprocModel Model(Abs, CFG, Entry, Diags);
  return analyzeInterproc(Model, Cancel, nullptr);
}

InterResult bp::analyzeInterproc(const InterprocModel &Model,
                                 support::CancelToken *Cancel,
                                 IfdsTabulation *TabOut) {
  support::faultProbe("boolprog.interproc");
  const InterprocProblem &Prob = Model.I->Prob;
  ifds::Solver Solver(Prob);
  Solver.solve(Cancel);

  InterResult R;
  R.SummaryIterations = Solver.stats().Visits;
  R.ExplodedNodes = Solver.stats().ExplodedNodes;
  R.PathEdges = Solver.stats().PathEdges;
  R.Summaries = Solver.stats().Summaries;

  const std::vector<MethodInfo> &Infos = Prob.infos();
  std::vector<TraceRenderProc> Render;
  for (const MethodInfo &Info : Infos)
    Render.push_back({&Info.Ext, &Info.BP});

  std::unique_ptr<ifds::WitnessBuilder> WB;
  for (size_t P = 0; P != Infos.size(); ++P) {
    const MethodInfo &Info = Infos[P];
    int PI = static_cast<int>(P);
    if (!Solver.reached(PI, Info.Ext.Entry, ifds::LambdaFact))
      continue; // Not callable from the entry method.
    for (const Check &C : Info.BP.Checks) {
      core::CheckRecord Rec;
      Rec.Method = Info.Orig->name();
      Rec.Loc = C.Loc;
      Rec.What = C.What;
      Rec.ReqLoc = C.ReqLoc;
      int From = Info.Ext.Edges[C.Edge].From;
      int Fact = C.Var >= 0 ? 1 + C.Var : ifds::LambdaFact;
      if (!Solver.reached(PI, From, ifds::LambdaFact)) {
        Rec.Outcome = CheckOutcome::Unreachable;
      } else if (C.Var < 0) {
        Rec.Outcome = C.ConstantViolated ? CheckOutcome::Potential
                                         : CheckOutcome::Safe;
      } else {
        Rec.Outcome = Solver.reached(PI, From, Fact)
                          ? CheckOutcome::Potential
                          : CheckOutcome::Safe;
      }
      if (Rec.Outcome == CheckOutcome::Potential) {
        auto T0 = std::chrono::steady_clock::now();
        if (!WB)
          WB = std::make_unique<ifds::WitnessBuilder>(Solver);
        std::vector<ifds::TraceStep> Steps;
        int Seed = ifds::LambdaFact;
        if (WB->reconstruct(PI, From, Fact, Steps, Seed)) {
          Rec.Witness = renderTrace(Steps, Render, Prob.entryProc(), Seed);
          Rec.Witness.Steps.push_back(
              renderCheckStep(Info.Ext, Info.BP, C));
        }
        auto T1 = std::chrono::steady_clock::now();
        R.WitnessMicros +=
            std::chrono::duration<double, std::micro>(T1 - T0).count();
      }
      R.Checks.push_back(std::move(Rec));
    }
  }

  if (TabOut) {
    TabOut->PathEdges.reserve(Solver.pathEdges().size());
    for (const ifds::Solver::PathEdge &E : Solver.pathEdges())
      TabOut->PathEdges.push_back({E.Proc, E.EntryFact, E.Node, E.Fact});
    for (int P = 0; P != Prob.numProcs(); ++P)
      for (int F = 0; F != Prob.numFacts(P); ++F)
        if (Solver.genuineEntry(P, F))
          TabOut->Genuine.emplace_back(P, F);
  }
  return R;
}
