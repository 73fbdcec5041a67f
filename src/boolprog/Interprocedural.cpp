#include "boolprog/Interprocedural.h"

#include "boolprog/Witness.h"
#include "ifds/Solver.h"
#include "ifds/Witness.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <set>

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
struct MethodInfo {
  const cj::CFGMethod *Orig = nullptr;
  /// CFG copy with ghost variables appended to CompVars.
  cj::CFGMethod Ext;
  BooleanProgram BP;
  /// Ghost variable names per component type (two each).
  std::map<std::string, std::array<std::string, 2>> Ghosts;
  std::vector<EdgeFlow> Flows;
  /// Per edge, the checked variables refined to 0 past their check.
  std::vector<std::vector<char>> Kills;
};

/// Caller-to-callee renaming of one variable tuple: actuals become
/// formals, the call result becomes $ret, everything else becomes a
/// ghost (at most two distinct ghosts per type).
struct TupleMap {
  std::vector<std::string> CalleeArgs;
  /// Ghost name -> caller variable, for the inverse translation.
  std::map<std::string, std::string> GhostToCaller;
};

/// Precomputed call-site translation tables for one ClientCall edge
/// with a known callee. Facts are 0 = Lambda, 1+v = boolean variable v.
struct CallTable {
  int Callee = -1;
  const cj::Action *Call = nullptr;
  /// FeedOut[caller fact] -> callee entry facts it genuinely feeds
  /// (the inverted calleeEntryFactMay1 relation).
  std::vector<std::vector<int>> FeedOut;
  /// Caller vars whose tuple is not mappable into the callee: they
  /// flow Lambda -> 1+B across the call unconditionally.
  std::vector<int> Bypass;
  /// Callee var c -> caller vars B whose tuple maps onto c.
  std::map<int, std::vector<int>> SummaryTargets;
  /// Tuple map per mapped caller var.
  std::map<int, TupleMap> TMs;
  /// Memoized return-translation feeders per (caller var B, callee
  /// entry var e): caller facts whose 1-ness lets summary entry fact
  /// 1+e contribute to 1+B.
  mutable std::map<std::pair<int, int>, std::vector<int>> Feeders;
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

  void flowCall(int P, int Edge, int Fact,
                std::vector<int> &Out) const override {
    const CallTable &CT = Tables[P].at(Edge);
    Out = CT.FeedOut[Fact];
  }

  void flowCallToReturn(int P, int Edge, int Fact,
                        std::vector<int> &Out) const override {
    if (Fact != ifds::LambdaFact)
      return;
    const CallTable &CT = Tables[P].at(Edge);
    Out.push_back(ifds::LambdaFact);
    for (int B : CT.Bypass)
      Out.push_back(1 + B);
  }

  void flowSummary(int P, int Edge, int Fact, int CalleeEntryFact,
                   int CalleeExitFact, std::vector<int> &Out) const override {
    if (CalleeExitFact == ifds::LambdaFact)
      return; // Reachability crosses via flowCallToReturn.
    const CallTable &CT = Tables[P].at(Edge);
    auto It = CT.SummaryTargets.find(CalleeExitFact - 1);
    if (It == CT.SummaryTargets.end())
      return;
    for (int B : It->second) {
      if (CalleeEntryFact == ifds::LambdaFact) {
        // An unconditional callee fact: flows whenever the call site
        // is reached.
        if (Fact == ifds::LambdaFact)
          Out.push_back(1 + B);
        continue;
      }
      const std::vector<int> &F =
          feedersOf(P, CT, B, CalleeEntryFact - 1);
      if (std::find(F.begin(), F.end(), Fact) != F.end())
        Out.push_back(1 + B);
    }
  }

  //===--- verdict/witness accessors -------------------------------------===//

  const std::vector<MethodInfo> &infos() const { return Infos; }

private:
  void build(const cj::ClientCFG &CFG, const cj::CFGMethod &Entry,
             DiagnosticEngine &Diags);
  void buildCallTable(int CallerIdx, int EdgeIdx, const cj::Action &Call,
                      int CalleeIdx);

  int indexOf(const cj::CMethod *M) const {
    for (size_t I = 0; I != Infos.size(); ++I)
      if (Infos[I].Orig->Method == M)
        return static_cast<int>(I);
    return -1;
  }

  static bool isGhost(const std::string &Name) {
    return Name.size() > 3 && Name[0] == '$' && Name[1] == 'g';
  }

  static std::string typeOfVarIn(const MethodInfo &Info,
                                 const std::string &V) {
    for (const auto &[Name, T] : Info.Ext.CompVars)
      if (Name == V)
        return T;
    return "";
  }

  bool mapTuple(const MethodInfo &Caller, const MethodInfo &Callee,
                const cj::Action &Call, const std::vector<std::string> &Args,
                TupleMap &Out) const;

  /// Looks up the boolvar for (Family, Args) in \p Info. Returns 0 for
  /// constant-false, 1 for constant-true (or unknown, conservatively),
  /// 2 for a variable (set in \p VarOut).
  int instantiateIn(const MethodInfo &Info, int Family,
                    const std::vector<std::string> &Args, int &VarOut) const;

  /// Caller facts genuinely feeding callee entry fact 1+e at this call
  /// site: the inverted per-tuple enumeration of the functional engine
  /// (slot order matters — the first decisive slot wins, matching the
  /// original formulation exactly).
  std::vector<int> factFeeders(const MethodInfo &Caller,
                               const MethodInfo &Callee,
                               const cj::Action &Call, int CalleeFact) const;

  /// Caller facts through which summary entry fact 1+e reaches caller
  /// var B at return: the translate-back of the functional engine.
  const std::vector<int> &feedersOf(int CallerIdx, const CallTable &CT,
                                    int B, int CalleeEntryVar) const;

  const DerivedAbstraction &Abs;
  std::vector<MethodInfo> Infos;
  std::vector<ifds::ProcView> Views;
  /// Per (proc, edge) call tables for known-callee ClientCall edges.
  std::vector<std::map<int, CallTable>> Tables;
  int EntryIdx = -1;
};

void InterprocProblem::build(const cj::ClientCFG &CFG,
                             const cj::CFGMethod &Entry,
                             DiagnosticEngine &Diags) {
  // Component types mentioned by any predicate family.
  std::vector<std::string> Types;
  for (const PredicateFamily &F : Abs.Families)
    for (const std::string &T : F.VarTypes)
      if (std::find(Types.begin(), Types.end(), T) == Types.end())
        Types.push_back(T);

  for (const cj::CFGMethod &M : CFG.Methods) {
    MethodInfo Info;
    Info.Orig = &M;
    Info.Ext = M; // Copy; Edges/CompVars are value types.
    for (const std::string &T : Types) {
      std::array<std::string, 2> Names = {"$g0$" + T, "$g1$" + T};
      for (const std::string &G : Names)
        Info.Ext.CompVars.emplace_back(G, T);
      Info.Ghosts.emplace(T, Names);
    }
    if (&M == &Entry)
      EntryIdx = static_cast<int>(Infos.size());
    Infos.push_back(std::move(Info));
  }
  for (MethodInfo &Info : Infos) {
    Info.BP = buildBooleanProgram(Abs, Info.Ext, Diags);
    Info.Flows = computeEdgeFlows(Info.BP);
    Info.Kills = checkKills(Info.BP);
  }

  Views.resize(Infos.size());
  Tables.resize(Infos.size());
  for (size_t P = 0; P != Infos.size(); ++P) {
    const cj::CFGMethod &M = Infos[P].Ext;
    ifds::ProcView &V = Views[P];
    V.Entry = M.Entry;
    V.Exit = M.Exit;
    V.NumNodes = M.NumNodes;
    for (size_t E = 0; E != M.Edges.size(); ++E) {
      const cj::CFGEdge &Edge = M.Edges[E];
      int Callee = -1;
      if (Edge.Act.K == cj::Action::Kind::ClientCall)
        Callee = indexOf(Edge.Act.CalleeMethod);
      V.Edges.push_back({Edge.From, Edge.To, Callee});
      if (Callee >= 0)
        buildCallTable(static_cast<int>(P), static_cast<int>(E), Edge.Act,
                       Callee);
    }
  }
}

bool InterprocProblem::mapTuple(const MethodInfo &Caller,
                                const MethodInfo &Callee,
                                const cj::Action &Call,
                                const std::vector<std::string> &Args,
                                TupleMap &Out) const {
  std::map<std::string, unsigned> GhostsUsed;
  std::map<std::string, std::string> Assigned;
  for (const std::string &A : Args) {
    auto It = Assigned.find(A);
    if (It != Assigned.end()) {
      Out.CalleeArgs.push_back(It->second);
      continue;
    }
    std::string Mapped;
    if (!Call.Lhs.empty() && A == Call.Lhs) {
      Mapped = "$ret";
    } else {
      for (size_t I = 0;
           I != Call.Args.size() && I != Call.CalleeMethod->Params.size();
           ++I)
        if (Call.Args[I] == A && !Call.Args[I].empty()) {
          Mapped = Call.CalleeMethod->Params[I].Name;
          break;
        }
    }
    if (Mapped.empty()) {
      std::string T = typeOfVarIn(Caller, A);
      auto GIt = Callee.Ghosts.find(T);
      if (GIt == Callee.Ghosts.end())
        return false;
      unsigned &Used = GhostsUsed[T];
      if (Used >= 2)
        return false;
      Mapped = GIt->second[Used++];
      Out.GhostToCaller[Mapped] = A;
    }
    Assigned.emplace(A, Mapped);
    Out.CalleeArgs.push_back(Mapped);
  }
  return true;
}

int InterprocProblem::instantiateIn(const MethodInfo &Info, int Family,
                                    const std::vector<std::string> &Args,
                                    int &VarOut) const {
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

std::vector<int> InterprocProblem::factFeeders(const MethodInfo &Caller,
                                               const MethodInfo &Callee,
                                               const cj::Action &Call,
                                               int CalleeFact) const {
  const BoolVar &BV = Callee.BP.Vars[CalleeFact];
  std::vector<std::vector<std::string>> Cands(BV.Args.size());
  for (size_t I = 0; I != BV.Args.size(); ++I) {
    const std::string &V = BV.Args[I];
    if (isGhost(V)) {
      // An arbitrary caller object of the slot's type.
      const PredicateFamily &Fam = Abs.Families[BV.Family];
      for (const auto &[Name, T] : Caller.Ext.CompVars)
        if (T == Fam.VarTypes[I])
          Cands[I].push_back(Name);
      if (Cands[I].empty())
        return {};
      continue;
    }
    bool IsFormal = false;
    for (size_t P = 0;
         P != Call.CalleeMethod->Params.size() && P != Call.Args.size(); ++P)
      if (Call.CalleeMethod->Params[P].Name == V) {
        if (Call.Args[P].empty())
          return {ifds::LambdaFact}; // Unknown actual: conservative.
        Cands[I] = {Call.Args[P]};
        IsFormal = true;
        break;
      }
    if (!IsFormal)
      return {ifds::LambdaFact}; // Callee local / $ret: uninitialized.
  }
  // Enumerate candidate tuples (arity <= 2 keeps this tiny).
  std::set<int> Feeders;
  std::vector<size_t> Idx(BV.Args.size(), 0);
  while (true) {
    std::vector<std::string> Tuple(BV.Args.size());
    for (size_t I = 0; I != Idx.size(); ++I)
      Tuple[I] = Cands[I][Idx[I]];
    int CallerVar = -1;
    switch (instantiateIn(Caller, BV.Family, Tuple, CallerVar)) {
    case 1:
      Feeders.insert(ifds::LambdaFact);
      break;
    case 2:
      Feeders.insert(1 + CallerVar);
      break;
    default:
      break;
    }
    size_t I = 0;
    for (; I != Idx.size(); ++I) {
      if (++Idx[I] < Cands[I].size())
        break;
      Idx[I] = 0;
    }
    if (I == Idx.size())
      break;
  }
  return {Feeders.begin(), Feeders.end()};
}

void InterprocProblem::buildCallTable(int CallerIdx, int EdgeIdx,
                                      const cj::Action &Call,
                                      int CalleeIdx) {
  const MethodInfo &Caller = Infos[CallerIdx];
  const MethodInfo &Callee = Infos[CalleeIdx];
  CallTable CT;
  CT.Callee = CalleeIdx;
  CT.Call = &Call;

  for (size_t B = 0; B != Caller.BP.Vars.size(); ++B) {
    const BoolVar &BV = Caller.BP.Vars[B];
    TupleMap TM;
    if (!mapTuple(Caller, Callee, Call, BV.Args, TM)) {
      CT.Bypass.push_back(static_cast<int>(B));
      continue;
    }
    int CalleeVar = -1;
    if (instantiateIn(Callee, BV.Family, TM.CalleeArgs, CalleeVar) != 2) {
      // Injective renaming preserves constant-ness; if we land on a
      // constant or unknown instance, stay conservative.
      CT.Bypass.push_back(static_cast<int>(B));
      continue;
    }
    CT.SummaryTargets[CalleeVar].push_back(static_cast<int>(B));
    CT.TMs.emplace(static_cast<int>(B), std::move(TM));
  }

  CT.FeedOut.resize(1 + Caller.BP.Vars.size());
  CT.FeedOut[ifds::LambdaFact].push_back(ifds::LambdaFact);
  for (size_t E = 0; E != Callee.BP.Vars.size(); ++E)
    for (int F : factFeeders(Caller, Callee, Call, static_cast<int>(E)))
      CT.FeedOut[F].push_back(1 + static_cast<int>(E));

  Tables[CallerIdx].emplace(EdgeIdx, std::move(CT));
}

const std::vector<int> &InterprocProblem::feedersOf(int CallerIdx,
                                                    const CallTable &CT,
                                                    int B,
                                                    int CalleeEntryVar) const {
  auto Key = std::make_pair(B, CalleeEntryVar);
  auto It = CT.Feeders.find(Key);
  if (It != CT.Feeders.end())
    return It->second;

  const MethodInfo &Caller = Infos[CallerIdx];
  const MethodInfo &Callee = Infos[CT.Callee];
  const cj::Action &Call = *CT.Call;
  const TupleMap &TM = CT.TMs.at(B);
  const BoolVar &BV = Callee.BP.Vars[CalleeEntryVar];

  std::vector<int> Result;
  std::vector<std::string> CallerArgs(BV.Args.size());
  bool Unmapped = false;
  for (size_t I = 0; I != BV.Args.size() && !Unmapped; ++I) {
    const std::string &V = BV.Args[I];
    auto GIt = TM.GhostToCaller.find(V);
    if (GIt != TM.GhostToCaller.end()) {
      CallerArgs[I] = GIt->second;
      continue;
    }
    bool Found = false;
    for (size_t P = 0;
         P != Call.CalleeMethod->Params.size() && P != Call.Args.size(); ++P)
      if (Call.CalleeMethod->Params[P].Name == V && !Call.Args[P].empty()) {
        CallerArgs[I] = Call.Args[P];
        Found = true;
        break;
      }
    // A callee local, $ret, an unbound formal, or a callee ghost not in
    // this tuple's assignment: uninitialized/arbitrary at callee entry,
    // hence unconditionally may-be-1.
    Unmapped = !Found;
  }
  if (Unmapped) {
    Result.push_back(ifds::LambdaFact);
  } else {
    int CallerVar = -1;
    switch (instantiateIn(Caller, BV.Family, CallerArgs, CallerVar)) {
    case 0:
      break; // Constant-false at entry: contributes nothing.
    case 1:
      Result.push_back(ifds::LambdaFact);
      break;
    default:
      Result.push_back(1 + CallerVar);
      break;
    }
  }
  return CT.Feeders.emplace(Key, std::move(Result)).first->second;
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
