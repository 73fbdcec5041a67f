#include "boolprog/BooleanProgram.h"

#include "support/ErrorHandling.h"

#include <algorithm>

using namespace canvas;
using namespace canvas::bp;
using namespace canvas::wp;

std::string BooleanProgram::str() const {
  std::string Out = "Boolean program for " + CFG->name() + " (" +
                    std::to_string(Vars.size()) + " variables)\n";
  for (size_t I = 0; I != Vars.size(); ++I)
    Out += "  b" + std::to_string(I) + ": [" + Vars[I].Name + "]\n";
  for (size_t E = 0; E != EdgeAssignments.size(); ++E) {
    if (EdgeAssignments[E].empty())
      continue;
    Out += "  edge " + std::to_string(CFG->Edges[E].From) + "->" +
           std::to_string(CFG->Edges[E].To) + " (" + CFG->Edges[E].Act.str() +
           "):\n";
    for (const auto &[Tgt, Rhs] : EdgeAssignments[E]) {
      Out += "    b" + std::to_string(Tgt) + " := ";
      switch (Rhs.K) {
      case BoolRhs::Kind::Const:
        Out += Rhs.PlusOne ? "1" : "0";
        break;
      case BoolRhs::Kind::Unknown:
        Out += "?";
        break;
      case BoolRhs::Kind::Or: {
        bool First = true;
        if (Rhs.PlusOne) {
          Out += "1";
          First = false;
        }
        for (int S : Rhs.Sources) {
          if (!First)
            Out += " || ";
          Out += "b" + std::to_string(S);
          First = false;
        }
        if (First)
          Out += "0";
        break;
      }
      }
      Out += "\n";
    }
  }
  return Out;
}

wp::Folded BooleanProgram::instance(int Family, const int *Args,
                                    int &VarOut) const {
  InstanceKey Key;
  wp::Folded F = Abs->Templates.fold(Family, Args, Key);
  if (F != wp::Folded::Var)
    return F;
  auto It = VarOf.find(Key);
  VarOut = It == VarOf.end() ? -1 : It->second;
  return F;
}

namespace {

/// Result of instantiating a predicate application over client variables.
enum class AppValue { False, True, Variable, Missing };

/// Lowers one method by integer substitution into the abstraction's
/// compiled templates: client variables are indices into
/// Out.KeyNames, an instance is a wp::InstanceKey, and a boolean
/// variable is interned per distinct key.
class Builder {
public:
  /// \p Parts, when given, partitions the component variables: an
  /// instance spanning two parts folds to constant false.
  Builder(const DerivedAbstraction &Abs, const cj::CFGMethod &M,
          DiagnosticEngine &Diags,
          const std::vector<std::vector<std::string>> *Parts)
      : Abs(Abs), T(Abs.Templates), M(M), Diags(Diags) {
    std::vector<int> CompIdx;
    CompIdx.reserve(M.CompVars.size());
    for (const auto &[V, Ty] : M.CompVars)
      CompIdx.push_back(nameIndex(V));
    if (Parts)
      for (size_t P = 0; P != Parts->size(); ++P)
        for (const std::string &V : (*Parts)[P])
          if (int I = findName(V); I >= 0)
            PartOf[I] = static_cast<int>(P);
    VarsOfType.resize(T.Types.size());
    for (size_t TI = 0; TI != T.Types.size(); ++TI)
      for (size_t I = 0; I != M.CompVars.size(); ++I)
        if (M.CompVars[I].second == T.Types[TI])
          VarsOfType[TI].push_back(CompIdx[I]);
  }

  BooleanProgram run() {
    Out.CFG = &M;
    Out.Abs = &Abs;
    enumerateVars();
    Out.EdgeAssignments.resize(M.Edges.size());
    for (size_t E = 0; E != M.Edges.size(); ++E) {
      lowerEdge(static_cast<int>(E));
      for (const auto &[Tgt, Rhs] : Out.EdgeAssignments[E])
        AssignedOnEdge[Tgt] = 0;
    }
    return std::move(Out);
  }

private:
  /// Index of client-variable name \p N, or -1 when not met yet.
  int findName(const std::string &N) const {
    auto It = std::find(Out.KeyNames.begin(), Out.KeyNames.end(), N);
    return It == Out.KeyNames.end()
               ? -1
               : static_cast<int>(It - Out.KeyNames.begin());
  }

  /// Index of client-variable name \p N, appended on first sight.
  int nameIndex(const std::string &N) {
    if (int I = findName(N); I >= 0)
      return I;
    Out.KeyNames.push_back(N);
    PartOf.push_back(-1);
    return static_cast<int>(Out.KeyNames.size() - 1);
  }

  /// A call binding: an empty operand binds nothing.
  int bindIndex(const std::string &N) {
    return N.empty() ? -1 : nameIndex(N);
  }

  /// True when two of the first \p N entries of \p Args name
  /// component variables in different parts.
  bool crossPart(const int *Args, size_t N) const {
    int Part = -1;
    for (size_t I = 0; I != N; ++I) {
      const int P = PartOf[Args[I]];
      if (P < 0)
        continue;
      if (Part < 0)
        Part = P;
      else if (P != Part)
        return true;
    }
    return false;
  }

  std::string typeOfClientVar(const std::string &Name) const {
    for (const auto &[V, T] : M.CompVars)
      if (V == Name)
        return T;
    return "";
  }

  int internVar(int Family, const int *Args, const InstanceKey &Key) {
    auto [It, New] =
        Out.VarOf.try_emplace(Key, static_cast<int>(Out.Vars.size()));
    if (!New)
      return It->second;
    BoolVar BV;
    BV.Family = Family;
    std::array<int, MaxSlots> Idx;
    Idx.fill(-1);
    BV.Args.reserve(T.SlotTypes[Family].size());
    for (size_t I = 0; I != T.SlotTypes[Family].size(); ++I) {
      BV.Args.push_back(Out.KeyNames[Args[I]]);
      Idx[I] = Args[I];
    }
    BV.Name = T.render(Key, Out.KeyNames);
    Out.Vars.push_back(std::move(BV));
    ArgIdx.push_back(Idx);
    AssignedOnEdge.push_back(0);
    return It->second;
  }

  bool mentions(size_t V, int X) const {
    if (X < 0)
      return false;
    for (int A : ArgIdx[V])
      if (A == X)
        return true;
    return false;
  }

  /// Enumerates every instrumentation-predicate instance over the
  /// method's component variables (the set shown at the top of Fig. 6).
  void enumerateVars() {
    for (size_t F = 0; F != T.Families.size(); ++F) {
      int Tuple[MaxSlots] = {};
      enumerateTuples(static_cast<int>(F), 0, Tuple);
    }
  }

  void enumerateTuples(int F, unsigned Slot, int *Tuple) {
    const std::vector<int> &Types = T.SlotTypes[F];
    if (Slot == Types.size()) {
      InstanceKey Key;
      if (T.fold(F, Tuple, Key) == wp::Folded::Var)
        internVar(F, Tuple, Key);
      return;
    }
    for (int V : VarsOfType[Types[Slot]]) {
      Tuple[Slot] = V;
      if (!crossPart(Tuple, Slot + 1))
        enumerateTuples(F, Slot + 1, Tuple);
    }
  }

  /// Instantiates \p App under the call environment; fills \p VarIdx
  /// for Variable.
  AppValue instantiateApp(const wp::CompiledApp &App, int &VarIdx) {
    const size_t Arity = T.SlotTypes[App.Family].size();
    int Args[MaxSlots] = {};
    for (size_t I = 0; I != Arity; ++I) {
      Args[I] = App.Env[I] == wp::UnboundSlot ? -1 : Env[App.Env[I]];
      if (Args[I] < 0)
        return AppValue::Missing;
    }
    // No action relates objects of different parts, so an instance
    // spanning two of them is false on every path that initializes its
    // operands (DESIGN.md "Stage 0 pre-analysis").
    if (crossPart(Args, Arity))
      return AppValue::False;
    InstanceKey Key;
    switch (T.fold(App.Family, Args, Key)) {
    case wp::Folded::False:
      return AppValue::False;
    case wp::Folded::True:
      return AppValue::True;
    case wp::Folded::Var:
      break;
    }
    VarIdx = internVar(App.Family, Args, Key);
    return AppValue::Variable;
  }

  void assign(int Edge, int Tgt, BoolRhs Rhs) {
    if (AssignedOnEdge[Tgt])
      return; // First instantiation wins (duplicates are equal).
    AssignedOnEdge[Tgt] = 1;
    Out.EdgeAssignments[Edge].emplace_back(Tgt, std::move(Rhs));
  }

  static BoolRhs unknown() {
    BoolRhs R;
    R.K = BoolRhs::Kind::Unknown;
    return R;
  }

  void clobberAll(int Edge) {
    for (size_t V = 0; V != Out.Vars.size(); ++V)
      assign(Edge, static_cast<int>(V), unknown());
  }

  void havocVar(int Edge, const std::string &X) {
    const int XI = findName(X);
    for (size_t V = 0; V != Out.Vars.size(); ++V)
      if (mentions(V, XI))
        assign(Edge, static_cast<int>(V), unknown());
  }

  void lowerEdge(int E) {
    const cj::Action &A = M.Edges[E].Act;
    switch (A.K) {
    case cj::Action::Kind::Nop:
      return;
    case cj::Action::Kind::Havoc:
      havocVar(E, A.Lhs);
      return;
    case cj::Action::Kind::OpaqueEffect:
      clobberAll(E);
      return;
    case cj::Action::Kind::ClientCall:
      // The intraprocedural certifier treats client calls conservatively;
      // the interprocedural certifier (Section 8) never consults these
      // edge assignments for ClientCall edges.
      clobberAll(E);
      return;
    case cj::Action::Kind::Copy:
      lowerCopy(E, A);
      return;
    case cj::Action::Kind::AllocComp:
      lowerComponentCall(E, A, Abs.findMethod(A.Callee, "new"));
      return;
    case cj::Action::Kind::CompCall: {
      std::string RecvType = typeOfClientVar(A.Recv);
      lowerComponentCall(E, A, Abs.findMethod(RecvType, A.Callee));
      return;
    }
    }
  }

  void lowerCopy(int E, const cj::Action &A) {
    const int X = findName(A.Lhs);
    const int Y = nameIndex(A.Args[0]);
    // Interning may append variables; they are visited too.
    for (size_t V = 0; V != Out.Vars.size(); ++V) {
      if (!mentions(V, X))
        continue;
      // The instance with X renamed to Y is the variable's family over
      // the renamed arguments (x != y folds to y != y, ...).
      std::array<int, MaxSlots> Renamed = ArgIdx[V];
      for (int &Arg : Renamed)
        if (Arg == X)
          Arg = Y;
      const int Family = Out.Vars[V].Family;
      BoolRhs R;
      InstanceKey Key;
      const wp::Folded F =
          crossPart(Renamed.data(), T.SlotTypes[Family].size())
              ? wp::Folded::False
              : T.fold(Family, Renamed.data(), Key);
      switch (F) {
      case wp::Folded::False:
        R.K = BoolRhs::Kind::Const;
        break;
      case wp::Folded::True:
        R.K = BoolRhs::Kind::Const;
        R.PlusOne = true;
        break;
      case wp::Folded::Var:
        R.K = BoolRhs::Kind::Or;
        R.Sources = {internVar(Family, Renamed.data(), Key)};
        break;
      }
      assign(E, static_cast<int>(V), std::move(R));
    }
  }

  void lowerComponentCall(int E, const cj::Action &A,
                          const MethodAbstraction *MA) {
    if (!MA) {
      Diags.error(A.Loc, "no derived abstraction for call '" + A.str() +
                             "'; clobbering all facts");
      clobberAll(E);
      return;
    }
    const wp::CompiledMethod &CM = T.Methods[MA - Abs.Methods.data()];
    // The call environment [this, parameters..., ret, $q0, ...].
    const size_t NParams = MA->Params.size();
    Env.assign(2 + NParams + MaxSlots, -1);
    if (MA->HasThis)
      Env[0] = bindIndex(A.Recv);
    for (size_t I = 0; I != NParams && I != A.Args.size(); ++I)
      Env[1 + I] = bindIndex(A.Args[I]);
    const int Lhs = bindIndex(A.Lhs);
    Env[1 + NParams] = Lhs;

    // Requires obligations, checked in the pre-call state.
    const std::string CallText =
        CM.Requires.empty() ? std::string() : A.str();
    for (size_t R = 0; R != CM.Requires.size(); ++R) {
      Check C;
      C.Edge = E;
      C.Loc = A.Loc;
      C.ReqLoc = MA->RequiresFalse[R].second;
      C.What = CallText + CM.RequiresText[R];
      int VarIdx = -1;
      switch (instantiateApp(CM.Requires[R], VarIdx)) {
      case AppValue::False:
        C.Var = -1;
        C.ConstantViolated = false;
        break;
      case AppValue::True:
        C.Var = -1;
        C.ConstantViolated = true;
        break;
      case AppValue::Missing:
        // Unknown receiver/argument: conservatively a potential
        // violation.
        C.Var = -1;
        C.ConstantViolated = true;
        C.What += " (unknown operand)";
        break;
      case AppValue::Variable:
        C.Var = VarIdx;
        break;
      }
      Out.Checks.push_back(std::move(C));
    }

    // Update rules.
    for (const wp::CompiledRule &R : CM.Rules) {
      if (R.UsesRet && Lhs < 0)
        continue; // Unnamed result: not tracked.
      int Tuple[MaxSlots] = {};
      instantiateRule(E, R, NParams, Lhs, 0, Tuple);
    }
  }

  /// Enumerates target tuples for rule \p R: "ret" slots take the call's
  /// result variable \p Lhs; quantified slots range over the other
  /// component variables of the slot type.
  void instantiateRule(int E, const wp::CompiledRule &R, size_t NParams,
                       int Lhs, unsigned Slot, int *Tuple) {
    const std::vector<int> &Types = T.SlotTypes[R.Family];
    if (Slot == Types.size()) {
      InstanceKey Key;
      if (crossPart(Tuple, Types.size()) ||
          T.fold(R.Family, Tuple, Key) != wp::Folded::Var)
        return;
      int Tgt = internVar(R.Family, Tuple, Key);
      for (unsigned I = 0; I != Types.size(); ++I)
        if (!R.RetSlots[I])
          Env[2 + NParams + I] = Tuple[I];

      BoolRhs Rhs;
      Rhs.K = BoolRhs::Kind::Or;
      Rhs.PlusOne = R.ConstantTrue;
      for (const wp::CompiledApp &Src : R.Sources) {
        int VarIdx = -1;
        switch (instantiateApp(Src, VarIdx)) {
        case AppValue::False:
          break;
        case AppValue::True:
          Rhs.PlusOne = true;
          break;
        case AppValue::Variable:
          Rhs.Sources.push_back(VarIdx);
          break;
        case AppValue::Missing:
          // An unknown operand contributes an unknown disjunct.
          Rhs.K = BoolRhs::Kind::Unknown;
          break;
        }
      }
      if (Rhs.K == BoolRhs::Kind::Or && Rhs.Sources.empty())
        Rhs.K = BoolRhs::Kind::Const;
      assign(E, Tgt, std::move(Rhs));
      return;
    }
    if (R.RetSlots[Slot]) {
      Tuple[Slot] = Lhs;
      instantiateRule(E, R, NParams, Lhs, Slot + 1, Tuple);
      return;
    }
    for (int V : VarsOfType[Types[Slot]]) {
      if (V == Lhs)
        continue; // The result variable's facts come from ret slots.
      Tuple[Slot] = V;
      instantiateRule(E, R, NParams, Lhs, Slot + 1, Tuple);
    }
  }

  const DerivedAbstraction &Abs;
  const wp::InstanceTemplates &T;
  const cj::CFGMethod &M;
  DiagnosticEngine &Diags;
  BooleanProgram Out;
  /// Per KeyNames index: the component variable's part, or -1.
  std::vector<int> PartOf;
  /// Per slot type id: the component variables of that type.
  std::vector<std::vector<int>> VarsOfType;
  /// Per variable: its family arguments as KeyNames indices.
  std::vector<std::array<int, MaxSlots>> ArgIdx;
  /// Per variable: already assigned on the edge being lowered.
  std::vector<char> AssignedOnEdge;
  /// The call environment of the component call being lowered.
  std::vector<int> Env;
};

} // namespace

BooleanProgram bp::buildBooleanProgram(const DerivedAbstraction &Abs,
                                       const cj::CFGMethod &M,
                                       DiagnosticEngine &Diags) {
  return Builder(Abs, M, Diags, nullptr).run();
}

BooleanProgram
bp::buildBooleanProgram(const DerivedAbstraction &Abs, const cj::CFGMethod &M,
                        DiagnosticEngine &Diags,
                        const std::vector<std::vector<std::string>> &Parts) {
  return Builder(Abs, M, Diags, &Parts).run();
}
