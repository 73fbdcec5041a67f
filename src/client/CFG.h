//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow graphs for CJ client methods, with statement actions
/// already classified against a component specification: component
/// allocations and calls, reference copies, havoc (unknown values), and
/// client-method calls for the interprocedural analysis of Section 8.
///
/// Component references that pass through the heap (object fields) are
/// outside SCMP's scope (Section 4's restriction); the builder lowers
/// them conservatively (Havoc / OpaqueEffect) and records the fact in
/// CFGMethod::HasHeapComponentRefs so certifiers can report reduced
/// precision or switch to the first-order analysis of Section 5.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CLIENT_CFG_H
#define CANVAS_CLIENT_CFG_H

#include "client/AST.h"
#include "easl/AST.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace canvas {
namespace cj {

/// One primitive CFG action. All variables are method-local names; the
/// pseudo-variable "$ret" holds a component-typed return value.
struct Action {
  enum class Kind {
    /// No state change (branch/join edges).
    Nop,
    /// Lhs = new Callee(Args) where Callee is a component class.
    AllocComp,
    /// [Lhs =] Recv.Callee(Args) where Recv is a component-typed local.
    CompCall,
    /// Lhs = Args[0], both component-typed locals.
    Copy,
    /// Lhs becomes an unknown component reference (null, heap load,
    /// opaque call result, ...).
    Havoc,
    /// [Lhs =] call to a client method (interprocedural edge).
    ClientCall,
    /// A call whose effect on component state is unknown (e.g. a
    /// component method invoked on a heap-resident receiver): clobbers
    /// every component fact.
    OpaqueEffect,
  };

  Kind K = Kind::Nop;
  std::string Lhs;                ///< Empty when no component-typed result.
  std::string Recv;               ///< CompCall receiver variable.
  std::string Callee;             ///< Method or class name.
  /// Component-typed argument variables; "" marks an unknown argument.
  std::vector<std::string> Args;
  /// Resolved target for ClientCall.
  const CClass *CalleeClass = nullptr;
  const CMethod *CalleeMethod = nullptr;
  SourceLoc Loc;

  std::string str() const;
};

struct CFGEdge {
  int From = 0;
  int To = 0;
  Action Act;
};

/// The CFG of one client method plus its component-typed variable set
/// (the paper's I and V sets, per type).
struct CFGMethod {
  const CClass *Class = nullptr;
  const CMethod *Method = nullptr;
  int Entry = 0;
  int Exit = 0;
  int NumNodes = 0;
  std::vector<CFGEdge> Edges;
  /// (name, component type) for every component-typed local, parameter,
  /// and "$ret" when the method returns a component reference.
  std::vector<std::pair<std::string, std::string>> CompVars;
  bool HasHeapComponentRefs = false;

  std::string name() const {
    return (Class ? Class->Name : "?") + "::" +
           (Method ? Method->Name : "?");
  }
  std::string str() const;
};

/// All client-method CFGs of a program against one component spec.
struct ClientCFG {
  const Program *Prog = nullptr;
  std::vector<CFGMethod> Methods;

  const CFGMethod *findMethod(const std::string &ClassName,
                              const std::string &MethodName) const;
  const CFGMethod *findMethod(const CMethod *M) const;
  /// The CFG of the program's main method, or null.
  const CFGMethod *mainCFG() const;
};

/// Builds CFGs for every method of \p P, classifying statements against
/// \p Spec. Errors (unknown methods, arity/type mismatches on component
/// calls) go to \p Diags.
ClientCFG buildCFG(const Program &P, const easl::Spec &Spec,
                   DiagnosticEngine &Diags);

} // namespace cj
} // namespace canvas

#endif // CANVAS_CLIENT_CFG_H
