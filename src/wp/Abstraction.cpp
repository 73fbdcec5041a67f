#include "wp/Abstraction.h"

#include "logic/CongruenceClosure.h"

#include <cassert>

using namespace canvas;
using namespace canvas::wp;

std::string PredicateFamily::str() const {
  std::string Out = DisplayName + "(";
  for (unsigned I = 0; I != arity(); ++I) {
    if (I)
      Out += ", ";
    Out += slotName(I) + ":" + VarTypes[I];
  }
  Out += ") := " + conjunctionStr(Body);
  return Out;
}

std::string PredApp::str(const std::vector<PredicateFamily> &Families) const {
  assert(Family >= 0 && static_cast<size_t>(Family) < Families.size());
  std::string Out = Families[Family].DisplayName + "(";
  for (size_t I = 0; I != Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I];
  }
  Out += ")";
  return Out;
}

PredApp UpdateRule::target() const {
  PredApp App;
  App.Family = Family;
  for (size_t I = 0; I != RetSlots.size(); ++I)
    App.Args.push_back(RetSlots[I] ? "ret" : "$q" + std::to_string(I));
  return App;
}

std::string
UpdateRule::str(const std::vector<PredicateFamily> &Families) const {
  std::string Out = target().str(Families) + " := ";
  if (ConstantTrue)
    Out += "1";
  if (Sources.empty() && !ConstantTrue)
    Out += "0";
  for (size_t I = 0; I != Sources.size(); ++I) {
    if (I || ConstantTrue)
      Out += " || ";
    Out += Sources[I].str(Families);
  }
  return Out;
}

std::string
MethodAbstraction::str(const std::vector<PredicateFamily> &Families) const {
  std::string Out = ClassName + "::" + MethodName + "(";
  for (size_t I = 0; I != Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Params[I].first + ":" + Params[I].second;
  }
  Out += ")";
  if (ReturnsValue)
    Out += " -> " + ReturnType;
  Out += "\n";
  for (const auto &[App, Loc] : RequiresFalse)
    Out += "  requires !" + App.str(Families) + "\n";
  for (const UpdateRule &R : Rules) {
    if (R.IsIdentity)
      continue;
    Out += "  " + R.str(Families) + "\n";
  }
  return Out;
}

const MethodAbstraction *
DerivedAbstraction::findMethod(const std::string &ClassName,
                               const std::string &MethodName) const {
  for (const MethodAbstraction &M : Methods)
    if (M.ClassName == ClassName && M.MethodName == MethodName)
      return &M;
  return nullptr;
}

std::string DerivedAbstraction::str() const {
  std::string Out = "Instrumentation predicate families:\n";
  for (const PredicateFamily &F : Families)
    Out += "  " + F.str() + "\n";
  Out += "\nMethod abstractions:\n";
  for (const MethodAbstraction &M : Methods)
    Out += M.str(Families);
  return Out;
}

//===----------------------------------------------------------------------===//
// Instantiation
//===----------------------------------------------------------------------===//

static InstResult finishInstantiation(Conjunction &Out) {
  if (!normalizeConjunction(Out))
    return InstResult::False;
  if (!conjunctionConsistent(Out))
    return InstResult::False;
  if (Out.empty())
    return InstResult::True;
  return InstResult::Conj;
}

InstResult wp::instantiateFamily(const PredicateFamily &F,
                                 const std::vector<std::string> &Args,
                                 const std::vector<std::string> &ArgTypes,
                                 Conjunction &Out) {
  assert(Args.size() == F.arity() && ArgTypes.size() == F.arity() &&
         "family instantiated with wrong arity");
  Out.clear();
  for (const Literal &L : F.Body) {
    auto SubstRoot = [&](const Path &P) {
      for (unsigned I = 0; I != F.arity(); ++I)
        if (P.rootKind() == Path::RootKind::Var &&
            P.rootName() == PredicateFamily::slotName(I))
          return P.withRoot(Args[I], ArgTypes[I]);
      return P;
    };
    Out.emplace_back(L.Negated, SubstRoot(L.Lhs), SubstRoot(L.Rhs));
  }
  return finishInstantiation(Out);
}
