//===----------------------------------------------------------------------===//
///
/// \file
/// Parser and semantic checker for Easl specifications.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_EASL_PARSER_H
#define CANVAS_EASL_PARSER_H

#include "easl/AST.h"
#include "support/Diagnostics.h"

#include <string_view>

namespace canvas {
namespace easl {

/// Parses an Easl component specification. Syntax errors are reported to
/// \p Diags; the returned Spec is meaningful only when
/// !Diags.hasErrors().
Spec parseSpec(std::string_view Source, DiagnosticEngine &Diags);

/// Semantic validation: unique names, known types, resolvable access
/// paths, single constructor, requires clauses at method entry (warning
/// otherwise, as the derivation of Section 4 assumes entry-only requires).
/// Returns true when no errors were reported.
bool checkSpec(const Spec &S, DiagnosticEngine &Diags);

/// Name-resolution helper for access paths inside a method body. Shared
/// by the checker and the WP engine.
class MethodScope {
public:
  MethodScope(const Spec &S, const ClassDecl &Class, const MethodDecl &Method)
      : S(S), Class(Class), Method(Method) {}

  /// How the first component of a path resolves.
  enum class RootKind { This, Param, ImplicitThisField, Unknown };

  /// Classifies \p Name and yields its declared type (the enclosing class
  /// for This, the parameter type, or the field type).
  RootKind classifyRoot(const std::string &Name, std::string &TypeOut) const;

  /// Returns the declared type of the full path, or "" (with an optional
  /// diagnostic) if any component fails to resolve.
  std::string typeOfPath(const PathExpr &P, DiagnosticEngine *Diags) const;

  const Spec &spec() const { return S; }
  const MethodDecl &method() const { return Method; }

private:
  const Spec &S;
  const ClassDecl &Class;
  const MethodDecl &Method;
};

} // namespace easl
} // namespace canvas

#endif // CANVAS_EASL_PARSER_H
