//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostic engine used by both frontends. Library code reports
/// recoverable errors here instead of throwing; callers inspect the engine
/// after a parse/analysis step.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_DIAGNOSTICS_H
#define CANVAS_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace canvas {

/// Severity of a reported diagnostic.
enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic: severity, location, and message text.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  std::string Message;

  /// Renders the diagnostic in the conventional "line:col: kind: msg" form.
  std::string str() const;
};

/// Collects diagnostics produced while parsing or analyzing one input.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Msg) {
    Diags.push_back({DiagKind::Error, Loc, std::move(Msg)});
    ++NumErrors;
  }
  void warning(SourceLoc Loc, std::string Msg) {
    Diags.push_back({DiagKind::Warning, Loc, std::move(Msg)});
  }
  void note(SourceLoc Loc, std::string Msg) {
    Diags.push_back({DiagKind::Note, Loc, std::move(Msg)});
  }

  /// Appends every diagnostic of \p O, in \p O's emission order. The
  /// certifier collects a ladder rung's diagnostics in an engine of its
  /// own and merges it only when every unit of the rung has run.
  void mergeFrom(const DiagnosticEngine &O) {
    Diags.insert(Diags.end(), O.Diags.begin(), O.Diags.end());
    NumErrors += O.NumErrors;
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders every diagnostic, one per line. Convenient for test failures
  /// and tool output.
  std::string str() const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace canvas

#endif // CANVAS_SUPPORT_DIAGNOSTICS_H
