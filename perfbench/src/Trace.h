//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are recorded from the
/// benchmark's own files, around its calls into each layer: name,
/// category, start, end, the enclosing span, and the client they belong
/// to. They stay in memory and are written once, at exit, as Chrome
/// trace-event JSON (viewable in any trace viewer).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  /// "setup", "real" (the certification path itself), "probe" (an
  /// isolated call of one layer's entry point) or "shard".
  std::string Cat;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1; ///< Index of the enclosing span; -1 at top level.
  int Client = -1; ///< Client id; -1 when not per client.

  double micros() const { return EndUs - StartUs; }
};

class Tracer {
public:
  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string Name, std::string Cat, int Client = -1);
  void end(int Id);
  /// Records a finished span whose times and parent were taken
  /// elsewhere.
  int add(Span S);
  /// Microseconds since the tracer was created.
  double now() const;

  const std::vector<Span> &spans() const { return Spans; }

private:
  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Times one scope as a span.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, std::string Cat, int Client = -1)
      : T(T), Id(T.begin(std::move(Name), std::move(Cat), Client)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span early and returns its duration in microseconds.
  double close() {
    if (!Closed) {
      T.end(Id);
      Closed = true;
    }
    return T.spans()[Id].micros();
  }

private:
  Tracer &T;
  int Id;
  bool Closed = false;
};

/// \p S as a JSON string literal, quotes included.
std::string jsonString(const std::string &S);

/// Writes \p Spans as Chrome trace-event JSON: one complete ("X") event
/// per span, with its index, parent and client under "args".
void writeChromeTrace(std::ostream &OS, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
