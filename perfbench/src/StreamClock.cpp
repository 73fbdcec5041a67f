#include "StreamClock.h"

#include <algorithm>

using namespace perfbench;

void StreamClock::start() {
  Partial.clear();
  Verdicts.clear();
  Clients.clear();
  Crashed = 0;
  Bytes = 0;
  T0 = std::chrono::steady_clock::now();
}

void StreamClock::onLine(std::string_view Line, double AtMicros) {
  Bytes += Line.size() + 1;
  if (Line.rfind("SHARD_JSONL {", 0) != 0)
    return;
  if (Line.find("\"status\":\"crashed\"") != std::string_view::npos)
    ++Crashed;
  else if (Line.find("\"methods\":") != std::string_view::npos) {
    Verdicts.push_back(AtMicros);
    const std::string_view Key = "\"client\":\"";
    const size_t Begin = Line.find(Key);
    const size_t End = Begin == std::string_view::npos
                           ? Begin
                           : Line.find('"', Begin + Key.size());
    Clients.emplace_back(End == std::string_view::npos
                             ? std::string_view()
                             : Line.substr(Begin + Key.size(),
                                           End - Begin - Key.size()));
  }
}

double StreamClock::firstVerdictMicros() const {
  return Verdicts.empty() ? 0 : Verdicts.front();
}

double StreamClock::idleTailMicros(unsigned Shards, size_t BatchSize) const {
  if (Verdicts.empty())
    return 0;
  // After the k-th verdict (1-based) N - k clients are outstanding; the
  // first k with N - k < Shards is N - Shards + 1.
  const size_t N = BatchSize;
  const size_t K = N >= Shards ? N - Shards + 1 : 1;
  const size_t Idx = std::min(K, Verdicts.size()) - 1;
  return Verdicts.back() - Verdicts[Idx];
}

void StreamClock::append(const char *S, size_t N) {
  for (size_t I = 0; I != N; ++I) {
    if (S[I] != '\n') {
      Partial.push_back(S[I]);
      continue;
    }
    const double At = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
    onLine(Partial, At);
    Partial.clear();
  }
}

int StreamClock::overflow(int C) {
  if (C != traits_type::eof()) {
    const char Ch = static_cast<char>(C);
    append(&Ch, 1);
  }
  return traits_type::not_eof(C);
}

std::streamsize StreamClock::xsputn(const char *S, std::streamsize N) {
  append(S, static_cast<size_t>(N));
  return N;
}
