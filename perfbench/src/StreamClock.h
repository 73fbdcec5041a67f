//===----------------------------------------------------------------------===//
///
/// \file
/// The stream sink handed to shard::runSharded. The shard driver writes one
/// SHARD_JSONL summary row per client (the row that carries "methods":)
/// the moment that client's result lands; this sink timestamps each such
/// row against the start of the batch, which is what verdict_p50_ms,
/// verdict_p90_ms and the shard.* per-layer metrics are computed from.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STREAMCLOCK_H
#define PERFBENCH_STREAMCLOCK_H

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class StreamClock : public std::streambuf {
public:
  /// Clears the previous batch and starts its clock.
  void start();

  /// Books one complete stream line (without its newline) that arrived
  /// \p AtMicros after start(). The streambuf calls this with the
  /// steady clock; tests call it directly.
  void onLine(std::string_view Line, double AtMicros);

  /// Arrival time of each client summary row, in arrival order.
  const std::vector<double> &verdictMicros() const { return Verdicts; }
  /// The client named by each of those rows.
  const std::vector<std::string> &verdictClients() const { return Clients; }
  /// Clients the shard driver reported as crashed (a failed operation).
  unsigned crashed() const { return Crashed; }
  /// Bytes streamed in this batch, every row included.
  uint64_t bytes() const { return Bytes; }

  double firstVerdictMicros() const;
  /// From the verdict that leaves fewer clients outstanding than
  /// \p Shards (of \p BatchSize clients) to the last verdict: the
  /// stretch in which some shard has no work left.
  double idleTailMicros(unsigned Shards, size_t BatchSize) const;

protected:
  int overflow(int C) override;
  std::streamsize xsputn(const char *S, std::streamsize N) override;

private:
  void append(const char *S, size_t N);

  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  std::string Partial;
  std::vector<double> Verdicts;
  std::vector<std::string> Clients;
  unsigned Crashed = 0;
  uint64_t Bytes = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STREAMCLOCK_H
