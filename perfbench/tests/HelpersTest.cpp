//===----------------------------------------------------------------------===//
//
// Tests of the benchmark's own helpers: the order statistics against
// hand-computed answers (the quartiles against what Python's
// statistics.quantiles(n=4) prints), the stream-row bookkeeping behind
// verdict_p*_ms and shard.idle_tail_ms, and a round trip through the
// Chrome trace writer.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "StreamClock.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

TEST(StatsTest, PercentileInterpolatesBetweenClosestRanks) {
  // rank = p/100 * (n-1): p50 of 4 values sits halfway between 2 and 3,
  // p90 at 0.7 of the way from 3 to 4.
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 90), 3.7);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_DOUBLE_EQ(percentile({10}, 90), 10);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(StatsTest, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  struct Case {
    std::vector<double> V;
    double Q1, Q2, Q3;
  };
  const Case Cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8}, 2.25, 4.5, 6.75},
      {{1, 2, 3, 4, 5}, 1.5, 3.0, 4.5},
      {{1, 3}, 0.5, 2.0, 3.5},
      {{5, 1, 4, 2, 3, 9, 7}, 2.0, 4.0, 7.0},
  };
  for (const Case &C : Cases) {
    const Quartiles Q = quartiles(C.V);
    EXPECT_DOUBLE_EQ(Q.Q1, C.Q1);
    EXPECT_DOUBLE_EQ(Q.Q2, C.Q2);
    EXPECT_DOUBLE_EQ(Q.Q3, C.Q3);
  }
  const Quartiles One = quartiles({7});
  EXPECT_DOUBLE_EQ(One.Q1, 7);
  EXPECT_DOUBLE_EQ(One.Q3, 7);
}

namespace {

std::string summaryRow(const std::string &Client) {
  return "SHARD_JSONL {\"client\":\"" + Client +
         "\",\"methods\":1,\"checks\":2,\"flagged\":0,\"degraded\":false}";
}

} // namespace

TEST(StreamClockTest, TimestampsOnlyClientSummaryRows) {
  StreamClock S;
  S.start();
  S.onLine("SHARD_JSONL {\"client\":\"a\",\"method\":\"A::main\",\"checks\":2}",
           5);
  S.onLine(summaryRow("a"), 10);
  S.onLine("not a stream row", 12);
  S.onLine("SHARD_JSONL {\"client\":\"b\",\"status\":\"crashed\",\"attempts\":2}",
           15);
  S.onLine(summaryRow("c"), 20);
  EXPECT_EQ(S.verdictMicros(), (std::vector<double>{10, 20}));
  EXPECT_EQ(S.verdictClients(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(S.crashed(), 1u);
  EXPECT_DOUBLE_EQ(S.firstVerdictMicros(), 10);
}

TEST(StreamClockTest, IdleTailStartsWhenFewerClientsThanShardsRemain) {
  StreamClock S;
  S.start();
  for (int I = 1; I <= 6; ++I)
    S.onLine(summaryRow("c" + std::to_string(I)), 10.0 * I);
  // Six clients on four shards: after the third verdict three remain,
  // fewer than four, so the tail runs from t=30 to t=60.
  EXPECT_DOUBLE_EQ(S.idleTailMicros(4, 6), 30);
  // One shard is never idle before the last verdict.
  EXPECT_DOUBLE_EQ(S.idleTailMicros(1, 6), 0);
  // Fewer clients than shards: idle from the first verdict.
  EXPECT_DOUBLE_EQ(S.idleTailMicros(8, 6), 50);
  S.start();
  EXPECT_DOUBLE_EQ(S.idleTailMicros(4, 6), 0);
  EXPECT_TRUE(S.verdictMicros().empty());
}

TEST(StreamClockTest, StreamWritesAreSplitIntoLinesAndCounted) {
  StreamClock S;
  std::ostream OS(&S);
  S.start();
  const std::string Row = summaryRow("gen-0007");
  OS << Row.substr(0, 20) << std::flush;
  EXPECT_TRUE(S.verdictMicros().empty()); // The row is not complete yet.
  OS << Row.substr(20) << "\n" << std::flush;
  OS << "SHARD_JSONL {\"client\":\"x\",\"method\":\"X::m\"}\n";
  ASSERT_EQ(S.verdictMicros().size(), 1u);
  EXPECT_EQ(S.verdictClients()[0], "gen-0007");
  EXPECT_GE(S.verdictMicros()[0], 0);
  EXPECT_EQ(S.bytes(),
            Row.size() + 1 +
                std::string("SHARD_JSONL {\"client\":\"x\",\"method\":"
                            "\"X::m\"}\n")
                    .size());
}

namespace {

/// A minimal JSON reader, enough for the trace writer's output.
struct Json {
  enum Kind { Null, Num, Str, Arr, Obj } K = Null;
  double N = 0;
  std::string S;
  std::vector<Json> A;
  std::map<std::string, Json> O;

  const Json &operator[](const std::string &Key) const { return O.at(Key); }
};

struct Reader {
  const std::string &T;
  size_t P = 0;

  void ws() {
    while (P < T.size() && std::isspace(static_cast<unsigned char>(T[P])))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P < T.size() && T[P] == C) {
      ++P;
      return true;
    }
    return false;
  }
  std::string str() {
    std::string Out;
    EXPECT_TRUE(eat('"'));
    while (P < T.size() && T[P] != '"') {
      if (T[P] == '\\') {
        ++P;
        if (T[P] == 'u') {
          Out += static_cast<char>(std::strtol(T.substr(P + 1, 4).c_str(),
                                               nullptr, 16));
          P += 5;
          continue;
        }
      }
      Out += T[P++];
    }
    ++P;
    return Out;
  }
  Json value() {
    Json V;
    ws();
    if (T[P] == '{') {
      V.K = Json::Obj;
      ++P;
      if (!eat('}')) {
        do {
          std::string Key = str();
          EXPECT_TRUE(eat(':'));
          V.O[Key] = value();
        } while (eat(','));
        EXPECT_TRUE(eat('}'));
      }
    } else if (T[P] == '[') {
      V.K = Json::Arr;
      ++P;
      if (!eat(']')) {
        do
          V.A.push_back(value());
        while (eat(','));
        EXPECT_TRUE(eat(']'));
      }
    } else if (T[P] == '"') {
      V.K = Json::Str;
      V.S = str();
    } else {
      V.K = Json::Num;
      char *End = nullptr;
      V.N = std::strtod(T.c_str() + P, &End);
      P = End - T.c_str();
    }
    return V;
  }
};

} // namespace

TEST(TraceTest, ChromeTraceRoundTrip) {
  Tracer T;
  {
    ScopedSpan Outer(T, "core.certify", "real", 3);
    ScopedSpan Inner(T, "boolprog.build", "probe", 3);
  }
  Span Batch;
  Batch.Name = "shard \"batch\"\n";
  Batch.Cat = "shard";
  Batch.StartUs = 1000.25;
  Batch.EndUs = 2500.5;
  T.add(Batch);

  std::ostringstream OS;
  writeChromeTrace(OS, T.spans());
  const std::string Text = OS.str();
  Reader R{Text};
  const Json Root = R.value();
  const Json &Events = Root["traceEvents"];
  ASSERT_EQ(Events.A.size(), T.spans().size());
  for (size_t I = 0; I != Events.A.size(); ++I) {
    const Json &E = Events.A[I];
    const Span &S = T.spans()[I];
    EXPECT_EQ(E["name"].S, S.Name);
    EXPECT_EQ(E["cat"].S, S.Cat);
    EXPECT_EQ(E["ph"].S, "X");
    EXPECT_NEAR(E["ts"].N, S.StartUs, 1e-3);
    EXPECT_NEAR(E["dur"].N, S.micros(), 1e-3);
    EXPECT_EQ(E["args"]["id"].N, I);
    EXPECT_EQ(E["args"]["parent"].N, S.Parent);
    EXPECT_EQ(E["args"]["client"].N, S.Client);
  }
  // Nesting: the inner span's parent is the outer one, whose own
  // parent is none; an added span keeps the parent it was given.
  EXPECT_EQ(T.spans()[0].Parent, -1);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.spans()[2].Parent, -1);
  EXPECT_LE(T.spans()[0].StartUs, T.spans()[1].StartUs);
  EXPECT_GE(T.spans()[0].EndUs, T.spans()[1].EndUs);
}
