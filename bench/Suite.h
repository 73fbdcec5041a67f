//===----------------------------------------------------------------------===//
///
/// \file
/// The CMP benchmark suite used by the Section 7 reproduction: CJ
/// clients modeled on the paper's figures plus contrived "difficult"
/// instances, each annotated with the number of call sites that really
/// can violate (established independently by the concrete reference
/// executor).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BENCH_SUITE_H
#define CANVAS_BENCH_SUITE_H

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace canvas {
namespace bench {

/// Warm-up + min-of-N timing for the BENCH_JSON emitters: runs \p Body
/// \p Warmup times untimed (first-touch page faults, lazily built
/// statics, cold i-cache), then \p Reps timed repetitions, returning
/// the minimum in microseconds. Every line that lands in a BENCH_*.json
/// capture must go through this — a single cold run can read 3-4× the
/// steady-state cost, which makes cross-capture comparisons (and the
/// CI regression gate in tools/ci.sh) meaningless.
template <typename Fn>
inline double minOfN(Fn &&Body, int Warmup = 1, int Reps = 5) {
  for (int I = 0; I != Warmup; ++I)
    Body();
  double Best = 1e30;
  for (int I = 0; I != Reps; ++I) {
    const auto T0 = std::chrono::steady_clock::now();
    Body();
    const auto T1 = std::chrono::steady_clock::now();
    Best = std::min(
        Best, std::chrono::duration<double, std::micro>(T1 - T0).count());
  }
  return Best;
}

struct BenchClient {
  const char *Name;
  const char *Source;
  /// True when the client stores component references only in locals
  /// and parameters (SCMP scope).
  bool SCMPScope;
};

inline const std::vector<BenchClient> &cmpSuite() {
  static const std::vector<BenchClient> Suite = {
      {"fig3", R"(
        class Fig3 {
          void main() {
            Set v = new Set();
            Iterator i1 = v.iterator();
            Iterator i2 = v.iterator();
            Iterator i3 = i1;
            i1.next();
            i1.remove();
            if (*) { i2.next(); }
            if (*) { i3.next(); }
            v.add();
            if (*) { i1.next(); }
          }
        }
      )", true},

      {"versioned-loop", R"(
        class Loop {
          void main() {
            Set s = new Set();
            while (*) {
              s.add();
              Iterator i = s.iterator();
              while (*) { i.next(); }
            }
          }
        }
      )", true},

      {"make-buggy", R"(
        class Make {
          void main() {
            Set worklist = new Set();
            initializeWorklist(worklist);
            Iterator i = worklist.iterator();
            while (*) {
              i.next();
              if (*) { processItem(worklist); }
            }
          }
          void initializeWorklist(Set w) { w.add(); }
          void processItem(Set w) { doSubproblem(w); }
          void doSubproblem(Set w) { if (*) { w.add(); } }
        }
      )", true},

      {"make-fixed", R"(
        class Make {
          void main() {
            Set worklist = new Set();
            initializeWorklist(worklist);
            while (*) {
              Iterator i = worklist.iterator();
              while (*) { i.next(); }
              grow(worklist);
            }
          }
          void initializeWorklist(Set w) { w.add(); }
          void grow(Set w) { if (*) { w.add(); } }
        }
      )", true},

      {"copy-chains", R"(
        class Copies {
          void main() {
            Set s = new Set();
            Iterator a = s.iterator();
            Iterator b = a;
            Iterator c = b;
            c.remove();
            a.next();
            b.next();
            Iterator d = s.iterator();
            c.remove();
            d.next();
          }
        }
      )", true},

      {"two-collections", R"(
        class Two {
          void main() {
            Set s = new Set();
            Set t = new Set();
            Iterator i = s.iterator();
            Iterator j = t.iterator();
            while (*) {
              t.add();
              j = t.iterator();
              j.next();
            }
            i.next();
          }
        }
      )", true},

      {"remove-heavy", R"(
        class Removes {
          void main() {
            Set s = new Set();
            Iterator i = s.iterator();
            Iterator j = s.iterator();
            while (*) { i.remove(); i.next(); }
            j.next();
          }
        }
      )", true},

      {"nested-fresh", R"(
        class Nested {
          void main() {
            Set s = new Set();
            while (*) {
              Iterator i = s.iterator();
              while (*) {
                i.next();
                if (*) { i.remove(); }
              }
              s.add();
            }
          }
        }
      )", true},

      {"branchy", R"(
        class Branchy {
          void main() {
            Set s = new Set();
            Iterator i = s.iterator();
            if (*) { s.add(); } else { i.next(); }
            i.next();
          }
        }
      )", true},

      {"interleaved", R"(
        class Interleaved {
          void main() {
            Set s = new Set();
            Set t = new Set();
            Iterator i = s.iterator();
            t.add();
            i.next();
            Iterator j = t.iterator();
            s.add();
            j.next();
            i.next();
          }
        }
      )", true},

      {"reuse-after-refresh", R"(
        class Refresh {
          void main() {
            Set s = new Set();
            Iterator i = s.iterator();
            while (*) {
              s.add();
              i = s.iterator();
              i.next();
            }
            i.next();
          }
        }
      )", true},

      // The relational-engine stress client: two collections, three
      // iterators, nested loops and branches. The relational TVLA
      // configuration accumulates many structures per point and
      // revisits loop heads often, which is exactly the workload the
      // structure interner and the (StructId, edge) transfer cache are
      // built for.
      {"grinder", R"(
        class Grinder {
          void main() {
            Set s = new Set();
            Set t = new Set();
            Iterator i = s.iterator();
            Iterator j = t.iterator();
            Iterator k = s.iterator();
            while (*) {
              i.next();
              if (*) { s.add(); i = s.iterator(); }
              if (*) { j.next(); } else { t.add(); j = t.iterator(); }
              while (*) { k.next(); if (*) { k.remove(); } }
              if (*) { k = s.iterator(); }
            }
            i.next();
            j.next();
            k.next();
          }
        }
      )", true},

      // Four independent Set/Iterator pipelines: the Stage-0 slicer
      // splits main() into four slices, so SCMPIntra runs on four small
      // boolean programs instead of one large one.
      {"four-pipelines", R"(
        class Pipelines {
          void main() {
            Set a = new Set();
            Iterator ia = a.iterator();
            Set b = new Set();
            Iterator ib = b.iterator();
            Set c = new Set();
            Iterator ic = c.iterator();
            Set d = new Set();
            Iterator id = d.iterator();
            while (*) { ia.next(); }
            ib.next();
            if (*) { b.add(); }
            ib.next();
            ic.next();
            ic.remove();
            ic.next();
            id.next();
            if (*) { d.add(); }
            if (*) { id.next(); }
          }
        }
      )", true},
  };
  return Suite;
}

/// Aliasing-heavy test clients: every client moves a component
/// reference through the heap (a client-object field), so the Stage-0
/// slicer's heap gate keeps each method in a single slice although its
/// pipelines never interfere.
inline const std::vector<BenchClient> &aliasSuite() {
  static const std::vector<BenchClient> Suite = {
      // Six independent Set/Iterator pipelines; one of them parks its
      // Set in a heap field. That one store poisons the whole method
      // (HasHeapComponentRefs).
      {"heap-pipelines", R"(
        class Stash {
          Set s;
        }
        class HeapPipes {
          void main() {
            Stash st = new Stash();
            Set s1 = new Set();
            st.s = s1;
            Iterator i1 = s1.iterator();
            Set s2 = new Set();
            Iterator i2 = s2.iterator();
            Set s3 = new Set();
            Iterator i3 = s3.iterator();
            Set s4 = new Set();
            Iterator i4 = s4.iterator();
            Set s5 = new Set();
            Iterator i5 = s5.iterator();
            Set s6 = new Set();
            Iterator i6 = s6.iterator();
            while (*) { i1.next(); if (*) { i1.remove(); } }
            while (*) { i2.next(); if (*) { s2.add(); i2 = s2.iterator(); } }
            i3.next();
            i3.remove();
            i3.next();
            i4.next();
            if (*) { s4.add(); }
            if (*) { i4.next(); }
            while (*) { i5.next(); }
            i6.next();
            if (*) { s6.add(); }
            i6.next();
          }
        }
      )", false},

      // Two stashes, each holding its own Set: both allocation sites
      // are heap-escaping, yet the two pipelines never interfere.
      {"stashed-pairs", R"(
        class Stash {
          Set s;
        }
        class Pairs {
          void main() {
            Stash u = new Stash();
            Stash v = new Stash();
            Set s1 = new Set();
            Set s2 = new Set();
            u.s = s1;
            v.s = s2;
            Iterator i1 = s1.iterator();
            Iterator i2 = s2.iterator();
            while (*) { i1.next(); if (*) { i1.remove(); } }
            i2.next();
            if (*) { s2.add(); }
            if (*) { i2.next(); }
          }
        }
      )", false},
  };
  return Suite;
}

/// One method with \p K independent Set pipelines of \p M iterators
/// each. Every iterator advances in its pipeline's loop, where a
/// mutation refreshes the first iterator and leaves the rest stale. No
/// action relates two pipelines, so Stage 0 splits the method into K
/// slices: the unpartitioned boolean program instantiates every
/// predicate over every pair of pipelines, the partitioned one only
/// within each pipeline.
inline std::string pipelinesClient(unsigned K, unsigned M) {
  std::string Src = "class Pipelines { void main() {\n";
  for (unsigned P = 0; P != K; ++P) {
    const std::string S = "s" + std::to_string(P);
    auto It = [&](unsigned I) {
      return "i" + std::to_string(P) + "n" + std::to_string(I);
    };
    Src += "  Set " + S + " = new Set();\n";
    for (unsigned I = 0; I != M; ++I)
      Src += "  Iterator " + It(I) + " = " + S + ".iterator();\n";
    Src += "  while (*) {\n";
    for (unsigned I = 0; I != M; ++I)
      Src += "    " + It(I) + ".next();\n";
    Src += "    if (*) { " + S + ".add(); " + It(0) + " = " + S +
           ".iterator(); }\n  }\n";
  }
  return Src + "} }\n";
}

} // namespace bench
} // namespace canvas

#endif // CANVAS_BENCH_SUITE_H
