//===----------------------------------------------------------------------===//
// Tests for instance slicing: independent pipelines split, copies and
// cross-variable calls merge, parameters group together, and the Stage-0
// gates force a single slice.
//===----------------------------------------------------------------------===//

#include "dataflow/Slicing.h"

#include "ClientHelper.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::dataflow;
using canvas::dftest::Client;

namespace {

/// Slices every component variable of one method.
struct SliceRun {
  cj::CFGMethod M;
  std::vector<std::string> Vars;
  SliceResult R;

  SliceRun(Client &C, const char *ClassName, const char *MethodName,
           bool HasUninitUses = false, bool AbsReadsRetSources = false)
      : M(C.method(ClassName, MethodName)) {
    for (const auto &NameAndType : M.CompVars)
      Vars.push_back(NameAndType.first);
    R = computeSlices(M, Vars, HasUninitUses, AbsReadsRetSources);
  }

  /// Index of the slice containing \p V, or -1.
  int sliceOf(const char *V) const {
    for (size_t S = 0; S != R.Slices.size(); ++S)
      for (const std::string &Member : R.Slices[S])
        if (Member == V)
          return static_cast<int>(S);
    return -1;
  }
};

const char *TwoPipelines = R"(
  class C {
    void main() {
      Set s = new Set();
      Iterator i = s.iterator();
      Set t = new Set();
      Iterator j = t.iterator();
      i.next();
      j.next();
    }
  }
)";

TEST(SlicingTest, IndependentPipelinesSplit) {
  Client C(TwoPipelines);
  SliceRun S(C, "C", "main");
  ASSERT_EQ(S.R.Slices.size(), 2u);
  EXPECT_EQ(S.R.ForcedSingleReason, nullptr);
  EXPECT_EQ(S.sliceOf("s"), S.sliceOf("i"));
  EXPECT_EQ(S.sliceOf("t"), S.sliceOf("j"));
  EXPECT_NE(S.sliceOf("s"), S.sliceOf("t"));
}

TEST(SlicingTest, CopyMergesSlices) {
  Client C(R"(
    class C {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        Set t = new Set();
        Iterator j = t.iterator();
        j = i;
        j.next();
      }
    }
  )");
  SliceRun S(C, "C", "main");
  ASSERT_EQ(S.R.Slices.size(), 1u);
  EXPECT_EQ(S.R.ForcedSingleReason, nullptr);
}

TEST(SlicingTest, CrossVariableCallMergesReceiverAndArgument) {
  Client C(R"(
    class C {
      void main() {
        Factory f = new Factory();
        Widget a = f.make();
        Factory g = new Factory();
        Widget b = g.make();
        a.combine(b);
      }
    }
  )",
           easl::impSpecSource());
  SliceRun S(C, "C", "main");
  // combine(b) relates a and b, transitively joining both factories.
  ASSERT_EQ(S.R.Slices.size(), 1u);
  EXPECT_EQ(S.R.ForcedSingleReason, nullptr);
}

TEST(SlicingTest, SeparateFactoriesSplitWithoutCombine) {
  Client C(R"(
    class C {
      void main() {
        Factory f = new Factory();
        Widget a = f.make();
        Factory g = new Factory();
        Widget b = g.make();
        a.combine(a);
        b.combine(b);
      }
    }
  )",
           easl::impSpecSource());
  SliceRun S(C, "C", "main");
  ASSERT_EQ(S.R.Slices.size(), 2u);
  EXPECT_EQ(S.sliceOf("f"), S.sliceOf("a"));
  EXPECT_EQ(S.sliceOf("g"), S.sliceOf("b"));
  EXPECT_NE(S.sliceOf("a"), S.sliceOf("b"));
}

TEST(SlicingTest, ParametersShareASlice) {
  Client C(R"(
    class C {
      void helper(Set s, Set t) {
        Iterator i = s.iterator();
        Iterator j = t.iterator();
        i.next();
        j.next();
      }
    }
  )");
  SliceRun S(C, "C", "helper");
  // s and t may alias at entry, so the parameter group keeps both
  // pipelines together.
  ASSERT_EQ(S.R.Slices.size(), 1u);
  EXPECT_EQ(S.R.ForcedSingleReason, nullptr);
}

TEST(SlicingTest, UninitUsesForceSingleSlice) {
  Client C(TwoPipelines);
  SliceRun S(C, "C", "main", /*HasUninitUses=*/true);
  ASSERT_EQ(S.R.Slices.size(), 1u);
  ASSERT_NE(S.R.ForcedSingleReason, nullptr);
  EXPECT_NE(std::string(S.R.ForcedSingleReason).find("uninitialized"),
            std::string::npos);
}

TEST(SlicingTest, RetSourcesForceSingleSlice) {
  Client C(TwoPipelines);
  SliceRun S(C, "C", "main", false, /*AbsReadsRetSources=*/true);
  ASSERT_EQ(S.R.Slices.size(), 1u);
  ASSERT_NE(S.R.ForcedSingleReason, nullptr);
}

//===----------------------------------------------------------------------===//
// Table-driven coverage of every force-off gate: each row names the
// gate, the client (or flag) that trips it, and the reason fragment the
// slicer must report alongside its single slice.
//===----------------------------------------------------------------------===//

const char *HeapStoreClient = R"(
  class Holder {
    Set s;
  }
  class C {
    void main() {
      Holder h = new Holder();
      Set a = new Set();
      h.s = a;
      Iterator i = a.iterator();
      i.next();
      Set b = new Set();
      Iterator j = b.iterator();
      j.next();
    }
  }
)";

const char *HeapLoadClient = R"(
  class Holder {
    Set s;
  }
  class C {
    void main() {
      Holder h = new Holder();
      Set a = new Set();
      h.s = a;
      Set x = h.s;
      x.add();
    }
  }
)";

// "b = null" lowers to havoc(b) without any heap component reference,
// so it trips the havoc gate, not the heap gate.
const char *NullHavocClient = R"(
  class C {
    void main() {
      Set a = new Set();
      Iterator i = a.iterator();
      i.next();
      Set b = new Set();
      b = null;
      b.add();
      Set c = new Set();
      Iterator j = c.iterator();
      j.next();
    }
  }
)";

struct GateCase {
  const char *Name;
  const char *Source; ///< nullptr: the TwoPipelines client.
  bool HasUninitUses;
  bool AbsReadsRetSources;
  const char *ReasonFragment;
};

TEST(SlicingTest, EveryForceOffGateReportsItsReason) {
  const GateCase Cases[] = {
      {"uninit-uses", nullptr, true, false, "uninitialized"},
      {"ret-sources", nullptr, false, true, "ret"},
      {"heap-store", HeapStoreClient, false, false, "heap"},
      {"heap-load", HeapLoadClient, false, false, "heap"},
      {"null-havoc", NullHavocClient, false, false, "havocked"},
  };
  for (const GateCase &G : Cases) {
    Client C(G.Source ? G.Source : TwoPipelines);
    SliceRun S(C, "C", "main", G.HasUninitUses, G.AbsReadsRetSources);
    ASSERT_EQ(S.R.Slices.size(), 1u) << G.Name;
    ASSERT_NE(S.R.ForcedSingleReason, nullptr) << G.Name;
    EXPECT_NE(std::string(S.R.ForcedSingleReason).find(G.ReasonFragment),
              std::string::npos)
        << G.Name << ": " << S.R.ForcedSingleReason;
    // Forced-off still covers every variable.
    EXPECT_EQ(S.R.Slices[0].size(), S.Vars.size()) << G.Name;
  }
}

//===----------------------------------------------------------------------===//
// The "$ret" merge: the return slot joins the parameter group exactly
// when some edge assigns it.
//===----------------------------------------------------------------------===//

int sliceIn(const SliceResult &R, const char *V) {
  for (size_t S = 0; S != R.Slices.size(); ++S)
    for (const std::string &Member : R.Slices[S])
      if (Member == V)
        return static_cast<int>(S);
  return -1;
}

TEST(SlicingTest, ReturnSlotJoinsParamsWhenAssigned) {
  Client C(R"(
    class C {
      Set pick(Set s, Set t) {
        Iterator i = s.iterator();
        i.next();
        return s;
      }
    }
  )");
  SliceResult R = SliceRun(C, "C", "pick").R;
  ASSERT_EQ(R.Slices.size(), 1u);
  EXPECT_EQ(sliceIn(R, "$ret"), sliceIn(R, "s"));
}

TEST(SlicingTest, UnassignedReturnSlotStaysApartFromParams) {
  // A Set-returning method with no return statement: "$ret" is retained
  // (it is a component variable) but no action ever defines it, so it
  // must not be glued to the parameter group.
  Client C(R"(
    class C {
      Set sink(Set s, Set t) {
        Iterator i = s.iterator();
        i.next();
        t.add();
      }
    }
  )");
  SliceResult R = SliceRun(C, "C", "sink").R;
  ASSERT_NE(sliceIn(R, "$ret"), -1);
  EXPECT_NE(sliceIn(R, "$ret"), sliceIn(R, "s"));
  EXPECT_EQ(sliceIn(R, "s"), sliceIn(R, "t")); // Params still co-slice.
  EXPECT_EQ(R.Slices.size(), 2u);
}

TEST(SlicingTest, EmptyRetainedYieldsNoSlices) {
  Client C(R"(
    class C {
      void main() { }
    }
  )");
  SliceRun S(C, "C", "main");
  EXPECT_TRUE(S.Vars.empty());
  EXPECT_TRUE(S.R.Slices.empty());
}

} // namespace
