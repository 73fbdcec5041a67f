//===----------------------------------------------------------------------===//
// Pins the boolean-program builder's output: variable order, display
// names, family/argument records, per-edge assignments, and checks of
// every build kind (see BuildGolden.h) must match the digests in
// BuildGolden.txt byte for byte. Certificates serialize these programs,
// so this is what keeps certificate bytes stable across builder changes.
// The interproc renderings pin the IFDS engine the same way: report,
// witnesses, tabulation counters and certificate bytes.
//===----------------------------------------------------------------------===//

#include "BuildGolden.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

using namespace canvas;

TEST(BuildGoldenTest, BooleanProgramsMatchGolden) {
  std::ifstream In(CANVAS_BUILD_GOLDEN);
  ASSERT_TRUE(In.good()) << "cannot read " << CANVAS_BUILD_GOLDEN;
  std::vector<std::string> Expected;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Expected.push_back(Line);

  const std::string Dir = ::testing::TempDir() + "/build-golden-" +
                          std::to_string(::getpid());
  std::string Error;
  std::vector<golden::Entry> Entries = golden::collect(Dir, Error);
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Entries.size(), Expected.size());

  unsigned Mismatches = 0;
  for (size_t I = 0; I != Entries.size(); ++I) {
    const std::string Got = golden::digestLine(Entries[I]);
    if (Got == Expected[I])
      continue;
    // Print the first few renderings in full; the rest as digests.
    if (++Mismatches <= 3)
      ADD_FAILURE() << "expected: " << Expected[I] << "\ngot:      " << Got
                    << "\n"
                    << Entries[I].Text;
    else
      ADD_FAILURE() << "expected: " << Expected[I] << "\ngot:      " << Got;
  }
  EXPECT_EQ(Mismatches, 0u);
}
