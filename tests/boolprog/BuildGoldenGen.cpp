//===----------------------------------------------------------------------===//
// Writes the golden digests BuildGoldenTest compares against:
//
//   build_golden_gen CORPUS_DIR > tests/boolprog/BuildGolden.txt
//
// With --full it prints each rendering under its key instead, for
// diffing bp::buildBooleanProgram's output between two builds.
//===----------------------------------------------------------------------===//

#include "BuildGolden.h"

#include <cstring>
#include <iostream>

using namespace canvas;

int main(int Argc, char **Argv) {
  bool Full = Argc == 3 && std::strcmp(Argv[1], "--full") == 0;
  if (Argc != 2 && !Full) {
    std::cerr << "usage: build_golden_gen [--full] CORPUS_DIR\n";
    return 2;
  }
  std::string Error;
  std::vector<golden::Entry> Entries = golden::collect(Argv[Argc - 1], Error);
  if (!Error.empty()) {
    std::cerr << Error << "\n";
    return 1;
  }
  for (const golden::Entry &E : Entries) {
    if (Full)
      std::cout << "== " << E.Key << "\n" << E.Text;
    else
      std::cout << golden::digestLine(E) << "\n";
  }
  return 0;
}
