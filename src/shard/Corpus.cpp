#include "shard/Corpus.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::shard;

namespace fs = std::filesystem;

namespace {

/// Reads the file at \p Path whole, with one read sized by fstat.
bool readWhole(const std::string &Path, std::string &Out) {
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0;
  if (Ok)
    Out.resize(static_cast<size_t>(St.st_size));
  for (size_t Got = 0; Ok && Got != Out.size();) {
    const ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    Ok = N > 0;
    Got += Ok ? static_cast<size_t>(N) : 0;
  }
  ::close(Fd);
  return Ok;
}

} // namespace

bool shard::loadCorpus(const std::string &Dir, std::vector<CorpusClient> &Out,
                       std::string &Error) {
  std::error_code EC;
  if (!fs::is_directory(Dir, EC) || EC) {
    Error = "corpus directory '" + Dir + "' does not exist";
    return false;
  }
  std::vector<fs::path> Files;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, EC)) {
    const std::string Name = DE.path().filename().string();
    if (Name.size() > 3 && Name.substr(Name.size() - 3) == ".cj")
      Files.push_back(DE.path());
  }
  if (EC) {
    Error = "cannot list corpus directory '" + Dir + "': " + EC.message();
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files) {
    CorpusClient C;
    C.Name = P.filename().string();
    C.Name = C.Name.substr(0, C.Name.size() - 3);
    C.Path = P.string();
    if (!readWhole(C.Path, C.Source)) {
      Error = "cannot read corpus client '" + C.Path + "'";
      return false;
    }
    C.Cost = C.Source.size();
    Out.push_back(std::move(C));
  }
  if (Out.empty()) {
    Error = "corpus directory '" + Dir + "' holds no .cj clients";
    return false;
  }
  return true;
}

void shard::estimateCosts(std::vector<CorpusClient> &Corpus,
                          const easl::Spec &, const wp::DerivedAbstraction &) {
  for (CorpusClient &C : Corpus)
    C.Cost = C.Source.size();
}

namespace {

/// splitmix64: deterministic, platform-independent, and good enough to
/// decorrelate the per-client streams derived from one corpus seed.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return Bound ? next() % Bound : 0; }
  bool chance(unsigned Percent) { return below(100) < Percent; }
};

/// Emits the op sequence of one set variable: iterator loops, adds,
/// branches — occasionally the classic add-then-next violation or a
/// remove-then-next misuse, so the corpus exercises flagged verdicts
/// and witness extraction, not just the happy path.
void emitSetUsage(std::string &Out, Rng &R, const std::string &Set,
                  unsigned Depth) {
  const unsigned Blocks = 1 + static_cast<unsigned>(R.below(3));
  for (unsigned B = 0; B != Blocks; ++B) {
    switch (R.below(6)) {
    case 0: // plain iterate-to-end loop
      Out += "      Iterator i" + Set + std::to_string(B) + " = " + Set +
             ".iterator();\n";
      Out += "      while (*) { i" + Set + std::to_string(B) + ".next(); }\n";
      break;
    case 1: // grow then fresh iterator (conformant)
      Out += "      " + Set + ".add();\n";
      Out += "      Iterator j" + Set + std::to_string(B) + " = " + Set +
             ".iterator();\n";
      Out += "      if (*) { j" + Set + std::to_string(B) + ".next(); }\n";
      break;
    case 2: { // two concurrent iterators, one removal
      const std::string A = "a" + Set + std::to_string(B);
      const std::string C = "b" + Set + std::to_string(B);
      Out += "      Iterator " + A + " = " + Set + ".iterator();\n";
      Out += "      Iterator " + C + " = " + Set + ".iterator();\n";
      Out += "      " + A + ".next();\n";
      if (R.chance(40))
        Out += "      " + A + ".remove();\n";
      Out += "      if (*) { " + C + ".next(); }\n";
      break;
    }
    case 3: // the add-then-next violation
      Out += "      Iterator v" + Set + std::to_string(B) + " = " + Set +
             ".iterator();\n";
      Out += "      " + Set + ".add();\n";
      Out += "      if (*) { v" + Set + std::to_string(B) + ".next(); }\n";
      break;
    case 4: // nested loop growth with per-round iterator
      Out += "      while (*) {\n";
      Out += "        " + Set + ".add();\n";
      Out += "        Iterator n" + Set + std::to_string(B) + " = " + Set +
             ".iterator();\n";
      Out += "        while (*) { n" + Set + std::to_string(B) +
             ".next(); }\n";
      Out += "      }\n";
      break;
    default: // branchy adds
      Out += "      if (*) { " + Set + ".add(); } else { " + Set +
             ".add(); }\n";
      break;
    }
  }
  if (Depth == 0 && R.chance(25)) {
    Out += "      if (*) {\n";
    emitSetUsage(Out, R, Set, Depth + 1);
    Out += "      }\n";
  }
}

std::string generateClient(unsigned Index, Rng &R) {
  std::string Out = "class Gen" + std::to_string(Index) + " {\n";
  const unsigned Sets = 1 + static_cast<unsigned>(R.below(3));
  const bool Helpers = R.chance(35);
  Out += "  void main() {\n";
  for (unsigned S = 0; S != Sets; ++S) {
    const std::string Set = "s" + std::to_string(S);
    Out += "    Set " + Set + " = new Set();\n";
    Out += "    if (*) {\n";
    emitSetUsage(Out, R, Set, 0);
    Out += "    }\n";
    if (Helpers)
      Out += "    grow" + std::to_string(S % 2) + "(" + Set + ");\n";
  }
  Out += "  }\n";
  if (Helpers) {
    Out += "  void grow0(Set w) { if (*) { w.add(); } }\n";
    Out += "  void grow1(Set w) {\n"
           "    Iterator i = w.iterator();\n"
           "    while (*) { i.next(); }\n"
           "  }\n";
  }
  Out += "}\n";
  return Out;
}

} // namespace

bool shard::generateCorpus(const std::string &Dir, unsigned Count,
                           uint64_t Seed, std::string &Error) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create corpus directory '" + Dir + "': " + EC.message();
    return false;
  }
  for (unsigned I = 0; I != Count; ++I) {
    // Each client draws from its own stream so inserting or dropping a
    // client never shifts its neighbors' content.
    Rng R(Seed * 0x2545F4914F6CDD1Dull + I);
    const std::string Source = generateClient(I, R);
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gen-%04u.cj", I);
    const std::string Path = Dir + "/" + Name;
    std::ofstream OutF(Path, std::ios::binary | std::ios::trunc);
    if (!OutF) {
      Error = "cannot write corpus client '" + Path + "'";
      return false;
    }
    OutF << Source;
    if (!OutF) {
      Error = "short write on corpus client '" + Path + "'";
      return false;
    }
  }
  return true;
}
