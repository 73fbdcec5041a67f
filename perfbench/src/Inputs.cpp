#include "Inputs.h"

#include "Suite.h"
#include "Trace.h"

#include "cert/Certificate.h"
#include "shard/Worker.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace canvas;
using namespace perfbench;

namespace {

const char *const WorkloadNames[] = {"suite-engines", "corpus-storeless",
                                     "corpus-cold", "corpus-warm"};

/// splitmix64, so the seed's order is the same with every standard
/// library (std::shuffle's algorithm is unspecified).
struct Rng {
  uint64_t State;
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
};

template <typename T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  Rng R{Seed};
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.next() % I]);
}

} // namespace

const core::EngineKind perfbench::AllEngines[5] = {
    core::EngineKind::SCMPIntra, core::EngineKind::SCMPInterproc,
    core::EngineKind::TVLAIndependent, core::EngineKind::TVLARelational,
    core::EngineKind::GenericAllocSite};

bool perfbench::parseWorkload(const std::string &Name, Workload &Out) {
  for (unsigned I = 0; I != 4; ++I)
    if (Name == WorkloadNames[I]) {
      Out = static_cast<Workload>(I);
      return true;
    }
  return false;
}

const char *perfbench::workloadName(Workload W) {
  return WorkloadNames[static_cast<unsigned>(W)];
}

bool perfbench::parseConfig(int Argc, char **Argv, Config &C,
                            std::string &Error) {
  for (int I = 0; I < Argc; I += 2) {
    const std::string Key = Argv[I];
    if (I + 1 >= Argc) {
      Error = "missing value for " + Key;
      return false;
    }
    const std::string V = Argv[I + 1];
    if (Key == "--workload") {
      if (!parseWorkload(V, C.W)) {
        Error = "unknown workload '" + V + "'";
        return false;
      }
    } else if (Key == "--seed") {
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Key == "--corpus-seed") {
      C.CorpusSeed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Key == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (Key == "--corpus") {
      C.CorpusDir = V;
    } else if (Key == "--work") {
      C.WorkDir = V;
    } else if (Key == "--ref") {
      C.RefPath = V;
    } else if (Key == "--trace-out") {
      C.TracePath = V;
    } else {
      Error = "unknown flag '" + Key + "'";
      return false;
    }
  }
  C.Shards = onlineProcessors();
  return true;
}

unsigned perfbench::onlineProcessors() {
  const long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

std::vector<SuiteCall> perfbench::suiteOrder(uint64_t Seed) {
  std::vector<SuiteCall> Calls;
  for (unsigned C = 0; C != bench::cmpSuite().size(); ++C)
    for (unsigned E = 0; E != 5; ++E)
      Calls.push_back({C, E});
  shuffle(Calls, Seed);
  return Calls;
}

std::unique_ptr<core::Certifier>
perfbench::makeCertifier(core::EngineKind K, DiagnosticEngine &Diags,
                         const std::string &StorePath) {
  core::CertifierOptions Opts;
  Opts.Workers = 1;
  Opts.StorePath = StorePath;
  std::string Spec, Error;
  shard::resolveSpec("cmp", Spec, Error);
  return std::make_unique<core::Certifier>(Spec, K, Diags,
                                           wp::DerivationOptions(), Opts);
}

bool perfbench::runSetup(const Config &C, Setup &Out, std::string &Error) {
  Out = Setup();
  DiagnosticEngine Diags;
  if (!isCorpus(C.W)) {
    for (core::EngineKind K : AllEngines)
      Out.Certifiers.push_back(makeCertifier(K, Diags));
  } else {
    Out.Certifiers.push_back(makeCertifier(core::EngineKind::SCMPIntra, Diags));
    if (!shard::loadCorpus(C.CorpusDir, Out.Corpus, Error))
      return false;
    shuffle(Out.Corpus, C.Seed);
    shard::estimateCosts(Out.Corpus, Out.Certifiers[0]->spec(),
                         Out.Certifiers[0]->abstraction());
  }
  if (Diags.hasErrors()) {
    Error = "certifier generation failed:\n" + Diags.str();
    return false;
  }
  return true;
}

shard::DriverOptions perfbench::driverOptions(const Config &C,
                                              const std::string &StorePath) {
  shard::DriverOptions DO;
  DO.Shards = C.Shards;
  DO.WorkerExe = support::selfExecutablePath();
  DO.Worker.SpecArg = "cmp";
  DO.Worker.Engine = core::EngineKind::SCMPIntra;
  DO.Worker.StorePath = StorePath;
  DO.Stream = true;
  return DO;
}

std::string perfbench::digest(const std::string &Bytes) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(cert::fnv1a(
                    reinterpret_cast<const uint8_t *>(Bytes.data()),
                    Bytes.size())));
  return Buf;
}

std::string perfbench::pairKey(const SuiteCall &Call) {
  return std::string(bench::cmpSuite()[Call.Client].Name) + "/" +
         core::engineName(AllEngines[Call.Engine]);
}

std::string
perfbench::corpusDigest(const std::vector<shard::CorpusClient> &Corpus) {
  std::map<std::string, const std::string *> ByName;
  for (const shard::CorpusClient &C : Corpus)
    ByName[C.Name] = &C.Source;
  std::string All;
  for (const auto &[Name, Source] : ByName)
    All += Name + "\n" + *Source + "\n";
  return digest(All);
}

SiteCounts Reference::total() const {
  SiteCounts T;
  for (const auto &KV : Truth) {
    T.Flagged += KV.second.Flagged;
    T.FalseAlarms += KV.second.FalseAlarms;
    T.Missed += KV.second.Missed;
  }
  return T;
}

bool perfbench::writeReference(const std::string &Path, const Reference &R,
                               std::string &Error) {
  const std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    Out << "perfbench-reference 1\n";
    Out << "corpus_digest " << R.CorpusDigest << "\n";
    if (!R.MergedDigest.empty())
      Out << "merged " << R.MergedDigest << "\n";
    for (const auto &[Key, D] : R.PairDigest)
      Out << "pair " << Key << " " << D << "\n";
    for (const auto &[Key, T] : R.Truth)
      Out << "truth " << Key << " " << T.Flagged << " " << T.FalseAlarms
          << " " << T.Missed << "\n";
    if (!Out) {
      Error = "cannot write '" + Tmp + "'";
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "cannot rename '" + Tmp + "'";
    return false;
  }
  return true;
}

bool perfbench::readReference(const std::string &Path, Reference &R,
                              std::string &Error) {
  std::ifstream In(Path);
  std::string Line;
  if (!In || !std::getline(In, Line) || Line != "perfbench-reference 1") {
    Error = "cannot read reference '" + Path + "'";
    return false;
  }
  while (std::getline(In, Line)) {
    std::istringstream SS(Line);
    std::string Tag, Key;
    SS >> Tag;
    if (Tag == "corpus_digest") {
      SS >> R.CorpusDigest;
    } else if (Tag == "merged") {
      SS >> R.MergedDigest;
    } else if (Tag == "pair") {
      SS >> Key >> R.PairDigest[Key];
    } else if (Tag == "truth") {
      SS >> Key;
      SiteCounts &T = R.Truth[Key];
      SS >> T.Flagged >> T.FalseAlarms >> T.Missed;
    }
    if (!SS) {
      Error = "malformed reference line '" + Line + "'";
      return false;
    }
  }
  return true;
}

void Outcome::fail(uint64_t N, const std::string &Why) {
  if (!N)
    return;
  Failed += N;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void perfbench::checkBatch(Workload W, const shard::ShardRunStats &Stats,
                           size_t Clients, Outcome &O) {
  O.fail(Stats.ParseFailed, "client does not parse");
  O.fail(Stats.DegradedClients, "client degraded or crashed");
  O.fail(Stats.Requeues, "worker died (client requeued)");
  O.fail(Stats.StoreRejected + Stats.StoreQuarantined,
         "store incident (rejected or quarantined entry)");
  if (W == Workload::CorpusWarm && !Stats.StoreHits)
    O.fail(Clients, "the warm store served no unit");
  else if (W == Workload::CorpusWarm)
    O.fail(std::min<uint64_t>(Clients, Stats.StoreMisses),
           "unit missed the warm store");
  if (W == Workload::CorpusCold && !Stats.StoreWrites)
    O.fail(Clients, "the cold store was never written");
}

void perfbench::printResult(const char *Tag, const Config &C,
                            const Reference &Ref, const Outcome &O,
                            const std::vector<MetricValue> &Metrics) {
  std::printf("%s {\"attempted\":%llu,\"failed\":%llu,\"failures\":[", Tag,
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I != O.Failures.size(); ++I)
    std::printf("%s%s", I ? "," : "", jsonString(O.Failures[I]).c_str());
  std::printf("],\"corpus_digest\":\"%s\",\"shards\":%u,\"build_type\":\"%s\","
              "\"compiler\":\"%s\",\"metrics\":{",
              Ref.CorpusDigest.c_str(), isCorpus(C.W) ? C.Shards : 0,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const MetricValue &M = Metrics[I];
    std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\",\"samples\":%zu%s}",
                I ? "," : "", M.Name, M.Value, M.Unit, M.Samples,
                M.Absent ? ",\"absent\":true" : "");
  }
  std::printf("}}\n");
}

double perfbench::peakRssMb() {
  // This process's own high-water mark: ru_maxrss of RUSAGE_SELF would
  // also carry the peak of the image that exec'd it (the Python runner).
  long SelfKb = 0;
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      SelfKb = std::strtol(Line.c_str() + 6, nullptr, 10);
  rusage Children{};
  ::getrusage(RUSAGE_CHILDREN, &Children);
  return std::max(SelfKb, Children.ru_maxrss) / 1024.0;
}

double perfbench::secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}
