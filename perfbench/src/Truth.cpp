//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness pass, run in a process of its own before any timed
/// run: the reference report bytes of the workload's inputs and, per
/// client, core::compareWithGroundTruth's false alarms and missed
/// violations. Ground truth is costly (minutes for the corpus), so it is
/// cached per (client source, engine, report) and runs on every
/// processor; only the reference report bytes are recomputed per seed.
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "Inputs.h"
#include "Suite.h"

#include "core/Evaluation.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace canvas;
using namespace perfbench;

namespace {

/// One client to compare against ground truth.
struct Job {
  std::string Key;    ///< Reference key (client name or pair key).
  std::string Source; ///< CJ source.
  unsigned Engine = 0;
};

std::map<std::string, SiteCounts> loadCache(const std::string &Path) {
  std::map<std::string, SiteCounts> Cache;
  std::ifstream In(Path);
  std::string Key;
  SiteCounts C;
  while (In >> Key >> C.Flagged >> C.FalseAlarms >> C.Missed)
    Cache[Key] = C;
  return Cache;
}

/// Certifies every job's client and compares its report with ground
/// truth, on every processor, consulting and extending the cache.
bool compareAll(const std::vector<Job> &Jobs, const std::string &CachePath,
                Reference &Ref, std::string &Error) {
  std::map<std::string, SiteCounts> Cache = loadCache(CachePath);
  std::mutex Mu;
  std::atomic<size_t> Next{0};
  std::string FirstError;
  std::vector<std::string> NewLines;

  auto Work = [&] {
    std::vector<std::unique_ptr<core::Certifier>> Certifiers(5);
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
      const Job &J = Jobs[I];
      DiagnosticEngine Diags;
      auto &C = Certifiers[J.Engine];
      if (!C)
        C = makeCertifier(AllEngines[J.Engine], Diags);
      cj::Program P = cj::parseProgram(J.Source, Diags);
      if (Diags.hasErrors()) {
        std::lock_guard<std::mutex> L(Mu);
        FirstError = "client " + J.Key + " does not parse";
        continue;
      }
      core::CertificationReport R = C->certify(P, Diags);
      const std::string CacheKey = digest(J.Source) + "-" +
                                   core::engineName(AllEngines[J.Engine]) +
                                   "-" + digest(R.str());
      SiteCounts Got;
      bool Cached = false;
      {
        std::lock_guard<std::mutex> L(Mu);
        auto It = Cache.find(CacheKey);
        if (It != Cache.end()) {
          Got = It->second;
          Cached = true;
        }
      }
      if (!Cached) {
        core::SiteComparison Cmp =
            core::compareWithGroundTruth(R, C->spec(), P);
        Got.Flagged = Cmp.FlaggedSites;
        Got.FalseAlarms = Cmp.FalseAlarms;
        Got.Missed = Cmp.Missed;
      }
      std::lock_guard<std::mutex> L(Mu);
      Ref.Truth[J.Key] = Got;
      if (!Cached) {
        Cache[CacheKey] = Got;
        NewLines.push_back(CacheKey + " " + std::to_string(Got.Flagged) + " " +
                           std::to_string(Got.FalseAlarms) + " " +
                           std::to_string(Got.Missed));
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != onlineProcessors(); ++T)
    Threads.emplace_back(Work);
  for (std::thread &T : Threads)
    T.join();

  std::ofstream Out(CachePath, std::ios::app);
  for (const std::string &L : NewLines)
    Out << L << "\n";
  if (!FirstError.empty()) {
    Error = FirstError;
    return false;
  }
  return true;
}

} // namespace

int perfbench::truthMain(const Config &C) {
  std::string Error;
  Reference Ref;
  std::vector<Job> Jobs;
  if (!isCorpus(C.W)) {
    std::string Sources;
    for (const SuiteCall &Call : suiteOrder(0)) {
      const bench::BenchClient &BC = bench::cmpSuite()[Call.Client];
      Jobs.push_back({pairKey(Call), BC.Source, Call.Engine});
      if (Call.Engine == 0)
        Sources += std::string(BC.Name) + "\n" + BC.Source + "\n";
    }
    Ref.CorpusDigest = digest(Sources);
    // The report digests of the suite calls, serially on one certifier
    // per engine exactly as the measured run calls them.
    Setup S;
    if (!runSetup(C, S, Error)) {
      std::fprintf(stderr, "perfbench truth: %s\n", Error.c_str());
      return 2;
    }
    for (const SuiteCall &Call : suiteOrder(C.Seed)) {
      DiagnosticEngine Diags;
      core::CertificationReport R = S.Certifiers[Call.Engine]->certifySource(
          bench::cmpSuite()[Call.Client].Source, Diags);
      Ref.PairDigest[pairKey(Call)] = digest(R.str());
    }
  } else {
    Setup S;
    if (!runSetup(C, S, Error)) {
      std::fprintf(stderr, "perfbench truth: %s\n", Error.c_str());
      return 2;
    }
    Ref.CorpusDigest = corpusDigest(S.Corpus);
    std::ostringstream Merged, Stream;
    shard::ShardRunStats Stats;
    if (!shard::runSerial(S.Corpus, driverOptions(C, ""), Merged, Stream,
                          Stats, Error)) {
      std::fprintf(stderr, "perfbench truth: %s\n", Error.c_str());
      return 2;
    }
    Ref.MergedDigest = digest(Merged.str());
    for (const shard::CorpusClient &CC : S.Corpus)
      Jobs.push_back({CC.Name, CC.Source, 0});
  }
  if (!compareAll(Jobs, C.WorkDir + "/truth-cache.txt", Ref, Error) ||
      !writeReference(C.RefPath, Ref, Error)) {
    std::fprintf(stderr, "perfbench truth: %s\n", Error.c_str());
    return 2;
  }
  const SiteCounts T = Ref.total();
  std::printf("truth %s: flagged_sites=%u false_alarms=%u missed=%u "
              "corpus=%s\n",
              workloadName(C.W), T.Flagged, T.FalseAlarms, T.Missed,
              Ref.CorpusDigest.c_str());
  return 0;
}
