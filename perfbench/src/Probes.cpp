//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run, in a process of its own: the measured run's inputs,
/// in-process and serially, three passes after an untimed warm-up, with
/// spans recorded from this file around
///
///   (a) the real path: cj::parseProgram, then Certifier::certify -- the
///       split certifySource makes itself, so it stays truthful when the
///       certifier's internals change;
///   (b) isolated probes of each layer's public entry point on the same
///       inputs;
///   (c) counts read from the returned CertificationReport, and
///       /proc/self/io deltas around each real certify.
///
/// Corpus workloads add one traced shard::runSharded batch for the shard
/// metrics. All probe code lives in this file, so a signature change in
/// a layer can break the traced run and nothing else. It reads no
/// *Micros field and probes nothing the ROADMAP slates for removal.
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "Inputs.h"
#include "Stats.h"
#include "StreamClock.h"
#include "Suite.h"
#include "Trace.h"

#include "boolprog/Analysis.h"
#include "boolprog/BooleanProgram.h"
#include "boolprog/Interprocedural.h"
#include "cert/Checker.h"
#include "cert/Emit.h"
#include "core/GenericBaseline.h"
#include "core/Replay.h"
#include "dataflow/PreAnalysis.h"
#include "easl/Parser.h"
#include "shard/Worker.h"
#include "store/CertStore.h"
#include "tvla/Certify.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <unistd.h>

using namespace canvas;
using namespace perfbench;

namespace {

constexpr unsigned Passes = 3;

/// The per-layer metrics, in output order, with their units.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"easl.spec_us", "us"},          {"wp.derive_us", "us"},
    {"wp.families", "count"},        {"core.certifier_us", "us"},
    {"shard.estimate_us", "us"},     {"client.parse_us", "us"},
    {"core.certify_us", "us"},       {"client.cfg_us", "us"},
    {"client.edges", "count"},       {"dataflow.stage0_us", "us"},
    {"dataflow.slice_runs", "count"}, {"boolprog.build_us", "us"},
    {"boolprog.fixpoint_us", "us"},  {"boolprog.vars", "count"},
    {"boolprog.iterations", "count"}, {"ifds.interproc_us", "us"},
    {"ifds.path_edges", "count"},    {"tvla.relational_us", "us"},
    {"tvla.independent_us", "us"},   {"tvla.structures", "count"},
    {"tvla.transfer_hit_ratio", "ratio"}, {"baseline.allocsite_us", "us"},
    {"cert.emit_us", "us"},          {"cert.bytes", "bytes"},
    {"cert.stored_ratio", "ratio"},  {"store.put_us", "us"},
    {"store.write_kb", "KB"},        {"cert.check_us", "us"},
    {"core.replay_us", "us"},        {"store.get_us", "us"},
    {"store.hit_ratio", "ratio"},    {"store.open_us", "us"},
    {"store.read_kb", "KB"},         {"shard.first_verdict_ms", "ms"},
    {"shard.idle_tail_ms", "ms"},    {"shard.efficiency", "ratio"},
    {"shard.stream_kb", "KB"},       {"core.degraded", "count"},
    {"store.incidents", "count"},    {"shard.requeues", "count"},
};

/// Per-client samples of every metric across the passes. A metric's
/// value is the mean over clients of each client's median across
/// passes; a metric with no sample is absent.
class Layers {
public:
  void add(const std::string &Name, int Client, double V) {
    Samples[Name][Client].push_back(V);
  }
  /// Sets a metric that is not per client (set-up, shard batch, ratios).
  void set(const std::string &Name, double V, size_t N) {
    Fixed[Name] = {V, N};
  }
  bool has(const std::string &Name) const {
    return Fixed.count(Name) || Samples.count(Name);
  }
  /// Sum over clients of each client's median.
  double total(const std::string &Name) const {
    double Sum = 0;
    auto It = Samples.find(Name);
    if (It != Samples.end())
      for (const auto &KV : It->second)
        Sum += median(KV.second);
    return Sum;
  }
  std::pair<double, size_t> value(const std::string &Name) const {
    auto F = Fixed.find(Name);
    if (F != Fixed.end())
      return F->second;
    auto It = Samples.find(Name);
    if (It == Samples.end() || It->second.empty())
      return {0, 0};
    return {total(Name) / It->second.size(), It->second.size()};
  }

private:
  std::map<std::string, std::map<int, std::vector<double>>> Samples;
  std::map<std::string, std::pair<double, size_t>> Fixed;
};

/// A running ratio of two sums.
struct Ratio {
  double Num = 0, Den = 0;
  void add(double N, double D) {
    Num += N;
    Den += D;
  }
  void report(Layers &L, const std::string &Name, size_t Samples) const {
    if (Den > 0)
      L.set(Name, Num / Den, Samples);
  }
};

/// rchar / wchar of this process (bytes passed to read/write calls),
/// and the bytes this reading of /proc/self/io itself adds to rchar.
struct IoCounters {
  uint64_t Read = 0, Written = 0, Self = 0;
};
IoCounters readIo() {
  IoCounters C;
  std::ifstream In("/proc/self/io");
  const std::string Text((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
  C.Self = Text.size();
  std::istringstream SS(Text);
  std::string Key;
  uint64_t V = 0;
  while (SS >> Key >> V) {
    if (Key == "rchar:")
      C.Read = V;
    else if (Key == "wchar:")
      C.Written = V;
  }
  return C;
}

/// One input of the traced run: a suite call or a corpus client.
struct Input {
  std::string Key; ///< Reference key: "client/engine" or the client name.
  std::string Source;
  unsigned Engine = 0; ///< Index into AllEngines.
};

struct TracedRun : Outcome {
  const Config &C;
  const Reference &Ref;
  Tracer T;
  Layers L;
  std::vector<Input> Inputs;
  std::vector<std::unique_ptr<core::Certifier>> Certifiers; ///< Per engine.
  std::string StorePath;  ///< The real path's store (store workloads).
  std::string ProbeStore; ///< Scratch store for the put probe.
  std::map<std::string, uint64_t> StoreKeys; ///< Unit -> input hash.
  Ratio TvlaHits, Stored, StoreHits;

  TracedRun(const Config &C, const Reference &Ref) : C(C), Ref(Ref) {}

  const core::Certifier &certifier(const Input &In) const {
    return *Certifiers[isCorpus(C.W) ? 0 : In.Engine];
  }

  /// Times the set-up calls, once per pass. Set-up metrics are per
  /// set-up (core.certifier_us per certifier), not per client.
  void probeSetup();
  /// One pass of the real path (and, when \p Traced, the probes) over
  /// every input; the untraced pass is the warm-up.
  void pass(bool Traced);
  void realPath(int Id, const Input &In, std::string &Merged, bool Traced);
  void probes(int Id, const Input &In, const cj::Program &P,
              const core::CertificationReport &Rep);
  void writePath(int Id, const core::Certifier &Cert, const cj::ClientCFG &CFG,
                 const core::CertificationReport &Rep);
  void readPath(int Id, const core::Certifier &Cert, const cj::ClientCFG &CFG);
  void shardBatch();
};

void TracedRun::probeSetup() {
  std::string SpecSource, Error;
  shard::resolveSpec("cmp", SpecSource, Error);
  const unsigned Engines = isCorpus(C.W) ? 1 : 5;
  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    DiagnosticEngine Diags;
    easl::Spec S;
    {
      ScopedSpan Sp(T, "easl.spec", "setup");
      S = easl::parseSpec(SpecSource, Diags);
      easl::checkSpec(S, Diags);
      L.add("easl.spec_us", Pass, Sp.close());
    }
    wp::DerivedAbstraction Abs;
    {
      ScopedSpan Sp(T, "wp.derive", "setup");
      Abs = wp::deriveAbstraction(S, Diags);
      L.add("wp.derive_us", Pass, Sp.close());
    }
    L.add("wp.families", Pass, Abs.Families.size());
    for (unsigned E = 0; E != Engines; ++E) {
      ScopedSpan Sp(T, "core.certifier", "setup");
      makeCertifier(AllEngines[E], Diags);
      L.add("core.certifier_us", Pass * Engines + E, Sp.close());
    }
    if (isCorpus(C.W)) {
      std::vector<shard::CorpusClient> Corpus;
      for (const Input &In : Inputs)
        Corpus.push_back({In.Key, In.Key, In.Source, 1});
      ScopedSpan Sp(T, "shard.estimate", "setup");
      shard::estimateCosts(Corpus, S, Abs);
      L.add("shard.estimate_us", Pass, Sp.close());
    }
  }
}

void TracedRun::pass(bool Traced) {
  std::error_code EC;
  if (C.W == Workload::CorpusCold)
    std::filesystem::remove_all(StorePath, EC);
  if (!ProbeStore.empty())
    std::filesystem::remove_all(ProbeStore, EC);
  std::string Merged;
  for (size_t I = 0; I != Inputs.size(); ++I)
    realPath(static_cast<int>(I), Inputs[I], Merged, Traced);
  if (Traced && isCorpus(C.W) && digest(Merged) != Ref.MergedDigest)
    fail(Inputs.size(), "traced pass: merged report differs from the "
                        "shard::runSerial reference");
}

void TracedRun::realPath(int Id, const Input &In, std::string &Merged,
                         bool Traced) {
  const core::Certifier &Cert = certifier(In);
  if (!Traced) {
    DiagnosticEngine Diags;
    Cert.certifySource(In.Source, Diags);
    return;
  }
  if (usesStore(C.W)) {
    // The store constructor on the state the real certify will see.
    ScopedSpan Sp(T, "store.open", "probe", Id);
    try {
      store::CertStore Probe(StorePath, store::StoreMode::ReadWrite);
    } catch (const CertifyError &E) {
      fail(1, In.Key + ": store open failed: " + E.message());
    }
    L.add("store.open_us", Id, Sp.close());
  }
  DiagnosticEngine Diags;
  const int Client = T.begin("client", "real", Id);
  cj::Program P;
  {
    ScopedSpan Sp(T, "client.parse", "real", Id);
    P = cj::parseProgram(In.Source, Diags);
    L.add("client.parse_us", Id, Sp.close());
  }
  core::CertificationReport Rep;
  IoCounters Io0 = readIo();
  if (!Diags.hasErrors()) {
    ScopedSpan Sp(T, "core.certify", "real", Id);
    Rep = Cert.certify(P, Diags);
    L.add("core.certify_us", Id, Sp.close());
  }
  IoCounters Io1 = readIo();
  T.end(Client);

  ++Attempted;
  shard::ResultMsg Msg;
  Msg.DiagText = Diags.str();
  if (!Diags.hasErrors())
    Msg.ReportText = Rep.str();
  Merged += shard::mergedSection(In.Key, Msg);
  if (Diags.hasErrors())
    fail(1, In.Key + ": client does not parse");
  else if (Rep.Degraded)
    fail(1, In.Key + ": degraded to " + Rep.EffectiveEngine);
  else if (!isCorpus(C.W) && digest(Msg.ReportText) != Ref.PairDigest.at(In.Key))
    fail(1, In.Key + ": report differs from the reference");
  else if (Ref.Truth.at(In.Key).Missed)
    fail(1, In.Key + ": misses a ground-truth violation");
  fail(Rep.Store.Incidents.size(), In.Key + ": store incident");

  // (c) Counts from the report and the I/O counters; Io1's rchar
  // includes the bytes of the reading that produced Io0.
  L.add("store.read_kb", Id, (Io1.Read - Io0.Read - Io0.Self) / 1024.0);
  L.add("store.write_kb", Id, (Io1.Written - Io0.Written) / 1024.0);
  L.add("core.degraded", Id, Rep.Degraded);
  L.add("store.incidents", Id, Rep.Store.Incidents.size());
  const core::EngineKind K = AllEngines[In.Engine];
  if (K == core::EngineKind::SCMPIntra && C.W != Workload::CorpusWarm) {
    L.add("dataflow.slice_runs", Id, Rep.Pre.SliceRuns);
    L.add("boolprog.vars", Id, Rep.BoolVars);
  }
  if (K == core::EngineKind::SCMPInterproc)
    L.add("ifds.path_edges", Id, Rep.Inter.PathEdges);
  if (K == core::EngineKind::TVLAIndependent ||
      K == core::EngineKind::TVLARelational)
    L.add("tvla.structures", Id, Rep.Tvla.MaxStructuresPerPoint);
  if (K == core::EngineKind::TVLARelational)
    TvlaHits.add(Rep.Tvla.TransferCacheHits,
                 Rep.Tvla.TransferCacheHits + Rep.Tvla.TransferCacheMisses);
  if (C.W == Workload::CorpusCold) {
    L.add("cert.bytes", Id, Rep.CertStats.Bytes);
    Stored.add(Rep.CertStats.StoredEntries, Rep.CertStats.RawEntries);
  }
  if (usesStore(C.W))
    StoreHits.add(Rep.Store.Hits, Rep.Store.Hits + Rep.Store.Misses);

  if (!Diags.hasErrors())
    probes(Id, In, P, Rep);
}

void TracedRun::probes(int Id, const Input &In, const cj::Program &P,
                       const core::CertificationReport &Rep) {
  const core::Certifier &Cert = certifier(In);
  const easl::Spec &S = Cert.spec();
  const wp::DerivedAbstraction &Abs = Cert.abstraction();
  const core::EngineKind K = AllEngines[In.Engine];
  DiagnosticEngine Diags;

  cj::ClientCFG CFG;
  {
    ScopedSpan Sp(T, "client.cfg", "probe", Id);
    CFG = cj::buildCFG(P, S, Diags);
    L.add("client.cfg_us", Id, Sp.close());
  }
  size_t Edges = 0;
  for (const cj::CFGMethod &M : CFG.Methods)
    Edges += M.Edges.size();
  L.add("client.edges", Id, Edges);

  {
    // Stage 0 as the workload's certifier runs it: the full pre-analysis
    // for SCMPIntra without a store, the lint alone otherwise.
    dataflow::PreAnalysisOptions PO;
    if (K != core::EngineKind::SCMPIntra || usesStore(C.W)) {
      PO.EliminateDeadStores = false;
      PO.Slice = false;
    }
    ScopedSpan Sp(T, "dataflow.stage0", "probe", Id);
    dataflow::preAnalyze(CFG, Abs, PO);
    L.add("dataflow.stage0_us", Id, Sp.close());
  }

  switch (K) {
  case core::EngineKind::SCMPIntra: {
    if (C.W == Workload::CorpusWarm) {
      readPath(Id, Cert, CFG);
      break;
    }
    double BuildUs = 0, FixUs = 0, Iterations = 0;
    for (const cj::CFGMethod &M : CFG.Methods) {
      bp::BooleanProgram BP;
      {
        ScopedSpan Sp(T, "boolprog.build", "probe", Id);
        BP = bp::buildBooleanProgram(Abs, M, Diags);
        BuildUs += Sp.close();
      }
      ScopedSpan Sp(T, "boolprog.fixpoint", "probe", Id);
      bp::IntraResult R = bp::analyzeIntraproc(BP);
      FixUs += Sp.close();
      Iterations += R.Iterations;
    }
    L.add("boolprog.build_us", Id, BuildUs);
    L.add("boolprog.fixpoint_us", Id, FixUs);
    L.add("boolprog.iterations", Id, Iterations);
    if (C.W == Workload::CorpusCold)
      writePath(Id, Cert, CFG, Rep);
    break;
  }
  case core::EngineKind::SCMPInterproc:
    if (const cj::CFGMethod *Main = CFG.mainCFG()) {
      ScopedSpan Sp(T, "ifds.interproc", "probe", Id);
      bp::analyzeInterproc(Abs, CFG, *Main, Diags);
      L.add("ifds.interproc_us", Id, Sp.close());
    }
    break;
  case core::EngineKind::TVLAIndependent:
  case core::EngineKind::TVLARelational: {
    const bool Relational = K == core::EngineKind::TVLARelational;
    const char *Name = Relational ? "tvla.relational" : "tvla.independent";
    ScopedSpan Sp(T, Name, "probe", Id);
    for (const cj::CFGMethod &M : CFG.Methods)
      tvla::certifyWithTVLA(S, Abs, M, Relational, Diags);
    L.add(std::string(Name) + "_us", Id, Sp.close());
    break;
  }
  case core::EngineKind::GenericAllocSite: {
    ScopedSpan Sp(T, "baseline.allocsite", "probe", Id);
    for (const cj::CFGMethod &M : CFG.Methods)
      core::analyzeAllocSite(S, M);
    L.add("baseline.allocsite_us", Id, Sp.close());
    break;
  }
  }
}

/// corpus-cold's write path: certificate emission for every method's
/// unsliced boolean program, and a put of each into a scratch store.
void TracedRun::writePath(int Id, const core::Certifier &Cert,
                          const cj::ClientCFG &CFG,
                          const core::CertificationReport &Rep) {
  DiagnosticEngine Diags;
  double EmitUs = 0, PutUs = 0;
  try {
    store::CertStore Store(ProbeStore, store::StoreMode::ReadWrite);
    for (const cj::CFGMethod &M : CFG.Methods) {
      bp::BooleanProgram BP =
          bp::buildBooleanProgram(Cert.abstraction(), M, Diags);
      bp::IntraResult R = bp::analyzeIntraproc(BP);
      store::StoreEntry E;
      {
        ScopedSpan Sp(T, "cert.emit", "probe", Id);
        E.Cert = cert::emitBoolIntra(BP, R);
        EmitUs += Sp.close();
      }
      E.InputHash = std::hash<std::string>()(M.name()) ^ Id;
      E.Unit = M.name();
      E.Engine = core::engineName(core::EngineKind::SCMPIntra);
      for (const core::CheckRecord &Rec : Rep.Checks)
        if (Rec.Method == E.Unit)
          E.Checks.push_back(Rec);
      E.HasCert = true;
      E.CertHash = E.Cert.ContentHash;
      ScopedSpan Sp(T, "store.put", "probe", Id);
      Store.put(E);
      PutUs += Sp.close();
    }
  } catch (const CertifyError &E) {
    fail(1, "store put probe failed: " + E.message());
  }
  L.add("cert.emit_us", Id, EmitUs);
  L.add("store.put_us", Id, PutUs);
}

/// corpus-warm's read path for one client: get, check and witness
/// replay of every stored entry of its methods.
void TracedRun::readPath(int Id, const core::Certifier &Cert,
                         const cj::ClientCFG &CFG) {
  double GetUs = 0, CheckUs = 0, ReplayUs = 0;
  try {
    store::CertStore Store(StorePath, store::StoreMode::ReadWrite);
    if (StoreKeys.empty())
      for (const store::StoreEntry &E : Store.listEntries())
        StoreKeys[E.Unit] = E.InputHash;
    cert::Checker Ck(Cert.spec(), Cert.abstraction(), CFG);
    for (const cj::CFGMethod &M : CFG.Methods) {
      auto It = StoreKeys.find(M.name());
      if (It == StoreKeys.end())
        continue;
      std::unique_ptr<store::StoreEntry> E;
      {
        ScopedSpan Sp(T, "store.get", "probe", Id);
        E = Store.get(It->second, It->first);
        GetUs += Sp.close();
      }
      if (!E) {
        fail(1, M.name() + ": stored entry missing");
        continue;
      }
      {
        ScopedSpan Sp(T, "cert.check", "probe", Id);
        if (!Ck.check(E->Cert).Valid)
          fail(1, M.name() + ": stored certificate rejected");
        CheckUs += Sp.close();
      }
      for (const core::CheckRecord &Rec : E->Checks) {
        if (Rec.Witness.empty())
          continue;
        ScopedSpan Sp(T, "core.replay", "probe", Id);
        core::replayWitness(Cert.spec(), CFG, Rec);
        ReplayUs += Sp.close();
      }
    }
  } catch (const CertifyError &E) {
    fail(1, "store read probe failed: " + E.message());
  }
  L.add("store.get_us", Id, GetUs);
  L.add("cert.check_us", Id, CheckUs);
  L.add("core.replay_us", Id, ReplayUs);
}

/// One traced sharded batch on the workload's store state.
void TracedRun::shardBatch() {
  Setup S;
  std::string Error;
  if (!runSetup(C, S, Error)) {
    fail(Inputs.size(), "shard batch set-up failed: " + Error);
    return;
  }
  std::error_code EC;
  const std::string BatchStore =
      usesStore(C.W) ? StorePath + "-batch" : std::string();
  if (C.W == Workload::CorpusWarm)
    std::filesystem::copy(StorePath, BatchStore,
                          std::filesystem::copy_options::recursive, EC);
  StreamClock Sink;
  std::ostream StreamOut(&Sink);
  std::ostringstream Merged;
  shard::ShardRunStats Stats;
  const shard::DriverOptions DO = driverOptions(C, BatchStore);
  const int Batch = T.begin("shard.batch", "shard");
  const double Start = T.now();
  Sink.start();
  const bool Ok =
      shard::runSharded(S.Corpus, DO, Merged, StreamOut, Stats, Error);
  const double WallUs = T.now() - Start;
  T.end(Batch);
  std::filesystem::remove_all(BatchStore, EC);
  if (!Ok || digest(Merged.str()) != Ref.MergedDigest) {
    fail(S.Corpus.size(), "traced batch failed or its merged report differs");
    return;
  }
  std::map<std::string, int> Ids;
  for (size_t I = 0; I != Inputs.size(); ++I)
    Ids[Inputs[I].Key] = static_cast<int>(I);
  for (size_t V = 0; V != Sink.verdictMicros().size(); ++V) {
    Span Sp;
    Sp.Name = "shard.verdict";
    Sp.Cat = "shard";
    Sp.StartUs = Start;
    Sp.EndUs = Start + Sink.verdictMicros()[V];
    Sp.Parent = Batch;
    auto It = Ids.find(Sink.verdictClients()[V]);
    Sp.Client = It == Ids.end() ? -1 : It->second;
    T.add(Sp);
  }
  L.set("shard.first_verdict_ms", Sink.firstVerdictMicros() / 1000, 1);
  L.set("shard.idle_tail_ms",
        Sink.idleTailMicros(C.Shards, S.Corpus.size()) / 1000, 1);
  L.set("shard.efficiency", L.total("core.certify_us") / (C.Shards * WallUs),
        1);
  L.set("shard.stream_kb", Sink.bytes() / 1024.0, 1);
  L.set("shard.requeues", Stats.Requeues, 1);
  checkBatch(C.W, Stats, S.Corpus.size(), *this);
  fail(Sink.crashed(), "traced batch: client crashed");
}

} // namespace

int perfbench::traceMain(const Config &C) {
  std::string Error;
  Reference Ref;
  if (!readReference(C.RefPath, Ref, Error)) {
    std::fprintf(stderr, "perfbench trace: %s\n", Error.c_str());
    return 2;
  }
  TracedRun R(C, Ref);
  Setup S;
  if (!runSetup(C, S, Error)) {
    std::fprintf(stderr, "perfbench trace: %s\n", Error.c_str());
    return 2;
  }
  if (isCorpus(C.W)) {
    for (const shard::CorpusClient &CC : S.Corpus)
      R.Inputs.push_back({CC.Name, CC.Source, 0});
    if (usesStore(C.W)) {
      R.StorePath = C.WorkDir + "/trace-store-" + std::to_string(::getpid());
      R.ProbeStore = R.StorePath + "-probe";
    }
    DiagnosticEngine Diags;
    R.Certifiers.push_back(
        makeCertifier(core::EngineKind::SCMPIntra, Diags, R.StorePath));
  } else {
    for (const SuiteCall &Call : suiteOrder(C.Seed))
      R.Inputs.push_back({pairKey(Call),
                          bench::cmpSuite()[Call.Client].Source, Call.Engine});
    R.Certifiers = std::move(S.Certifiers);
  }

  R.probeSetup();
  // The warm-up pass; on corpus-warm it fills the store.
  R.pass(/*Traced=*/false);
  for (unsigned P = 0; P != Passes; ++P)
    R.pass(/*Traced=*/true);
  if (isCorpus(C.W))
    R.shardBatch();
  R.TvlaHits.report(R.L, "tvla.transfer_hit_ratio", R.Inputs.size());
  R.Stored.report(R.L, "cert.stored_ratio", R.Inputs.size());
  R.StoreHits.report(R.L, "store.hit_ratio", R.Inputs.size());
  if (!isCorpus(C.W))
    R.L.set("shard.requeues", 0, 0);
  std::error_code EC;
  for (const std::string &Dir : {R.StorePath, R.ProbeStore})
    if (!Dir.empty())
      std::filesystem::remove_all(Dir, EC);

  {
    std::ofstream Out(C.TracePath, std::ios::trunc);
    writeChromeTrace(Out, R.T.spans());
    if (!Out) {
      std::fprintf(stderr, "perfbench trace: cannot write '%s'\n",
                   C.TracePath.c_str());
      return 2;
    }
  }
  std::printf("trace: %zu spans written to %s\n", R.T.spans().size(),
              C.TracePath.c_str());
  std::vector<MetricValue> Metrics;
  for (const auto &[Name, Unit] : LayerMetrics) {
    const auto [Value, Samples] = R.L.value(Name);
    Metrics.push_back({Name, Value, Unit, Samples, !R.L.has(Name)});
  }
  printResult("PERFBENCH_LAYERS", C, Ref, R, Metrics);
  return 0;
}
