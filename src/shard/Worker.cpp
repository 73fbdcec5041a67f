#include "shard/Worker.h"

#include "easl/Builtins.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace canvas;
using namespace canvas::shard;

bool shard::resolveSpec(const std::string &SpecArg, std::string &Out,
                        std::string &Error) {
  if (SpecArg == "cmp") {
    Out = easl::cmpSpecSource();
    return true;
  }
  if (SpecArg == "grp") {
    Out = easl::grpSpecSource();
    return true;
  }
  if (SpecArg == "imp") {
    Out = easl::impSpecSource();
    return true;
  }
  if (SpecArg == "aop") {
    Out = easl::aopSpecSource();
    return true;
  }
  std::ifstream In(SpecArg);
  if (!In) {
    Error = "cannot read spec '" + SpecArg + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string> shard::workerArgs(const WorkerOptions &O) {
  std::vector<std::string> Args;
  Args.push_back("--spec=" + O.SpecArg);
  Args.push_back("--engine=" + std::string(core::engineName(O.Engine)));
  if (!O.StorePath.empty()) {
    Args.push_back("--store=" + O.StorePath);
    Args.push_back(std::string("--store-mode=") +
                   (O.StoreMode == store::StoreMode::ReadOnly ? "ro" : "rw"));
  }
  if (O.Budget.DeadlineMicros > 0)
    Args.push_back("--budget-deadline-us=" +
                   std::to_string(static_cast<uint64_t>(O.Budget.DeadlineMicros)));
  if (O.Budget.MaxIterations)
    Args.push_back("--budget-iterations=" +
                   std::to_string(O.Budget.MaxIterations));
  if (O.Budget.MaxStructures)
    Args.push_back("--budget-structures=" +
                   std::to_string(O.Budget.MaxStructures));
  if (O.Budget.MaxAllocBytes)
    Args.push_back("--budget-alloc-bytes=" +
                   std::to_string(O.Budget.MaxAllocBytes));
  return Args;
}

bool shard::parseWorkerFlag(const std::string &Arg, WorkerOptions &O) {
  auto Value = [&Arg](const char *Prefix, std::string &Out) {
    const size_t N = std::strlen(Prefix);
    if (Arg.compare(0, N, Prefix) != 0)
      return false;
    Out = Arg.substr(N);
    return true;
  };
  std::string V;
  if (Value("--spec=", V)) {
    O.SpecArg = V;
    return true;
  }
  if (Value("--engine=", V)) {
    const std::optional<core::EngineKind> K = core::parseEngineName(V);
    if (K)
      O.Engine = *K;
    return K.has_value();
  }
  if (Value("--store=", V)) {
    O.StorePath = V;
    return true;
  }
  if (Value("--store-mode=", V)) {
    if (V != "rw" && V != "ro")
      return false;
    O.StoreMode =
        V == "ro" ? store::StoreMode::ReadOnly : store::StoreMode::ReadWrite;
    return true;
  }
  if (Value("--budget-deadline-us=", V)) {
    O.Budget.DeadlineMicros = std::strtod(V.c_str(), nullptr);
    return true;
  }
  if (Value("--budget-iterations=", V)) {
    O.Budget.MaxIterations = std::strtoull(V.c_str(), nullptr, 10);
    return true;
  }
  if (Value("--budget-structures=", V)) {
    O.Budget.MaxStructures = std::strtoull(V.c_str(), nullptr, 10);
    return true;
  }
  if (Value("--budget-alloc-bytes=", V)) {
    O.Budget.MaxAllocBytes = std::strtoull(V.c_str(), nullptr, 10);
    return true;
  }
  return false;
}

void shard::certifyClient(const core::Certifier &C, uint32_t Index,
                          const std::string &Name, const std::string &Source,
                          ResultMsg &Out) {
  Out = ResultMsg();
  Out.Index = Index;
  Out.Name = Name;
  Out.WorkerPid = static_cast<uint32_t>(::getpid());
  const auto T0 = std::chrono::steady_clock::now();
  DiagnosticEngine Diags;
  try {
    core::CertificationReport Rep = C.certifySource(Source, Diags);
    Out.DiagText = Diags.str();
    if (Diags.hasErrors()) {
      Out.ParseFailed = 1;
    } else {
      Out.ReportText = Rep.str();
      Out.Checks = static_cast<uint32_t>(Rep.numChecks());
      Out.Flagged = Rep.numFlagged();
      Out.Degraded = Rep.Degraded ? 1 : 0;
      if (Rep.Store.Enabled) {
        Out.StoreHits = Rep.Store.Hits;
        Out.StoreMisses = Rep.Store.Misses;
        Out.StoreRejected = Rep.Store.Rejected;
        Out.StoreQuarantined = Rep.Store.Quarantined;
        Out.StoreWrites = Rep.Store.Writes;
        for (const store::StoreIncident &I : Rep.Store.Incidents)
          std::fprintf(stderr, "shard[%u] store: %s: %s: %s\n", Out.WorkerPid,
                       I.Kind.c_str(),
                       I.Unit.empty() ? "<store>" : I.Unit.c_str(),
                       I.Detail.c_str());
      }
      // Per-method rows in first-seen check order (deterministic: the
      // report's check order is the merge-by-method-index order).
      for (const core::CheckVerdict &V : Rep.Checks) {
        MethodVerdict *Row = nullptr;
        for (MethodVerdict &M : Out.Methods)
          if (M.Method == V.Method)
            Row = &M;
        if (!Row) {
          Out.Methods.push_back({});
          Row = &Out.Methods.back();
          Row->Method = V.Method;
        }
        ++Row->Checks;
        Row->Flagged += V.Outcome == core::CheckOutcome::Potential ||
                        V.Outcome == core::CheckOutcome::Definite;
      }
    }
  } catch (const CertifyError &E) {
    // With degradation on this is unreachable (the ladder floors at
    // lint-only); belt-and-braces so a client can never vanish.
    Out.ParseFailed = 1;
    Out.DiagText += "error: certification failed: " + E.message() + "\n";
  }
  Out.Micros = static_cast<uint64_t>(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

namespace {

/// True when CANVAS_SHARD_CRASH_AT demands a crash for this task.
bool crashRequested(const TaskMsg &T) {
  const char *Env = std::getenv("CANVAS_SHARD_CRASH_AT");
  if (!Env || !*Env)
    return false;
  std::string Spec(Env);
  bool Always = false;
  const std::string Suffix = ":always";
  if (Spec.size() > Suffix.size() &&
      Spec.compare(Spec.size() - Suffix.size(), Suffix.size(), Suffix) == 0) {
    Always = true;
    Spec.resize(Spec.size() - Suffix.size());
  }
  return Spec == T.Name && (Always || T.Retry == 0);
}

} // namespace

int shard::workerMain(const WorkerOptions &O) {
  std::string SpecSource, Error;
  if (!resolveSpec(O.SpecArg, SpecSource, Error)) {
    std::fprintf(stderr, "shard worker: %s\n", Error.c_str());
    return 2;
  }
  core::CertifierOptions Opts;
  Opts.StorePath = O.StorePath;
  Opts.StoreMode = O.StoreMode;
  Opts.Budget = O.Budget;
  DiagnosticEngine Diags;
  core::Certifier C(SpecSource, O.Engine, Diags, {}, Opts);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "shard worker: bad spec:\n%s", Diags.str().c_str());
    return 2;
  }

  for (;;) {
    MsgType Type;
    std::vector<uint8_t> Payload;
    bool AtEof = false;
    if (!readFrame(STDIN_FILENO, Type, Payload, AtEof, Error)) {
      if (AtEof)
        return 0; // The driver closed our stdin: orderly drain.
      std::fprintf(stderr, "shard worker: %s\n", Error.c_str());
      return 3;
    }
    if (Type == MsgType::Shutdown)
      return 0;
    if (Type != MsgType::Task) {
      std::fprintf(stderr, "shard worker: unexpected message type\n");
      return 3;
    }
    TaskMsg T;
    if (!decodeTask(Payload, T, Error)) {
      std::fprintf(stderr, "shard worker: %s\n", Error.c_str());
      return 3;
    }
    if (crashRequested(T))
      ::_exit(42); // The injected mid-shard crash: no result, no unwind.
    ResultMsg R;
    certifyClient(C, T.Index, T.Name, T.Source, R);
    if (!writeFrame(STDOUT_FILENO, MsgType::Result, encodeResult(R)))
      return 3; // The driver died; nothing useful left to do.
  }
}
