#include "shard/Driver.h"

#include "support/Json.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <deque>

#include <poll.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::shard;
using support::jsonEscape;

std::string shard::jsonlRows(const ResultMsg &R) {
  std::string Out;
  for (const MethodVerdict &M : R.Methods)
    Out += "SHARD_JSONL {\"client\":\"" + jsonEscape(R.Name) +
           "\",\"method\":\"" + jsonEscape(M.Method) +
           "\",\"checks\":" + std::to_string(M.Checks) +
           ",\"flagged\":" + std::to_string(M.Flagged) +
           ",\"worker\":" + std::to_string(R.WorkerPid) + "}\n";
  Out += "SHARD_JSONL {\"client\":\"" + jsonEscape(R.Name) +
         "\",\"methods\":" + std::to_string(R.Methods.size()) +
         ",\"checks\":" + std::to_string(R.Checks) +
         ",\"flagged\":" + std::to_string(R.Flagged) +
         ",\"degraded\":" + (R.Degraded ? "true" : "false") +
         ",\"parse_failed\":" + (R.ParseFailed ? "true" : "false") +
         ",\"worker\":" + std::to_string(R.WorkerPid) +
         ",\"micros\":" + std::to_string(R.Micros) +
         ",\"store_hits\":" + std::to_string(R.StoreHits) +
         ",\"store_writes\":" + std::to_string(R.StoreWrites) + "}\n";
  return Out;
}

std::string shard::mergedSection(const std::string &Name, const ResultMsg &R) {
  return "=== " + Name + " ===\n" + R.DiagText + R.ReportText;
}

std::string shard::crashedSection(const std::string &Name) {
  return "=== " + Name +
         " ===\nerror: worker crashed twice on this client; verdict "
         "unavailable (degraded)\n";
}

namespace {

/// Accumulates one landed result into the run stats.
void accumulate(ShardRunStats &Stats, const ResultMsg &R) {
  Stats.Flagged += R.Flagged > 0;
  Stats.ParseFailed += R.ParseFailed != 0;
  Stats.DegradedClients += R.Degraded != 0;
  Stats.StoreHits += R.StoreHits;
  Stats.StoreMisses += R.StoreMisses;
  Stats.StoreRejected += R.StoreRejected;
  Stats.StoreQuarantined += R.StoreQuarantined;
  Stats.StoreWrites += R.StoreWrites;
  if (R.StoreHits)
    Stats.HitsByPid[R.WorkerPid] += R.StoreHits;
  Stats.WorkerMicros += R.Micros;
}

/// One worker process slot in the scheduler.
/// One queued or in-flight attempt at a client. The queue holds corpus
/// indices, not sources: a task frame is encoded from the corpus only
/// when it is handed to a worker.
struct Attempt {
  uint32_t Index = 0;
  uint8_t Retry = 0; ///< 1 when requeued after a worker crash.
};

struct WorkerSlot {
  support::ChildProcess Proc;
  bool HasTask = false;
  Attempt Task;
};

void closeWorker(WorkerSlot &W) {
  if (W.Proc.InFd >= 0)
    ::close(W.Proc.InFd);
  if (W.Proc.OutFd >= 0)
    ::close(W.Proc.OutFd);
  W.Proc.InFd = W.Proc.OutFd = -1;
  if (W.Proc.Pid > 0)
    support::waitProcess(W.Proc.Pid);
  W.Proc.Pid = -1;
}

} // namespace

bool shard::runSharded(const std::vector<CorpusClient> &Corpus,
                       const DriverOptions &Opts, std::ostream &MergedOut,
                       std::ostream &StreamOut, ShardRunStats &Stats,
                       std::string &Error) {
  Stats = ShardRunStats();
  Stats.Shards = std::max(1u, Opts.Shards);
  Stats.Clients = static_cast<unsigned>(Corpus.size());

  // A write to a crashed worker's pipe must surface as EPIPE on the
  // writeFrame (which requeues the task), not kill the driver.
  ::signal(SIGPIPE, SIG_IGN);

  // The scheduler queue: largest cost (source length) first, corpus
  // index as the stable tie-break. Pull-based: each idle worker takes
  // the front, so big clients start early and the tail is one client
  // long.
  std::deque<Attempt> Queue;
  {
    std::vector<uint32_t> Order(Corpus.size());
    for (uint32_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&Corpus](uint32_t A, uint32_t B) {
      if (Corpus[A].Cost != Corpus[B].Cost)
        return Corpus[A].Cost > Corpus[B].Cost;
      return A < B;
    });
    for (uint32_t I : Order)
      Queue.push_back({I, 0});
  }

  std::vector<std::string> Argv;
  Argv.push_back(Opts.WorkerExe);
  Argv.push_back("--worker");
  for (std::string &A : workerArgs(Opts.Worker))
    Argv.push_back(std::move(A));

  const unsigned NumWorkers =
      static_cast<unsigned>(std::min<size_t>(Stats.Shards, Corpus.size()));
  // Each client completes after at most two attempts, so worker deaths
  // are bounded; the cap is a backstop against a driver bug, not the
  // termination argument.
  const unsigned MaxRespawns = 2 * Stats.Clients + NumWorkers;

  std::vector<WorkerSlot> Workers(NumWorkers);
  auto SpawnInto = [&](WorkerSlot &W) {
    return support::spawnProcess(Argv, Opts.WorkerEnv, W.Proc, Error);
  };
  for (WorkerSlot &W : Workers)
    if (!SpawnInto(W)) {
      for (WorkerSlot &Prev : Workers)
        if (Prev.Proc.Pid > 0)
          closeWorker(Prev);
      return false;
    }

  std::vector<std::string> Sections(Corpus.size());
  std::vector<bool> Done(Corpus.size(), false);
  size_t Completed = 0;
  bool Failed = false;

  // A worker died. Reap it, settle its in-flight task (requeue once,
  // then degrade — never drop), and respawn a replacement while work
  // remains.
  auto OnWorkerDeath = [&](WorkerSlot &W) {
    closeWorker(W);
    if (W.HasTask) {
      Attempt T = W.Task;
      W.HasTask = false;
      if (T.Retry == 0) {
        ++Stats.Requeues;
        T.Retry = 1;
        Queue.push_front(T);
      } else {
        ++Stats.CrashedClients;
        ++Stats.DegradedClients;
        const std::string &Name = Corpus[T.Index].Name;
        Sections[T.Index] = crashedSection(Name);
        Done[T.Index] = true;
        ++Completed;
        if (Opts.Stream)
          StreamOut << "SHARD_JSONL {\"client\":\"" + jsonEscape(Name) +
                           "\",\"status\":\"crashed\",\"attempts\":2}\n"
                    << std::flush;
      }
    }
    if (Completed < Corpus.size()) {
      if (Stats.WorkerRespawns >= MaxRespawns) {
        Error = "shard driver: worker respawn budget exhausted";
        Failed = true;
        return;
      }
      ++Stats.WorkerRespawns;
      if (!SpawnInto(W))
        Failed = true;
    }
  };

  while (Completed < Corpus.size() && !Failed) {
    // Hand a task to every idle live worker.
    for (WorkerSlot &W : Workers) {
      if (Failed || Queue.empty())
        break;
      if (W.Proc.Pid <= 0 || W.HasTask)
        continue;
      const Attempt T = Queue.front();
      Queue.pop_front();
      TaskMsg Msg;
      Msg.Index = T.Index;
      Msg.Name = Corpus[T.Index].Name;
      Msg.Source = Corpus[T.Index].Source;
      Msg.Retry = T.Retry;
      if (!writeFrame(W.Proc.InFd, MsgType::Task, encodeTask(Msg))) {
        // The worker died before accepting the task: requeue this task
        // untouched (an unsent task is not an attempt) and handle the
        // death.
        Queue.push_front(T);
        OnWorkerDeath(W);
        continue;
      }
      W.Task = T;
      W.HasTask = true;
    }
    if (Failed || Completed >= Corpus.size())
      break;

    std::vector<pollfd> Fds;
    std::vector<size_t> FdSlot;
    for (size_t I = 0; I != Workers.size(); ++I)
      if (Workers[I].Proc.Pid > 0 && Workers[I].HasTask) {
        Fds.push_back({Workers[I].Proc.OutFd, POLLIN, 0});
        FdSlot.push_back(I);
      }
    if (Fds.empty()) {
      // No task in flight yet work remains: every live worker is idle
      // and the queue is empty, which cannot happen unless accounting
      // broke.
      Error = "shard driver: scheduler stalled with work outstanding";
      Failed = true;
      break;
    }
    const int N = ::poll(Fds.data(), Fds.size(), -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = "shard driver: poll failed";
      Failed = true;
      break;
    }
    for (size_t F = 0; F != Fds.size() && !Failed; ++F) {
      if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      WorkerSlot &W = Workers[FdSlot[F]];
      if (W.Proc.Pid <= 0)
        continue; // Settled earlier in this poll round.
      MsgType Type;
      std::vector<uint8_t> Payload;
      bool AtEof = false;
      std::string FrameError;
      if (!readFrame(W.Proc.OutFd, Type, Payload, AtEof, FrameError) ||
          Type != MsgType::Result) {
        // EOF or a torn frame: the worker died mid-task.
        OnWorkerDeath(W);
        continue;
      }
      ResultMsg R;
      if (!decodeResult(Payload, R, FrameError)) {
        OnWorkerDeath(W);
        continue;
      }
      if (!W.HasTask || R.Index != W.Task.Index ||
          R.Index >= Corpus.size() || Done[R.Index]) {
        Error = "shard driver: protocol violation (unexpected result index)";
        Failed = true;
        break;
      }
      W.HasTask = false;
      Sections[R.Index] = mergedSection(R.Name, R);
      Done[R.Index] = true;
      ++Completed;
      accumulate(Stats, R);
      if (Opts.Stream)
        StreamOut << jsonlRows(R) << std::flush;
    }
  }

  for (WorkerSlot &W : Workers) {
    if (W.Proc.Pid <= 0)
      continue;
    writeFrame(W.Proc.InFd, MsgType::Shutdown, {});
    closeWorker(W);
  }
  if (Failed)
    return false;

  for (size_t I = 0; I != Sections.size(); ++I)
    MergedOut << Sections[I];
  MergedOut << std::flush;
  return true;
}

bool shard::runSerial(const std::vector<CorpusClient> &Corpus,
                      const DriverOptions &Opts, std::ostream &MergedOut,
                      std::ostream &StreamOut, ShardRunStats &Stats,
                      std::string &Error) {
  Stats = ShardRunStats();
  Stats.Shards = 0;
  Stats.Clients = static_cast<unsigned>(Corpus.size());

  std::string SpecSource;
  if (!resolveSpec(Opts.Worker.SpecArg, SpecSource, Error))
    return false;
  core::CertifierOptions COpts;
  COpts.StorePath = Opts.Worker.StorePath;
  COpts.StoreMode = Opts.Worker.StoreMode;
  COpts.Budget = Opts.Worker.Budget;
  COpts.Workers = 1;
  DiagnosticEngine Diags;
  core::Certifier C(SpecSource, Opts.Worker.Engine, Diags, {}, COpts);
  if (Diags.hasErrors()) {
    Error = "bad spec:\n" + Diags.str();
    return false;
  }
  for (uint32_t I = 0; I != Corpus.size(); ++I) {
    ResultMsg R;
    certifyClient(C, I, Corpus[I].Name, Corpus[I].Source, R);
    MergedOut << mergedSection(R.Name, R);
    accumulate(Stats, R);
    if (Opts.Stream)
      StreamOut << jsonlRows(R) << std::flush;
  }
  MergedOut << std::flush;
  return true;
}
