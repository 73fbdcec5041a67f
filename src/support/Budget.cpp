#include "support/Budget.h"

#include <cstdlib>
#include <mutex>
#include <optional>

using namespace canvas;
using namespace canvas::support;

const std::vector<std::string> &support::faultSites() {
  static const std::vector<std::string> Sites = {
      "dataflow.solve", "boolprog.intra", "boolprog.interproc",
      "ifds.solve",     "tvla.fixpoint",  "generic.allocsite",
      "cert-check",     "store-open",     "store-read",
      "store-commit",   "store-recover",
  };
  return Sites;
}

namespace {

struct FaultState {
  /// One state serves the whole process, and certify() calls may run on
  /// several threads at once (perfbench's ground-truth pass runs one
  /// set of certifiers per processor), so the whole state (lazy
  /// environment consult, probe counter, fired-once latch) is
  /// serialized under one mutex. Probes are cheap and rare relative to
  /// transfer work; the lock is not on any inner loop.
  std::mutex M;
  bool EnvConsulted = false;
  std::optional<FaultPlan> Plan;
  uint64_t Probes = 0; ///< Probe count for the armed site.
  bool Fired = false;  ///< Each plan fires at most once.
};

FaultState &faultState() {
  static FaultState S;
  return S;
}

void consultEnvironment(FaultState &S) {
  S.EnvConsulted = true;
  const char *Env = std::getenv("CANVAS_FAULT");
  if (!Env || !*Env)
    return;
  FaultPlan Plan;
  if (parseFaultPlan(Env, Plan))
    S.Plan = std::move(Plan);
}

} // namespace

bool support::parseFaultPlan(const std::string &Text, FaultPlan &Out) {
  size_t C1 = Text.find(':');
  if (C1 == std::string::npos || C1 == 0)
    return false;
  Out.Site = Text.substr(0, C1);
  size_t C2 = Text.find(':', C1 + 1);
  std::string N = Text.substr(C1 + 1, C2 == std::string::npos
                                          ? std::string::npos
                                          : C2 - C1 - 1);
  if (N.empty())
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(N.c_str(), &End, 10);
  if (!End || *End || V == 0)
    return false;
  Out.AtProbe = V;
  Out.Kind = FaultKind::Throw;
  if (C2 != std::string::npos) {
    std::string Kind = Text.substr(C2 + 1);
    if (Kind == "throw")
      Out.Kind = FaultKind::Throw;
    else if (Kind == "timeout")
      Out.Kind = FaultKind::Timeout;
    else if (Kind == "alloc")
      Out.Kind = FaultKind::AllocFail;
    else if (Kind == "short")
      Out.Kind = FaultKind::ShortWrite;
    else
      return false;
  }
  return true;
}

void support::setFaultPlan(const FaultPlan &Plan) {
  FaultState &S = faultState();
  std::lock_guard<std::mutex> Lock(S.M);
  S.EnvConsulted = true; // Programmatic plans shadow the environment.
  S.Plan = Plan;
  S.Probes = 0;
  S.Fired = false;
}

void support::clearFaultPlan() {
  FaultState &S = faultState();
  std::lock_guard<std::mutex> Lock(S.M);
  S.EnvConsulted = true;
  S.Plan.reset();
  S.Probes = 0;
  S.Fired = false;
}

void support::reloadFaultPlanFromEnvironment() {
  FaultState &S = faultState();
  std::lock_guard<std::mutex> Lock(S.M);
  S.EnvConsulted = false;
  S.Plan.reset();
  S.Probes = 0;
  S.Fired = false;
}

FaultAction support::faultProbeAction(const char *Site) {
  FaultState &S = faultState();
  std::lock_guard<std::mutex> Lock(S.M);
  if (!S.EnvConsulted)
    consultEnvironment(S);
  if (!S.Plan || S.Fired || S.Plan->Site != Site)
    return FaultAction::None;
  if (++S.Probes != S.Plan->AtProbe)
    return FaultAction::None;
  S.Fired = true;
  switch (S.Plan->Kind) {
  case FaultKind::Throw:
    throw CertifyError(CertifyErrorKind::InjectedFault,
                       "injected fault at probe " +
                           std::to_string(S.Plan->AtProbe),
                       Site);
  case FaultKind::Timeout:
    throw CertifyError(CertifyErrorKind::BudgetDeadline,
                       "injected timeout at probe " +
                           std::to_string(S.Plan->AtProbe),
                       Site);
  case FaultKind::AllocFail:
    throw CertifyError(CertifyErrorKind::BudgetAllocation,
                       "injected allocation failure at probe " +
                           std::to_string(S.Plan->AtProbe),
                       Site);
  case FaultKind::ShortWrite:
    return FaultAction::ShortWrite;
  }
  return FaultAction::None;
}

void support::faultProbe(const char *Site) {
  // Short-write plans are meaningful only at write-capable sites; a
  // plain probe swallows them (the plan still counts as fired, keeping
  // probe arithmetic identical across kinds).
  (void)faultProbeAction(Site);
}
