//===----------------------------------------------------------------------===//
//
// canvas_certify: command-line front end for the staged certifier.
//
//   canvas_certify [--engine=NAME] [--spec=FILE|cmp|grp|imp|aop]
//                  [--print-abstraction]
//                  [--emit-certs=FILE] [--check-certs]
//                  [--store=DIR] [--store-mode=rw|ro] [--bench-label=NAME]
//                  [--check-only --certs=FILE] CLIENT.cj
//   canvas_certify --list-fault-sites
//   canvas_certify --store-snapshot=DIR
//   canvas_certify --store-diff=OLDDIR,NEWDIR
//
// Reads an Easl component specification (a built-in one by default),
// generates a certifier for the chosen engine, and certifies the CJ
// client program. With --emit-certs the proven verdicts' proof-carrying
// certificates are serialized to FILE; with --check-certs the
// supervisor re-validates every certificate with the independent
// checker before accepting the rung's verdicts.
//
// --store=DIR enables the crash-safe persistent certificate store:
// unchanged methods are answered from checker-gated store entries and
// only changed methods re-run the engine. Store incidents (quarantined,
// rejected, or I/O-failed entries) go to stderr; a
// BENCH_JSON {"bench":"store-hit-rate",...} line on stdout records the
// hit/miss accounting (the capture step of the capture -> analyze ->
// diff flow). --store-mode=ro opens the store without mutating it.
//
// --store-snapshot=DIR dumps every decodable entry of a store as one
// JSON line each (sorted by unit, then input hash); --store-diff
// compares two such stores directly and prints one JSON line per
// added/removed/changed entry plus a BENCH_JSON summary, exiting 0
// when identical and 1 otherwise.
//
// --list-fault-sites prints the deterministic fault-injection registry
// (one site per line), so harnesses can iterate every probe site
// without hard-coding the list.
//
// Under the SCMPIntra engine the report names every method whose
// component variables split into slices, and every method whose
// slicing was forced off together with the reason (say, heap component
// references). A method that splits is certified with one boolean
// program over its slice partition (a SlicePartition certificate under
// --emit-certs).
//
// --check-only skips the analyzer entirely: it re-derives the trusted
// inputs (spec, abstraction, client CFG) and runs only cert::Checker
// over a previously emitted certificate file — the independent
// re-verification path of a proof-carrying report.
//
// Exits 0 when every check is verified (or, under --check-only, every
// certificate validates), 1 when any check is flagged, 2 on usage or
// parse errors, 3 when a certificate is rejected.
//
//===----------------------------------------------------------------------===//

#include "cert/Checker.h"
#include "client/CFG.h"
#include "client/Parser.h"
#include "core/Certifier.h"
#include "easl/Builtins.h"
#include "store/CertStore.h"
#include "support/Budget.h"
#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace canvas;
using support::jsonEscape;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool readBinaryFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

bool writeBinaryFile(const std::string &Path,
                     const std::vector<uint8_t> &Data) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  return Out.good();
}

int usage() {
  std::fprintf(stderr,
               "usage: canvas_certify [--engine=scmp-intra|scmp-interproc|"
               "tvla-independent|tvla-relational|generic-allocsite]\n"
               "                      [--spec=FILE|cmp|grp|imp|aop]\n"
               "                      [--print-abstraction]\n"
               "                      [--emit-certs=FILE] [--check-certs]\n"
               "                      [--store=DIR] [--store-mode=rw|ro]\n"
               "                      [--bench-label=NAME]\n"
               "                      [--check-only --certs=FILE] CLIENT.cj\n"
               "       canvas_certify --list-fault-sites\n"
               "       canvas_certify --store-snapshot=DIR\n"
               "       canvas_certify --store-diff=OLDDIR,NEWDIR\n");
  return 2;
}

std::string hex64(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

unsigned numFlagged(const store::StoreEntry &E) {
  unsigned N = 0;
  for (const core::CheckRecord &C : E.Checks)
    N += C.Outcome == core::CheckOutcome::Potential ||
         C.Outcome == core::CheckOutcome::Definite;
  return N;
}

/// One snapshot row per entry; shared by --store-snapshot and the diff
/// tooling so a diff row carries the same vocabulary as a capture row.
std::string entryJson(const store::StoreEntry &E) {
  return "\"unit\":\"" + jsonEscape(E.Unit) + "\",\"input_hash\":\"" +
         hex64(E.InputHash) + "\",\"engine\":\"" + jsonEscape(E.Engine) +
         "\",\"checks\":" + std::to_string(E.Checks.size()) +
         ",\"flagged\":" + std::to_string(numFlagged(E)) +
         ",\"cert_kind\":\"" + cert::certKindName(E.Cert.Kind) +
         "\",\"cert_hash\":\"" + hex64(E.CertHash) + "\"";
}

/// Opens \p Dir read-only and returns its decodable entries, or
/// nullopt after printing the error. Read-only: snapshotting must not
/// mutate the store it observes.
bool loadEntries(const std::string &Dir, std::vector<store::StoreEntry> &Out) {
  try {
    store::CertStore St(Dir, store::StoreMode::ReadOnly);
    Out = St.listEntries();
    for (const store::StoreIncident &I : St.takeIncidents())
      std::fprintf(stderr, "store: %s: %s: %s\n", I.Kind.c_str(),
                   I.Unit.empty() ? "<store>" : I.Unit.c_str(),
                   I.Detail.c_str());
    return true;
  } catch (const CertifyError &E) {
    std::fprintf(stderr, "error: cannot open store '%s': %s\n", Dir.c_str(),
                 E.message().c_str());
    return false;
  }
}

int snapshotStore(const std::string &Dir) {
  std::vector<store::StoreEntry> Entries;
  if (!loadEntries(Dir, Entries))
    return 2;
  for (const store::StoreEntry &E : Entries)
    std::printf("{%s}\n", entryJson(E).c_str());
  return 0;
}

/// Compares two stores entry-by-entry, keyed (unit, input hash): an
/// entry only in OLD was invalidated or quarantined, one only in NEW
/// was re-certified under changed inputs, and a key present in both
/// with a different certificate hash changed evidence without changing
/// inputs (engine nondeterminism or tampering — worth surfacing).
int diffStores(const std::string &OldDir, const std::string &NewDir) {
  std::vector<store::StoreEntry> OldE, NewE;
  if (!loadEntries(OldDir, OldE) || !loadEntries(NewDir, NewE))
    return 2;
  std::map<std::pair<std::string, uint64_t>, const store::StoreEntry *> Old,
      New;
  for (const store::StoreEntry &E : OldE)
    Old[{E.Unit, E.InputHash}] = &E;
  for (const store::StoreEntry &E : NewE)
    New[{E.Unit, E.InputHash}] = &E;
  unsigned Added = 0, Removed = 0, Changed = 0, Unchanged = 0;
  for (const auto &[Key, E] : Old)
    if (!New.count(Key)) {
      ++Removed;
      std::printf("{\"diff\":\"removed\",%s}\n", entryJson(*E).c_str());
    }
  for (const auto &[Key, E] : New) {
    auto It = Old.find(Key);
    if (It == Old.end()) {
      ++Added;
      std::printf("{\"diff\":\"added\",%s}\n", entryJson(*E).c_str());
    } else if (It->second->CertHash != E->CertHash) {
      ++Changed;
      std::printf("{\"diff\":\"changed\",%s,\"old_cert_hash\":\"%s\"}\n",
                  entryJson(*E).c_str(), hex64(It->second->CertHash).c_str());
    } else {
      ++Unchanged;
    }
  }
  std::printf("\nBENCH_JSON {\"bench\":\"store-diff\",\"added\":%u,"
              "\"removed\":%u,\"changed\":%u,\"unchanged\":%u}\n\n",
              Added, Removed, Changed, Unchanged);
  return Added || Removed || Changed ? 1 : 0;
}

/// The --check-only path: no analyzer is instantiated. The trusted
/// inputs are rebuilt from source (spec parse, abstraction derivation,
/// client CFG construction) and every certificate in the file must be
/// accepted by the independent single-pass checker.
int checkOnly(const std::string &SpecSource, const std::string &ClientSource,
              const std::string &CertsPath) {
  DiagnosticEngine Diags;
  easl::Spec Spec = easl::parseSpec(SpecSource, Diags);
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  cj::Program P = cj::parseProgram(ClientSource, Diags);
  cj::ClientCFG CFG = cj::buildCFG(P, Spec, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }

  std::vector<uint8_t> Blob;
  if (!readBinaryFile(CertsPath, Blob)) {
    std::fprintf(stderr, "error: cannot read certificates '%s'\n",
                 CertsPath.c_str());
    return 2;
  }
  std::vector<cert::Certificate> Certs;
  std::string Error;
  if (!cert::parseCertificates(Blob, Certs, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 3;
  }

  cert::Checker Checker(Spec, Abs, CFG);
  size_t Claims = 0;
  double Micros = 0;
  for (const cert::Certificate &C : Certs) {
    cert::CheckResult CR = Checker.check(C);
    Micros += CR.Micros;
    if (!CR.Valid) {
      std::fprintf(stderr, "certificate rejected: %s\n", CR.Reason.c_str());
      return 3;
    }
    Claims += C.Claims.size();
  }
  std::printf("checked %zu certificate(s), %zu proven claim(s), "
              "%.0f us — all valid\n",
              Certs.size(), Claims, Micros);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string SpecArg = "cmp";
  std::string EngineArg = "scmp-intra";
  std::string ClientPath;
  std::string EmitCertsPath;
  std::string CertsPath;
  std::string StorePath;
  std::string StoreModeArg = "rw";
  std::string SnapshotDir;
  std::string DiffArg;
  std::string BenchLabel;
  bool PrintAbstraction = false;
  bool CheckCerts = false;
  bool CheckOnly = false;
  bool ListFaultSites = false;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--engine=", 9) == 0) {
      EngineArg = Arg + 9;
    } else if (std::strncmp(Arg, "--spec=", 7) == 0) {
      SpecArg = Arg + 7;
    } else if (std::strcmp(Arg, "--print-abstraction") == 0) {
      PrintAbstraction = true;
    } else if (std::strncmp(Arg, "--emit-certs=", 13) == 0) {
      EmitCertsPath = Arg + 13;
    } else if (std::strcmp(Arg, "--check-certs") == 0) {
      CheckCerts = true;
    } else if (std::strcmp(Arg, "--check-only") == 0) {
      CheckOnly = true;
    } else if (std::strncmp(Arg, "--certs=", 8) == 0) {
      CertsPath = Arg + 8;
    } else if (std::strncmp(Arg, "--store=", 8) == 0) {
      StorePath = Arg + 8;
    } else if (std::strncmp(Arg, "--store-mode=", 13) == 0) {
      StoreModeArg = Arg + 13;
    } else if (std::strncmp(Arg, "--store-snapshot=", 17) == 0) {
      SnapshotDir = Arg + 17;
    } else if (std::strncmp(Arg, "--store-diff=", 13) == 0) {
      DiffArg = Arg + 13;
    } else if (std::strncmp(Arg, "--bench-label=", 14) == 0) {
      BenchLabel = Arg + 14;
    } else if (std::strcmp(Arg, "--list-fault-sites") == 0) {
      ListFaultSites = true;
    } else if (Arg[0] == '-') {
      return usage();
    } else if (ClientPath.empty()) {
      ClientPath = Arg;
    } else {
      return usage();
    }
  }

  if (ListFaultSites) {
    for (const std::string &Site : support::faultSites())
      std::printf("%s\n", Site.c_str());
    return 0;
  }
  if (!SnapshotDir.empty())
    return snapshotStore(SnapshotDir);
  if (!DiffArg.empty()) {
    const size_t Comma = DiffArg.find(',');
    if (Comma == std::string::npos)
      return usage();
    return diffStores(DiffArg.substr(0, Comma), DiffArg.substr(Comma + 1));
  }
  if (StoreModeArg != "rw" && StoreModeArg != "ro")
    return usage();
  if (ClientPath.empty() || (CheckOnly && CertsPath.empty()))
    return usage();

  std::string SpecSource;
  if (SpecArg == "cmp")
    SpecSource = easl::cmpSpecSource();
  else if (SpecArg == "grp")
    SpecSource = easl::grpSpecSource();
  else if (SpecArg == "imp")
    SpecSource = easl::impSpecSource();
  else if (SpecArg == "aop")
    SpecSource = easl::aopSpecSource();
  else if (!readFile(SpecArg, SpecSource)) {
    std::fprintf(stderr, "error: cannot read spec '%s'\n", SpecArg.c_str());
    return 2;
  }

  std::string ClientSource;
  if (!readFile(ClientPath, ClientSource)) {
    std::fprintf(stderr, "error: cannot read client '%s'\n",
                 ClientPath.c_str());
    return 2;
  }

  if (CheckOnly)
    return checkOnly(SpecSource, ClientSource, CertsPath);

  const std::optional<core::EngineKind> Engine =
      core::parseEngineName(EngineArg);
  if (!Engine)
    return usage();

  core::CertifierOptions Opts;
  Opts.EmitCertificates = !EmitCertsPath.empty() || CheckCerts;
  Opts.CheckCertificates = CheckCerts;
  Opts.StorePath = StorePath;
  Opts.StoreMode = StoreModeArg == "ro" ? store::StoreMode::ReadOnly
                                        : store::StoreMode::ReadWrite;

  DiagnosticEngine Diags;
  core::Certifier Certifier(SpecSource, *Engine, Diags, {}, Opts);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }
  if (PrintAbstraction)
    std::printf("%s\n", Certifier.abstraction().str().c_str());

  core::CertificationReport Report =
      Certifier.certifySource(ClientSource, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }
  std::printf("%s", Report.str().c_str());

  // Store accounting stays out of the report (so a warm re-run's report
  // is byte-identical to the cold run's): incidents go to stderr, the
  // hit-rate line rides the BENCH_JSON capture idiom on stdout.
  if (Report.Store.Enabled) {
    for (const store::StoreIncident &I : Report.Store.Incidents)
      std::fprintf(stderr, "store: %s: %s: %s\n", I.Kind.c_str(),
                   I.Unit.empty() ? "<store>" : I.Unit.c_str(),
                   I.Detail.c_str());
    // "corpus" names the workload stably across runs — the store path
    // is usually a throwaway tmp dir, useless for joining bench lines.
    std::printf("\nBENCH_JSON {\"bench\":\"store-hit-rate\",\"corpus\":\"%s\","
                "\"path\":\"%s\","
                "\"mode\":\"%s\",\"hits\":%u,\"misses\":%u,\"rejected\":%u,"
                "\"quarantined\":%u,\"writes\":%u}\n\n",
                jsonEscape(BenchLabel.empty() ? ClientPath : BenchLabel)
                    .c_str(),
                jsonEscape(Report.Store.Path).c_str(),
                Report.Store.ReadOnly ? "ro" : "rw", Report.Store.Hits,
                Report.Store.Misses, Report.Store.Rejected,
                Report.Store.Quarantined, Report.Store.Writes);
  }

  if (!EmitCertsPath.empty()) {
    std::vector<uint8_t> Blob =
        cert::serializeCertificates(Report.Certificates);
    if (!writeBinaryFile(EmitCertsPath, Blob)) {
      std::fprintf(stderr, "error: cannot write certificates '%s'\n",
                   EmitCertsPath.c_str());
      return 2;
    }
    std::printf("wrote %u certificate(s), %zu bytes (%llu/%llu entries "
                "stored after pruning) to %s\n",
                Report.CertStats.Count, Blob.size(),
                static_cast<unsigned long long>(Report.CertStats.StoredEntries),
                static_cast<unsigned long long>(Report.CertStats.RawEntries),
                EmitCertsPath.c_str());
  }
  return Report.numFlagged() ? 1 : 0;
}
