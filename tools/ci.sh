#!/usr/bin/env bash
#
# Local CI gate: strict (-Werror) build, sanitizer build, the full test
# suite under both, and clang-tidy over src/ when the binary is
# available. Run from anywhere; exits non-zero on the first failure.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

# Hard wall-clock ceiling per ctest invocation: a hung fixpoint loop
# must fail the gate, not wedge it.
CTEST_TIMEOUT="${CTEST_TIMEOUT:-600}"

step() { printf '\n=== %s ===\n' "$*"; }

run_ctest() { timeout "$CTEST_TIMEOUT" ctest "$@"; }

step "strict configure + build (-Werror)"
cmake --preset strict
cmake --build --preset strict -j "$JOBS"

step "strict test suite"
run_ctest --preset strict -j "$JOBS"

step "sanitize configure + build (ASan + UBSan)"
cmake --preset sanitize
cmake --build --preset sanitize -j "$JOBS"

step "sanitize test suite"
run_ctest --preset sanitize -j "$JOBS"

step "asan: tvla / boolprog / cert suites (arena + packed-word paths)"
# The arena/flat-structure representations hand out raw word buffers
# and recycle them per fixpoint visit; run the suites that exercise
# those paths (plus their reset-reuse and differential regression
# tests) as a named ASan pass so a use-after-reset or overflow in the
# packed codecs is called out here, not buried in the full suite.
# ParallelEngine adds the certifier's per-unit loop with units answered
# from the certificate store.
run_ctest --preset sanitize -j "$JOBS" \
  -R 'Arena|StateVec|Structure|TVLA|Intraprocedural|Interprocedural|Witness|Cert|Checker|SlicePartition|BuildGolden|CorpusWitness|PreAnalysisDifferential|ParallelEngine'

step "perfbench package: build + helper tests"
# perfbench/ is a CMake package of its own (it builds ../src with the
# benchmark binary), so the repo's ctest never sees its helper tests
# (statistics, stream clock, trace writer); build it in a scratch dir
# and run them here.
PERFBENCH_DIR="$(mktemp -d)"
cmake -S perfbench -B "$PERFBENCH_DIR" >/dev/null
cmake --build "$PERFBENCH_DIR" -j "$JOBS" --target perfbench perfbench_test
"$PERFBENCH_DIR/perfbench_test"
rm -rf "$PERFBENCH_DIR"

step "bench smoke: grinder tvla-relational and suite scmp-interproc vs committed baseline"
# Captures a fresh BENCH_tvla line set into a scratch file (default
# preset, warm min-of-N timings) and fails if the grinder client's
# tvla-relational-perf time, or the bench suite's scmp-interproc total
# (interproc-suite), regressed more than 2x against the newest line
# committed in BENCH_tvla.json.
BENCH_TMP="$(mktemp)"
CANVAS_BENCH_OUT="$BENCH_TMP" tools/bench_capture.sh ci-smoke
python3 - "$BENCH_TMP" <<'PYEOF'
import json, sys

def grinder_us(path):
    best = None
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        c = d["captured"]
        if c.get("bench") != "tvla-relational-perf":
            continue
        for cl in c["clients"]:
            if cl["name"] == "grinder":
                best = cl["us"]  # Last matching line = newest capture.
    return best

def interproc_total_us(path):
    best = None
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        c = json.loads(line)["captured"]
        if c.get("bench") == "interproc-suite":
            best = c["interproc_total_us"]  # Newest capture wins.
    return best

for what, read in (("grinder tvla-relational", grinder_us),
                   ("suite scmp-interproc", interproc_total_us)):
    base = read("BENCH_tvla.json")
    new = read(sys.argv[1])
    if base is None or new is None:
        sys.exit(f"bench smoke: missing {what} line")
    print(f"{what}: baseline {base:.1f}us, current {new:.1f}us")
    if new > 2.0 * base:
        sys.exit(f"bench smoke FAILED: {what} {new:.1f}us > 2x "
                 f"baseline {base:.1f}us")
PYEOF
rm -f "$BENCH_TMP"

step "tsan configure + build (ThreadSanitizer)"
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

step "tsan: concurrent certifiers, budget, and shard scheduler"
# One certify() call stays on its caller's thread, but separate
# certifiers may run on separate threads (perfbench's ground-truth pass
# does). ConcurrentCertifiersTest starts two threads explicitly, so TSan
# sees real concurrency even on single-core runners; any data race in
# the state they share (the fault-probe state, tvp::internLayout's pool,
# a certifier's store cache) fails the gate, and
# CrossWorkerArenasAreIsolated runs one arena per thread. The shard
# determinism tests drive the multi-process scheduler (fork+exec is
# TSan-safe; the fork-without-exec StoreContention tests are NOT in this
# regex for that reason — they run under the sanitize preset).
run_ctest --preset tsan -j "$JOBS" \
  -R 'ParallelCertifierTest|ParallelEngineTest|ConcurrentCertifiersTest|CrossWorkerArenasAreIsolated|BudgetTest|ShardProtocolTest|ShardDeterminismTest'

step "ubsan configure + build (UBSan only)"
cmake --preset ubsan
cmake --build --preset ubsan -j "$JOBS"

step "ubsan: certificate and engine suites"
# The certificate codecs shift and mask raw bytes and the checker
# replays engine transfer functions over untrusted payloads: run the
# cert suite plus every engine suite under UBSan alone (no ASan
# interposition), so integer/shift/bounds UB surfaces directly.
run_ctest --preset ubsan -j "$JOBS" \
  -R 'Cert|Checker|Intraprocedural|Interprocedural|Ifds|Solver|TVLA|Structure|Baseline|Certifier|Store|CrashRecovery|InputHash|BuildGolden|CorpusWitness|PreAnalysisDifferential'

step "store crash-recovery suite (sanitize)"
# The persistent-store suite injects a crash (exception and torn short
# write) at every append probe and at the recovery probe of open, feeds
# the log torn tails, corrupt records and the hostile-framing fuzz
# corpus, and checks one certifier's store across calls and processes;
# run it on its own so a store regression is named in the CI log, not
# buried in the full suite.
run_ctest --preset sanitize -j "$JOBS" \
  -R 'CrashRecovery|CertStoreTest|StoreIncremental|StoreContention|InputHash'

step "store smoke: warm sharded run vs storeless"
# The store must make re-certification cheaper, not dearer: a warm run
# at 4 shards must answer every unit from the store and take at most 3x
# the storeless wall clock (each the minimum of 3 runs; default preset,
# since sanitizer timings say nothing).
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS" --target canvas_shard >/dev/null
SMOKE_DIR="$(mktemp -d)"
./build/examples/canvas_shard --generate="$SMOKE_DIR/corpus" --count=64 \
  --seed=5 >/dev/null
python3 - ./build/examples/canvas_shard "$SMOKE_DIR" <<'PYEOF'
import json, subprocess, sys

exe, work = sys.argv[1], sys.argv[2]

def run(store=None):
    cmd = [exe, "--corpus=" + work + "/corpus", "--shards=4", "--no-stream",
           "--out=" + work + "/merged.txt"]
    if store:
        cmd.append("--store=" + work + "/" + store)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    lines = {}
    for line in out.stdout.splitlines():
        if line.startswith("BENCH_JSON "):
            d = json.loads(line[len("BENCH_JSON "):])
            lines[d["bench"]] = d
    return lines

cold = run("store")
if cold["shard-store"]["writes"] == 0:
    sys.exit("store smoke FAILED: the cold run wrote nothing")
storeless = min(run()["shard-scaling"]["micros"] for _ in range(3))
warm = []
for _ in range(3):
    r = run("store")
    if r["shard-store"]["misses"] != 0:
        sys.exit("store smoke FAILED: warm run missed %d unit(s)"
                 % r["shard-store"]["misses"])
    warm.append(r["shard-scaling"]["micros"])
print("storeless %dus, warm %dus (%.2fx)" % (storeless, min(warm),
                                             min(warm) / storeless))
if min(warm) > 3 * storeless:
    sys.exit("store smoke FAILED: warm run slower than 3x storeless")
PYEOF
rm -rf "$SMOKE_DIR"

step "shard: multi-process determinism vs serial (sanitize)"
# The sharded certification driver must merge to a report byte-identical
# to the serial run at every shard count. Exercise the real corpus flow
# end to end on the sanitize build: generate a corpus, take one serial
# reference, then diff 1/2/4-way sharded runs against it.
SHARD_BIN=./build-sanitize/examples/canvas_shard
SHARD_DIR="$(mktemp -d)"
"$SHARD_BIN" --generate="$SHARD_DIR/corpus" --count=32 --seed=11
"$SHARD_BIN" --corpus="$SHARD_DIR/corpus" --serial --no-stream \
  --out="$SHARD_DIR/serial.txt" >/dev/null
for n in 1 2 4; do
  "$SHARD_BIN" --corpus="$SHARD_DIR/corpus" --shards="$n" --no-stream \
    --out="$SHARD_DIR/shard$n.txt" >/dev/null
  cmp "$SHARD_DIR/serial.txt" "$SHARD_DIR/shard$n.txt"
done
rm -rf "$SHARD_DIR"

step "fault-injection pass (sanitize, every probe site)"
# Arms one environment fault per probe site and re-runs the env-fault
# smoke test: every engine must degrade gracefully, never crash. The
# site list is asked of the binary itself (--list-fault-sites reads
# support::faultSites()), so a newly added probe site is exercised here
# without editing this script.
FAULT_SITES="$(./build-sanitize/examples/canvas_certify --list-fault-sites)"
for site in $FAULT_SITES; do
  printf -- '--- CANVAS_FAULT=%s:1 ---\n' "$site"
  CANVAS_FAULT="$site:1" run_ctest --preset sanitize \
    -R RobustnessEnvFault -j "$JOBS"
done
# store-commit, the only site that writes log bytes, additionally honors
# torn short writes.
for site in store-commit; do
  printf -- '--- CANVAS_FAULT=%s:1:short ---\n' "$site"
  CANVAS_FAULT="$site:1:short" run_ctest --preset sanitize \
    -R RobustnessEnvFault -j "$JOBS"
done

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy over src/"
  # The strict build dir carries the compilation database.
  cmake --preset strict -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 1 clang-tidy -p build-strict --quiet
else
  step "clang-tidy not found; skipping lint"
fi

# The static analyzer gates the two trust-sensitive subsystems: the
# Stage-0 dataflow layer (definite assignment, slicing) and the
# certificate layer (emitters + independent checker), where a latent
# null-deref or uninitialized read could silently accept a bad
# certificate.
if command -v clang >/dev/null 2>&1 &&
   clang --analyze -x c++ /dev/null -o /dev/null >/dev/null 2>&1; then
  step "clang static analyzer over src/dataflow and src/cert"
  find src/dataflow src/cert -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 1 clang --analyze --analyzer-output text \
      -std=c++20 -Isrc -Werror
else
  step "clang analyzer not found; skipping analysis"
fi

step "CI gate passed"
