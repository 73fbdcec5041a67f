#!/usr/bin/env bash
#
# Captures the TVLA benchmark lines into BENCH_tvla.json: builds the
# default preset, runs the bench drivers that print "BENCH_JSON {...}"
# lines for the relational TVLA engine (plus the
# partitioned-vs-unpartitioned SCMP pipelines series and the
# scmp-interproc cost on the bench suite, "interproc-suite"), and appends
# each line (tagged with a caller-supplied label) to the JSON-lines
# file at the repo root. Also captures the persistent certificate
# store's hit-rate lines (a cold run that fills the store followed by a
# warm run that must answer everything from it) from canvas_certify,
# and the sharded driver's shard-scaling lines from canvas_shard
# (serial reference and 1/2/4/8-way runs over a 200-client corpus) plus
# storeless / cold / warm store timings at 4 workers, each min and
# median of 7 reps.
#
# Usage: tools/bench_capture.sh [label]
#   label   tag recorded with each line (default: "after"); use e.g.
#           "before" when capturing a baseline ahead of a change.
#
# CANVAS_BENCH_OUT overrides the output file (tools/ci.sh points it at
# a scratch file so the bench-smoke gate never dirties the committed
# baseline).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

LABEL="${1:-after}"
OUT="${CANVAS_BENCH_OUT:-$ROOT/BENCH_tvla.json}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS" \
  --target bench_certification bench_scaling bench_interproc \
  canvas_certify canvas_shard >/dev/null

capture() {
  # Keep only the driver's TVLA JSON payloads, the SCMP pipelines
  # series and the interproc-suite line; drop the google-benchmark
  # tables ("--benchmark_filter=NONE" skips the registered benchmarks)
  # and the other BENCH_JSON lines.
  "$1" --benchmark_filter=NONE 2>/dev/null |
    sed -n 's/^BENCH_JSON //p' |
    grep -E '"bench":"(tvla|scmp-pipelines|interproc-suite)' || true
}

# Store hit rate: a cold certify fills the store, the warm rerun must
# serve every unit from it. Both BENCH_JSON store-hit-rate lines are
# captured so a hit-rate regression (warm misses > 0) shows up in the
# series.
capture_store() {
  local dir client
  dir="$(mktemp -d)"
  client="$dir/client.cj"
  cat >"$client" <<'EOF'
class M {
  void main() {
    Set v = new Set();
    Iterator i = v.iterator();
    v.add();
    i.next();
  }
  void other() {
    Set w = new Set();
    Iterator j = w.iterator();
    j.next();
  }
}
EOF
  for run in cold warm; do
    ./build/examples/canvas_certify --store="$dir/store" \
      --bench-label=store-smoke "$client" 2>/dev/null |
      sed -n 's/^BENCH_JSON //p' | grep '"bench":"store' || true
  done
  rm -rf "$dir"
}

# Shard scaling: one generated corpus, then storeless runs of the serial
# reference and of 1/2/4/8 shards, and the store at 4 shards: one
# shard-store-speed line per mode (storeless, cold on a store emptied
# before each rep, warm on a store filled once). Every configuration
# runs 7 reps, interleaved with the others so that a drift in host speed
# spreads over all of them. Each shard-scaling line is the last rep's
# line from canvas_shard with the min and median wall clock and set-up
# (canvas_shard's setup_micros: corpus load and spec check, before the
# first task) of the 7 reps, nproc and the build type added; each
# shard-store-speed line carries the same figures with the last rep's
# store counters.
capture_shard() {
  local dir
  dir="$(mktemp -d)"
  ./build/examples/canvas_shard --generate="$dir/corpus" --count=200 \
    --seed=7 >/dev/null
  python3 - ./build/examples/canvas_shard "$dir" "$(nproc)" \
    "$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)" <<'PYEOF'
import json, shutil, statistics, subprocess, sys

exe, work, nproc, build_type = sys.argv[1:5]
REPS = 7

def run(*args):
    cmd = [exe, "--corpus=" + work + "/corpus", "--no-stream",
           "--out=" + work + "/merged.txt", *args]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    lines = {}
    for line in out.stdout.splitlines():
        if line.startswith("BENCH_JSON "):
            d = json.loads(line[len("BENCH_JSON "):])
            lines[d["bench"]] = d
    return lines

def timing(runs):
    us = [r["shard-scaling"]["micros"] for r in runs]
    setup = [r["shard-scaling"]["setup_micros"] for r in runs]
    return {"reps": REPS, "min_us": min(us),
            "median_us": statistics.median(us),
            "setup_min_us": min(setup),
            "setup_median_us": statistics.median(setup),
            "nproc": int(nproc), "build_type": build_type}

def emit(row):
    print(json.dumps(row, separators=(",", ":")))

scaling = {flag: [] for flag in ("--serial", "--shards=1", "--shards=2",
                                 "--shards=4", "--shards=8")}
for _ in range(REPS):
    for flag, runs in scaling.items():
        runs.append(run(flag, "--bench-label=shard-200"))
for runs in scaling.values():
    emit({**runs[-1]["shard-scaling"], **timing(runs)})

run("--shards=4", "--store=" + work + "/warm")  # Fills the warm store.
modes = {"storeless": [], "cold": [], "warm": []}
for _ in range(REPS):
    for mode, runs in modes.items():
        if mode == "cold":
            shutil.rmtree(work + "/cold", ignore_errors=True)
        store = [] if mode == "storeless" else ["--store=" + work + "/" + mode]
        runs.append(run("--shards=4", *store))
for mode, runs in modes.items():
    row = {"bench": "shard-store-speed", "mode": mode, "clients": 200,
           "shards": 4, **timing(runs)}
    store = runs[-1].get("shard-store")
    if store:
        for key in ("hits", "misses", "writes", "rejected", "quarantined"):
            row[key] = store[key]
    emit(row)
PYEOF
  rm -rf "$dir"
}

{
  capture ./build/bench/bench_certification
  capture ./build/bench/bench_scaling
  capture ./build/bench/bench_interproc
  capture_store
  capture_shard
} | while IFS= read -r line; do
  printf '{"label":"%s","captured":%s}\n' "$LABEL" "$line"
done >>"$OUT"

echo "appended $(grep -c "\"label\":\"$LABEL\"" "$OUT") '$LABEL' line(s) to $OUT"
