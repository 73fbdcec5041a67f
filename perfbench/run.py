#!/usr/bin/env python3
"""Runs one workload of the canvas benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload corpus-warm --seed 3 --seconds 20 --trace 0

Builds perfbench/ (which builds the program from ../src) under
.bench_build/, writes the corpus, runs the correctness pass once per input
set and version of the sources (cached), then runs the measured run
(--trace 0) or the traced run (--trace 1), each in a process of its own.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
Exits non-zero on a build failure or on any failed operation.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("suite-engines", "corpus-storeless", "corpus-cold", "corpus-warm")
# A shard worker reports a store incident on stderr as
# "shard[<pid>] store: <kind>: <unit>: <detail>"; each one is a failed
# operation.
INCIDENT = re.compile(r"^shard\[\d+\] store: ")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(argv, timeout, log=None):
    """Runs argv to completion; returns (returncode, stdout, stderr).
    Temporary files (the compiler's too) stay inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout,
                              env=dict(os.environ, TMPDIR=tmp))
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(argv)))
    if log:
        with open(log, "a") as out:
            out.write(proc.stdout + proc.stderr)
    return proc.returncode, proc.stdout, proc.stderr


def build():
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under %s/src" % ROOT)
    tree = os.path.join(BUILD, "perfbench")
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tree, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        code, out, err = run(step, 850, log)
        if code:
            sys.stderr.write((out + err)[-4000:])
            fail("build failed (log: %s)" % log)
    return os.path.join(tree, "perfbench")


def source_digest():
    """SHA-256 over the program sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for sub in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "none (not a git checkout)"


def tagged(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7,
                    help="orders the suite's calls or the corpus' clients")
    ap.add_argument("--corpus-seed", type=int, default=7,
                    help="the generated corpus' content (default: the "
                         "ROADMAP's corpus)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    sources = source_digest()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    corpus = os.path.join(work, "corpus-%d" % args.corpus_seed)
    if not os.path.isdir(corpus):
        code, out, err = run([exe, "gen", "--corpus", corpus + ".tmp",
                              "--corpus-seed", str(args.corpus_seed)], 120)
        if code:
            fail("corpus generation failed: " + err)
        os.rename(corpus + ".tmp", corpus)

    def reference(workload):
        """The correctness pass's reference file for this seed and these
        sources, computed in a process of its own when missing. It is
        named after the sources, so code that changes report bytes or
        ground-truth counts is never held to an older commit's
        reference. Ground truth itself is cached per client source,
        engine and report, so only the first pass over new reports is
        slow."""
        kind = "suite" if workload == "suite-engines" else "corpus"
        ref = os.path.join(work, "ref-%s-c%d-s%d-%s.txt"
                           % (kind, args.corpus_seed, args.seed, sources))
        argv = ["--workload", workload, "--seed", str(args.seed),
                "--corpus-seed", str(args.corpus_seed), "--corpus", corpus,
                "--work", work, "--ref", ref]
        if not os.path.isfile(ref):
            code, out, err = run([exe, "truth"] + argv, 850)
            sys.stderr.write(out + err)
            if code:
                fail("correctness pass failed")
        return argv

    # The first run of new sources (a new checkout included) is the one
    # allowed a long set-up: fill the ground-truth cache of both input
    # sets there.
    if not glob.glob(os.path.join(work, "ref-*-%s.txt" % sources)):
        reference("suite-engines" if args.workload != "suite-engines"
                  else "corpus-storeless")
    common = reference(args.workload)

    if args.trace:
        trace_out = os.path.join(work, "trace-%s-s%d.json"
                                 % (args.workload, args.seed))
        code, out, err = run([exe, "trace"] + common +
                             ["--trace-out", trace_out], 170)
        result = tagged(out, "PERFBENCH_LAYERS")
    else:
        code, out, err = run([exe, "measure"] + common +
                             ["--seconds", str(args.seconds)],
                             args.seconds + 150)
        result = tagged(out, "PERFBENCH_RESULT")
    sys.stderr.write(err)
    if code or result is None:
        fail("run failed (exit %d)" % code)
    for line in out.splitlines():
        if not line.startswith("PERFBENCH_"):
            print(line)

    incidents = [l for l in err.splitlines() if INCIDENT.match(l)]
    failed = result["failed"] + len(incidents)
    failures = result["failures"] + incidents[:4]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "corpus_digest": result["corpus_digest"],
        "nproc": os.cpu_count(), "shards": result["shards"],
        "build_type": result["build_type"], "compiler": result["compiler"],
        "git_commit": git_commit(), "source_digest": sources,
        "trace": args.trace,
    }
    print("PERFBENCH_META " + json.dumps(meta, sort_keys=True))
    print("%-28s %14s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, m in result["metrics"].items():
        value = "absent" if m.get("absent") else "%.6g" % m["value"]
        print("%-28s %14s  %-6s %s" % (name, value, m["unit"],
                                       m.get("samples", "")))
    for why in failures:
        print("failure: " + why)
    print("attempted %d, failed %d" % (result["attempted"], failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
