#!/usr/bin/env python3
"""Benchmark of record: builds the library and the perfbench program from
source, then runs one workload and prints its metrics.

    python3 perfbench/run.py --workload join_cosine --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory; each run's inputs are
generated from the seed into a fresh directory there and deleted at exit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
the build succeeded and every answer checked out. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("join_cosine", "serve_cosine_sharded", "update_jaccard")
HERE = os.path.dirname(os.path.abspath(__file__))
# Budget for prepare + run together, after the build.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    cmake_dir = os.path.join(build_dir, "cmake")
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def check_result(line, trace):
    """The JSON line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    spec_path = "BENCHMARK.json"
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    ok = True
    for m in want:
        if got.get(m["name"], {}).get("unit") != m["unit"]:
            log("metric %s missing or not in %s" % (m["name"], m["unit"]))
            ok = False
    extra = set(got) - {m["name"] for m in want}
    if extra:
        log("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))
        ok = False
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the steadiness self-test: smaller corpora.
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2

    work = os.path.join(build_dir, "runs",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--dir", work, "--scale", repr(args.scale)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        r = subprocess.run([binary, "prepare"] + common,
                           stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            log("prepare failed")
            return 1
        trace_out = os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))
        run = subprocess.run(
            [binary, "run"] + common + ["--trace-out", trace_out],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 3) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log("run failed with exit code %d" % run.returncode)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not check_result(lines[-1], args.trace == 1):
        return 4
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
