#!/usr/bin/env python3
"""Steadiness self-test of the benchmark of record.

    python3 perfbench/selftest.py

Runs every workload twice untraced and twice traced, at a tenth of the
corpus size with one seed, and asserts:
  * every run exits 0 and reports correct answers;
  * every end-to-end metric is present with its unit and is not 0;
  * recall and within_delta_frac repeat exactly (same seed, same answers);
  * every count, byte and deterministic ratio metric of the traced run
    repeats exactly, except the two-thread join's verification hash tally,
    which core/pipeline.h documents may vary with the thread count;
  * lsh.hashes_grown_timed is 0 (the warm-up pass covered lazy growth).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
WORKLOADS = ("join_cosine", "serve_cosine_sharded", "update_jaccard")
# Ratios computed from fixed passes (not from timing), so they repeat.
DETERMINISTIC_RATIOS = {
    "candgen.dedup_ratio", "bayes_lsh.pruned_frac",
    "bayes_lsh.round1_survivor_frac", "inference_cache.hit_rate",
    "sharded_index.shards_answered_frac", "client.failed_frac",
}
# core/pipeline.h: hashing tallies of a multi-threaded join may vary.
THREAD_DEPENDENT = {"lsh.join_verify_hashes"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--scale", "0.1"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    last = r.stdout.strip().split("\n")[-1]
    assert r.returncode == 0, "%s trace=%d exited %d\n%s" % (
        workload, trace, r.returncode, r.stderr[-2000:])
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for w in WORKLOADS:
        e2e = [run(w, 0), run(w, 0)]
        for m in spec["end_to_end"]:
            got = e2e[0].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  "%s: %s missing or not in %s" % (w, m["name"], m["unit"]))
            check(got is None or got["value"] != 0,
                  "%s: %s is 0" % (w, m["name"]))
        for name in ("recall", "within_delta_frac"):
            check(e2e[0][name]["value"] == e2e[1][name]["value"],
                  "%s: %s differs between runs of one seed" % (w, name))

        layer = [run(w, 1), run(w, 1)]
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            exact = unit in ("count", "B") or name in DETERMINISTIC_RATIOS
            if not exact or name in THREAD_DEPENDENT:
                continue
            a, b = (r[name]["value"] for r in layer)
            check(a == b, "%s: %s differs: %r vs %r" % (w, name, a, b))
        check(layer[0]["lsh.hashes_grown_timed"]["value"] == 0,
              "%s: lazy hashing grew during the steady phase" % w)
        print("selftest: %s ok" % w, flush=True)

    for f in failures:
        print("selftest: FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
