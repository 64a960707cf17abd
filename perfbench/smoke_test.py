#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload in both modes.

    python3 perfbench/smoke_test.py

Checks that every end-to-end (--trace 0) and per-layer (--trace 1) metric
declared in BENCHMARK.json is printed with its unit for every workload, that
the correctness checks ran and passed in every process, and that a bad run
length or seed is refused without a result. Exits non-zero on the first
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "0.6"  # split over three processes


def run(*args):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            what = "%s --trace %s" % (w["name"], trace)
            r = run("--workload", w["name"], "--seed", "1", "--seconds",
                    SECONDS, "--trace", trace)
            check(r.returncode == 0, "%s exited %d:\n%s"
                  % (what, r.returncode, r.stderr[-3000:]))
            lines = r.stdout.strip().splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], what + ": result keys")
            check(result["correct"] is True, what + ": not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  what + ": attempted/failed")
            check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                  what + ": metric names")
            for m in wanted:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"] and
                      math.isfinite(got["value"]),
                      "%s: %s = %r" % (what, m["name"], got))
            for p in detail["processes"]:
                checks = p["checks"]
                for name in ("integrity", "log_fill_below_guard",
                             "no_failed_transactions"):
                    check(name in checks, "%s: check %s did not run"
                          % (what, name))
                check("ycsb_index_count" in checks or
                      "tpcc_money_conserved" in checks,
                      what + ": no workload output check ran")
                check(all(c["ok"] for c in checks.values()),
                      what + ": a check failed")
            print("ok   %s (%d metrics)" % (what, len(wanted)))

    name = spec["workloads"][0]["name"]
    for bad in (["--seconds", "0", "--seed", "1"],
                ["--seconds", "-2", "--seed", "1"],
                ["--seconds", "nan", "--seed", "1"],
                ["--seconds", "x", "--seed", "1"],
                ["--seconds", SECONDS, "--seed", "-1"],
                ["--seconds", SECONDS, "--seed", "seven"]):
        r = run("--workload", name, "--trace", "0", *bad)
        check(r.returncode != 0 and r.stdout.strip() == "",
              "accepted bad arguments %s" % bad)
    print("ok   bad run length and seed are refused")


if __name__ == "__main__":
    main()
