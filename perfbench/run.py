#!/usr/bin/env python3
"""End-to-end benchmark of the Spitfire engine.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-hot --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the repository root.
The first run configures and builds perfbench/ (the engine library from src/
plus perfbench.cc) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only re-check the build. Three processes split the run length and
each printed metric is the median over them: --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics (each process runs an untraced and
then a traced window).

Output: one detail line (host, source revision, date, seed, config, checks,
sample counts), then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. A bad argument, a failed build
or a failed correctness check exits non-zero without the result line.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def positive_seconds(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not math.isfinite(v) or v <= 0:
        raise argparse.ArgumentTypeError("must be a positive number: %r" % text)
    return text


def seed(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("must be an integer >= 0: %r" % text)
    return text


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """git sha when run in a git checkout, and a digest of src/ + perfbench/
    so a plain source tree is identified too."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()[:16]


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=seed)
    p.add_argument("--seconds", required=True, type=positive_seconds)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    binary = build()
    trace = args.trace == "1"
    # PROCESSES independent processes share the run length and each metric
    # is the median over them, which re-rolls per-process effects (thread
    # placement on the host, memory layout) and bounds the log each one
    # writes. With --trace 1 each process runs an untraced and then a
    # traced window.
    seconds = repr(float(args.seconds) / PROCESSES)
    deadline = time.monotonic() + 170
    runs = []
    for _ in range(PROCESSES):
        cmd = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", seconds, "--trace", args.trace]
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("%s timed out" % " ".join(cmd))
        try:
            out = json.loads(r.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            fail("no result from %s (exit %d)" % (binary, r.returncode))
        if r.returncode != 0 or not out.get("correct"):
            bad = [k for k, c in out.get("checks", {}).items() if not c["ok"]]
            fail("correctness check failed: %s"
                 % ", ".join(bad or ["exit %d" % r.returncode]))
        runs.append(out)

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = [o["metrics"].get(m["name"]) for o in runs]
        if any(g is None or g.get("unit") != m["unit"] for g in got):
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {
            "value": statistics.median(g["value"] for g in got),
            "unit": m["unit"]}

    sha, digest = source_revision()
    detail = {
        "bench": "perfbench",
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 "kernel": platform.release()},
        "git_sha": sha,
        "source_digest": digest,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
    }
    detail["processes"] = runs
    print(json.dumps(detail))
    print(json.dumps({
        "correct": True,
        "attempted": sum(o["committed"] + o["aborted"] + o["failed"]
                         for o in runs),
        "failed": sum(o["failed"] for o in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
