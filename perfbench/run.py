#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload design|sec5|deploy --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the benchmark and
the library from this checkout's sources into .bench_build/perfbench.
The last stdout line is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes its spans to
.bench_build/spans/).  The exit code is 0 only when the build succeeded,
every check passed and every declared metric was measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step {cmd[:2]} exited {done.returncode}")
            return False
    return os.path.exists(BINARY)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (the smoke test)")
    ap.add_argument("--corrupt-fill", action="store_true",
                    help="break one fill pattern on purpose (the smoke test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2
    if not build():
        return 1

    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir = os.path.join(BUILD_ROOT, "work", tag)
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--git-rev", git_rev(),
           "--spans", os.path.join(spans_dir,
                                   f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_fill:
        cmd.append("--corrupt-fill")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from the benchmark (exit {done.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        log(f"declared metrics not measured: {', '.join(missing)}")
    correct = done.returncode == 0 and raw["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
