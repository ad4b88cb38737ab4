#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at a small size.

    python3 perfbench/smoke_test.py

Checks that perfbench/interactions.json covers BENCHMARK.json, then three
things through perfbench/run.py --smoke:
  1. every metric BENCHMARK.json declares is printed with its unit, in the
     untraced run (end_to_end) and in the traced run (per_layer), and the
     traced run writes its spans;
  2. a deliberately corrupted fill pattern is caught, counted as a failed
     operation, and fails the run;
  3. two runs with the same seed give identical deterministic values.
Exit status 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
DETERMINISTIC_E2E = ("design_peak_B", "footprint_gain_pct")
DETERMINISTIC_LAYER = ("core.work_steps_per_event", "core.splits",
                       "core.coalesces", "core.chunks_grown",
                       "core.chunks_released", "runtime.cacheoff_peak_B",
                       "search.evaluations", "search.simulations",
                       "search.cache_hits", "arena.requests",
                       "arena.releases", "arena.peak_B")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with open(os.path.join(HERE, "interactions.json")) as f:
        interactions = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    expect(set(interactions["workloads"]) == workloads,
           "interactions.json describes every workload")
    expect({m["name"] for m in spec["per_layer"]} ==
           set(interactions["per_layer"]),
           "interactions.json maps every per-layer metric")
    expect(all(mv["metric"] in e2e and mv["workload"] in workloads
               for entry in interactions["per_layer"].values()
               for mv in entry["moves"]),
           "every predicted move names a declared metric and workload")

    runs = {}
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for attempt in (1, 2):
            rc, result, err = run("design", trace)
            runs[(trace, attempt)] = result
            expect(rc == 0 and result is not None and result["correct"],
                   f"trace {trace} run {attempt} passes its checks"
                   + ("" if rc == 0 else f" (exit {rc}: {err[-500:]})"))
            if result is None:
                continue
            for m in declared:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       f"trace {trace} prints {m['name']} in {m['unit']}")
    spans = os.path.join(ROOT, ".bench_build", "spans",
                         f"design-seed{SEED}.jsonl")
    with open(spans) as f:
        span_lines = sum(1 for line in f if line.startswith('{"span"'))
    expect(span_lines > 0, f"traced run wrote {span_lines} spans")

    rc, result, _ = run("deploy", 0, "--corrupt-fill")
    expect(rc != 0 and result is not None and not result["correct"]
           and result["failed"] >= 1,
           "a corrupted fill pattern is caught and counted"
           + (f" (failed={result['failed']})" if result else ""))

    pairs = [(0, name) for name in DETERMINISTIC_E2E]
    pairs += [(1, name) for name in DETERMINISTIC_LAYER]
    for trace, name in pairs:
        a = runs[(trace, 1)]["metrics"][name]["value"]
        b = runs[(trace, 2)]["metrics"][name]["value"]
        expect(a == b, f"{name} repeats for one seed ({a} vs {b})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
