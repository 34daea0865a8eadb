#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` (one process at a time) ``--runs`` times per workload in each
of two sets, each run with its own seed (1, 2, ...), then once traced per
workload.  For every end-to-end metric of ``BENCHMARK.json`` it prints each
set's median and spread (the distance between the first and third quartile
as a share of the median), whether the spread is within the metric's bound
and whether the second median is worse than the
first by more than the bound.  The traced run adds the tracing overhead:
traced minus untraced ``batch_s``.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong verdicts")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s, results in enumerate(sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                results[w].append(run_once(w, seed, seconds, 0))
                print(f"set {s + 1} seed {seed} {w}: batch_s {results[w][-1]['batch_s']:.4f}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':10} {'metric':18} {'median1':>11} {'spread1':>8} {'median2':>11} "
          f"{'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v1 = [r[name] for r in sets[0][w]]
            v2 = [r[name] for r in sets[1][w]]
            s1, s2 = spread(v1), spread(v2)
            med1, med2 = statistics.median(v1), statistics.median(v2)
            worse = worse_by(med1, med2, m["better"])
            fails = []
            if max(s1, s2) > bound:
                fails.append("spread over bound")
            if worse > bound:
                fails.append("second median worse than bound")
            ok &= not fails
            note = "; ".join(fails) or ("ok" if max(s1, s2) < bound / 3
                                         else "ok (spread above a third of the bound)")
            print(f"{w:10} {name:18} {med1:11.5g} {s1:8.2%} {med2:11.5g} {s2:8.2%} "
                  f"{worse:7.2%} {bound:6.2f}  {note}")
    for w in workloads:
        traced = run_once(w, 1, seconds, 1)
        plain = statistics.median(r["batch_s"] for r in sets[0][w] + sets[1][w])
        print(f"{w:10} tracing overhead: traced batch_s {traced['tracing.batch_s']:.4g} s, "
              f"untraced median {plain:.4g} s, difference {traced['tracing.batch_s'] - plain:.4g} s "
              f"(same run: {traced['tracing.overhead_s']:.4g} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
