#!/usr/bin/env python3
"""End-to-end benchmark of the ``orcbind`` command line.

    python3 perfbench/run.py --workload arn-holds --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; ``orcbind`` is imported from
``src/``.  One workload runs as a closed loop in this one process, one item
at a time: each item is a call of ``orcbind.cli.main(argv)`` with standard
output captured, and its output is checked against the answer its family was
built to give (``families.py``).

Workloads (inputs generated at set-up from ``--seed``):

* ``arn-holds``  ``arn check`` items whose property holds
* ``arn-fails``  ``arn check`` items whose property fails
* ``resolve``    ``solve``, ``ltl entails``, ``pexpr derive`` and ``pexpr check``

A run makes ``PASSES[workload]`` passes over the items; on a 2-CPU host
they take 25 to 45 s, about the 45 s ``run_seconds``.  No pass starts once
1.5 times ``--seconds`` have gone by (three times with ``--trace 1``, which
runs every item twice); a run that therefore makes fewer passes prints no
result and exits 3, so the sample count, and with it the tail percentile, is
the same in every run that reports.  An item is limited to ``LIMIT_S`` seconds.  An
item that raises, runs over the limit or prints a wrong answer is charged
the limit in every timing (PAR-1): one sample of ``LIMIT_S`` for the pass it
failed in and for every later pass, in which it is not run again.

The run fixes ``PYTHONHASHSEED``: string hashes order the sets that the
searches iterate, so inputs that do not depend on the seed are searched in
the same order in every run.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every item is run once untraced
and once traced, and the JSON holds the per-layer metrics (``tracing.py``)
and the tracing overhead.  Lines before it are one JSON row per item and
one ``name value unit`` line per metric.  The exit code is 1 when any
verdict is wrong, 2 when the checkout has no ``src/orcbind`` and 3 when the
passes did not fit in the time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LIMIT_S = 10.0
# Three passes keep the 3 failing arn-holds items (9 charged samples) below
# the tail, which needs TAIL_BEYOND samples above it.  The other workloads
# make as many passes as fit in about 45 s on a 2-CPU host: the host's speed
# drifts by tens of percent over a minute, and only a longer run averages
# that out.  Their tails then fall in the middle of a cluster of like items.
PASSES = {"arn-holds": 3, "arn-fails": 5, "resolve": 4}
LATE = 1.5  # no pass starts after LATE * --seconds (twice that when traced)
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie above the reported tail value
HASH_SEED = "0"


class OverLimit(BaseException):
    """Raised by the interval timer inside an item that ran past the limit."""


def _alarm(signum, frame):
    raise OverLimit()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the input directory is removed


def set_up(workload: str, seed: int, work: Path):
    """Import ``orcbind`` afresh and write the workload's inputs, several
    times; returns the ``families`` module, its items and the median set-up
    time."""
    times = []
    for r in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "orcbind" or n.startswith("orcbind.")]:
            del sys.modules[name]
        sys.modules.pop("families", None)
        root = work / f"inputs{r}"
        gc.collect()
        start = time.perf_counter()
        families = importlib.import_module("families")
        root.mkdir()
        items = families.build(workload, root, seed)
        times.append(time.perf_counter() - start)
    return families, items, statistics.median(times)


def execute(cli, item, tracer=None):
    """Run one item under the limit.

    Returns (seconds, exit code or None, output, error or None, trace or None).
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    gc.collect()
    trace = tracer.begin() if tracer is not None else None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(item.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverLimit:
        error = f"over the {LIMIT_S:g} s limit"
    except Exception as e:  # the item failed; record it and go on with the next
        error = f"{type(e).__name__}: {str(e)[:120]}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end(elapsed)
    return elapsed, code, out.getvalue(), error, trace


def verdict_of(code, out):
    first = out.splitlines()[0] if out else ""
    if first.startswith(("holds", "fails")):
        return first.split(" ", 1)[0].rstrip(":")
    if first in ("yes", "no"):
        return first
    if "final program:" in out:
        return "derived"
    if "=== answer" in out or "no answer" in out:
        return f"{out.count('=== answer ')} answers"
    return f"exit {code}"


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Ledger:
    """Charged times per item and pass."""

    def __init__(self, items):
        self.items = items
        self.times = {it.name: [] for it in items}
        self.failed = {}  # item name -> reason
        self.wrong = set()
        self.runs = {it.name: 0 for it in items}  # executions, without skipped passes

    def record(self, item, elapsed, failure, wrong=False):
        self.runs[item.name] += 1
        if failure is not None:
            self.failed[item.name] = failure
            if wrong:
                self.wrong.add(item.name)
            elapsed = LIMIT_S
        self.times[item.name].append(elapsed)

    def skip(self, item):
        """Charge the limit for a pass in which a failed item is not run."""
        self.times[item.name].append(LIMIT_S)

    def end_to_end(self, passes):
        samples = [t for ts in self.times.values() for t in ts]
        pass_sums = [sum(ts[p] for ts in self.times.values()) for p in range(passes)]
        medians = [statistics.median(ts) for ts in self.times.values()]
        tail_s, _ = tail(samples)
        return {
            "batch_s": statistics.median(pass_sums),
            "verdict_geomean_s": math.exp(statistics.fmean(math.log(t) for t in medians)),
            "verdict_p50_s": statistics.median(samples),
            "verdict_tail_s": tail_s,
            "decided_frac": (len(self.items) - len(self.failed)) / len(self.items),
        }


def run(args, families, items):
    cli = families.cli
    tracer = None
    if args.trace:
        import tracing

        modules = tracing.orcbind_modules()
        tracer = tracing.install(modules, modules["muller"].guard_mask)
    plain, traced = Ledger(items), Ledger(items)
    traces = {it.name: [] for it in items}
    verdicts = {}
    passes = 0
    budget = LATE * args.seconds * (2 if args.trace else 1)
    started = time.perf_counter()
    for p in range(PASSES[args.workload]):
        if p and time.perf_counter() - started > budget:
            break
        passes += 1
        for item in items:
            if item.name in plain.failed:
                plain.skip(item)
                if tracer is not None:
                    traced.skip(item)
                continue
            elapsed, code, out, error, _ = execute(cli, item)
            wrong = None if error else families.check_output(item, code, out)
            verdicts[item.name] = error or (f"wrong: {wrong}" if wrong else verdict_of(code, out))
            plain.record(item, elapsed, error or wrong, wrong=wrong is not None)
            if tracer is not None:
                if item.name in traced.failed:
                    traced.skip(item)
                    continue
                elapsed, code, out, error, trace = execute(cli, item, tracer)
                traced.record(item, elapsed, error or families.check_output(item, code, out))
                traces[item.name].append((elapsed, trace))
    return plain, traced, traces, verdicts, passes


def item_rows(workload, plain, traces, verdicts, tracing_mod):
    out = []
    for it in plain.items:
        row = {
            "workload": workload,
            "item": it.name,
            "family": it.family,
            "size": it.size,
            "verdict": verdicts[it.name],
            "median_s": statistics.median(plain.times[it.name]),
            "executions": plain.runs[it.name],
        }
        if traces[it.name]:
            row["traced_median_s"] = statistics.median(t for t, _ in traces[it.name])
            row["counts"] = tracing_mod.item_counts(traces[it.name][0][1])
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if not (SRC / "orcbind" / "__init__.py").is_file():
        print(f"error: no orcbind sources under {SRC}", file=sys.stderr)
        return 2
    # String hashes order the sets the searches iterate, so they change how
    # long a search takes.  They are fixed: the process is replaced once
    # (same pid, no child) by one with PYTHONHASHSEED set.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        families, items, setup_s = set_up(args.workload, args.seed, Path(work))
        # objects alive after set-up are never garbage: keep the collection
        # that precedes each item from walking them
        gc.collect()
        gc.freeze()
        plain, traced, traces, verdicts, passes = run(args, families, items)
    if passes < PASSES[args.workload]:
        print(f"error: {args.workload} made {passes} of {PASSES[args.workload]} passes before"
              f" the cut-off; the sample count would change, so no result", file=sys.stderr)
        return 3
    metrics = {"setup_s": (setup_s, "s")}
    for name, value in plain.end_to_end(passes).items():
        metrics[name] = (value, "ratio" if name == "decided_frac" else "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wrong = len(plain.wrong)

    tracing_mod = sys.modules.get("tracing")
    for row in item_rows(args.workload, plain, traces, verdicts, tracing_mod):
        print(json.dumps(row, sort_keys=True))
    samples = sum(len(ts) for ts in plain.times.values())
    _, pct = tail(t for ts in plain.times.values() for t in ts)
    print(f"# {args.workload}: {len(items)} items, {passes} passes, {samples} samples"
          f" ({sum(plain.runs.values())} executions, {len(plain.failed)} items failed),"
          f" tail = p{pct:.1f}, limit {LIMIT_S:g} s, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"wrong_verdicts {wrong} count")

    if args.trace:
        per_item = []
        for it in items:
            runs = traces[it.name]
            names = set().union(*(t.self_s for _, t in runs))
            times = {n: statistics.median(t.self_s.get(n, 0.0) for _, t in runs) for n in names}
            per_item.append((times, tracing_mod.item_counts(runs[0][1])))
        layer = tracing_mod.layer_metrics(per_item)
        traced_batch = traced.end_to_end(passes)["batch_s"]
        layer["tracing.batch_s"] = traced_batch
        layer["tracing.overhead_s"] = traced_batch - metrics["batch_s"][0]
        units = {**tracing_mod.UNITS, "tracing.batch_s": "s", "tracing.overhead_s": "s"}
        for name, value in layer.items():
            print(f"{name} {value:.6g} {units[name]}")
        reported = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(plain.runs.values()),
        "failed": len(plain.failed),
        "metrics": reported,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
