"""Time-to-verdict benchmark for ``dpa``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process per workload, one client in a closed loop, no threads, and
``DPA_WORKERS`` unset (one worker).  Each verdict runs the whole path from
model text: ``dsl.parse_network`` -> ``dsl.elaborate`` ->
``dsl.parse_descriptor`` -> ``report.run_dpa`` -> ``DpaReport.summary()``,
and every sample is checked against the workload's known answer.

The shared 2-core machine this was tuned on runs everything up to 35%
slower for minutes at a time.  So a fixed piece of pure-Python work, the
gauge, runs right before and right after every sample, and every reported
time is the sample's wall time rescaled to the speed at which the gauge
takes ``GAUGE_SECONDS``.  Raw wall times are printed beside the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (see ``spans.py``) and prints the
per-layer metrics, with the tracing overhead as the ratio of the two
median verdict times.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9
GAUGE_SECONDS = 0.025  # about what one gauge() took on the machine tuned on
GAUGE_RESULT = (4096, 30720)


def reference_work(n=6, k=4):
    """Fixed work for the gauge: a breadth-first search over the product of
    six 4-state counters, with tuple states, a parents dict, sorted rows and
    frozensets, as in dpa's own inner loops.  It uses no dpa code, so no
    change to dpa moves it."""
    start = (0,) * n
    parents = {start: None}
    queue = deque([start])
    labels = 0
    while queue:
        s = queue.popleft()
        row = []
        for i in range(n):
            t = s[:i] + ((s[i] + 1) % k,) + s[i + 1:]
            row.append((i, t))
            j = (i + 1) % n
            if s[i] == s[j]:
                u = list(t)
                u[j] = (u[j] + 1) % k
                row.append((n + i, tuple(u)))
        row.sort()
        labels += len(frozenset(label for label, _t in row))
        for label, t in row:
            if t not in parents:
                parents[t] = (s, label)
                queue.append(t)
    return len(parents), labels


def gauge():
    """Seconds the reference work takes right now."""
    start = time.perf_counter()
    if reference_work() != GAUGE_RESULT:
        raise RuntimeError("the gauge's reference work computed a wrong result")
    return time.perf_counter() - start


def gauged(fn):
    """(result, wall seconds, scale) of ``fn()``, where ``scale`` rescales
    the wall time to gauge speed, gauged right before and right after."""
    before = gauge()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, 2 * GAUGE_SECONDS / (before + gauge())


def import_dpa():
    """A fresh import of ``dpa`` from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "dpa" or n.startswith("dpa.")]:
        del sys.modules[name]
    dpa = importlib.import_module("dpa")
    importlib.import_module("dpa.models")
    if Path(dpa.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"dpa imported from {dpa.__file__}, not from {SRC}")
    return dpa


def setup(workload):
    """Import ``dpa`` and generate the workload's texts, several times;
    returns the last import, its instances and the median set-up time."""
    def once():
        dpa = import_dpa()
        return dpa, workload.instances(dpa.models)

    times = []
    for _ in range(SETUP_REPEATS):
        (dpa, instances), wall, scale = gauged(once)
        times.append(wall * scale)
    return dpa, instances, statistics.median(times)


def verdict(dpa, inst):
    net = dpa.dsl.elaborate(dpa.dsl.parse_network(inst.model))
    descriptors = (
        [dpa.dsl.parse_descriptor(inst.descriptor, net)] if inst.descriptor else []
    )
    report = dpa.report.run_dpa(
        net, descriptors, with_oracle=inst.with_oracle, model_name=inst.label
    )
    return report, report.summary()


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 10
    if k < math.ceil(n / 2):
        return statistics.median(ordered), 50.0
    return ordered[k - 1], 100.0 * k / n


class Run:
    """Seeded passes over the workload's instances, with the outcome tally."""

    def __init__(self, dpa, instances, seed):
        self.dpa = dpa
        self.instances = instances
        self.rng = random.Random(seed)
        self.attempted = 0
        self.ok = 0
        self.failures = []

    def one_pass(self, tracer=None):
        """(wall seconds, gauge scales, summaries by label) of one pass in
        seeded order; times only of verdicts with the known answer."""
        order = list(self.instances)
        self.rng.shuffle(order)
        walls, scales, summaries = [], [], {}
        for inst in order:
            self.attempted += 1
            if tracer is not None:
                tracer.request = self.attempted
            try:
                (report, summary), wall, scale = gauged(lambda: verdict(self.dpa, inst))
            except Exception as exc:  # a crash is a failed sample
                self.failures.append(f"{inst.label}: {exc!r}")
                continue
            summaries[inst.label] = summary
            failure = workloads.check(self.dpa, inst, report, summary)
            if failure:
                self.failures.append(failure)
                continue
            self.ok += 1
            walls.append(wall)
            scales.append(scale)
        return walls, scales, summaries


def end_to_end(run, seconds, setup_s):
    run.one_pass()  # warm-up, checked but not timed
    walls, scales = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        w, s, _ = run.one_pass()
        walls += w
        scales += s
    times = [w * s for w, s in zip(walls, scales)] or [math.nan]
    value, pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verdict_ok_ratio": (run.ok / run.attempted, "ratio"),
    }
    notes = [
        f"verdict_s_tail is p{pct:g} of {len(walls)} samples",
        f"raw wall time p50 {statistics.median(walls or [math.nan]):.4g} s,"
        f" gauge scale p50 {statistics.median(scales or [math.nan]):.4g}",
    ]
    return metrics, notes


def per_layer(run, seconds, workload):
    tracer = spans.Tracer()
    origin = time.perf_counter()
    run.one_pass()  # warm-up, checked but not timed
    plain, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 2:
        walls, scales, expected = run.one_pass()
        plain += [w * s for w, s in zip(walls, scales)]
        first = run.attempted + 1
        with tracer:
            walls, scales, got = run.one_pass(tracer)
        tracer.request = None
        traced += [w * s for w, s in zip(walls, scales)]
        times, counts = tracer.pass_metrics(range(first, run.attempted + 1))
        scale = statistics.median(scales or [math.nan])
        passes.append(({k: v * scale for k, v in times.items()}, counts))
        for label, summary in got.items():
            if summary != expected.get(label, summary):
                run.failures.append(f"{label}: traced and untraced summaries differ")
    try:
        metrics = spans.layer_metrics(passes)
    except ValueError as exc:
        run.failures.append(str(exc))
        metrics = spans.layer_metrics(passes[:1])
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced or [math.nan]) / statistics.median(plain or [math.nan]),
        "ratio",
    )
    out = HERE / "out" / f"spans-{workload.name}.jsonl"
    tracer.write(out, origin)
    notes = [
        f"{len(passes)} traced passes, {len(tracer.spans)} spans"
        f" written to {out.relative_to(HERE.parent)}"
    ]
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("DPA_WORKERS", None)
    sys.path.insert(0, str(SRC))
    try:
        dpa, instances, setup_s = setup(workload)
    except ImportError as exc:
        print(f"cannot import dpa from {SRC}: {exc}", file=sys.stderr)
        return 2
    run = Run(dpa, instances, args.seed)
    if workload.family == "oracle":
        problem = workloads.check_oracle_finds_deadlock(dpa)
        if problem:
            run.failures.append(problem)
    if args.trace:
        metrics, notes = per_layer(run, args.seconds, workload)
    else:
        metrics, notes = end_to_end(run, args.seconds, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for line in notes + run.failures[:10]:
        print(f"{workload.name} {line}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
