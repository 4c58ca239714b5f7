"""Per-layer tracing from outside the program.

The tracer rebinds the public layer functions of ``dpa`` at every import
site (every ``dpa`` module attribute that holds the original function
object), so calls made through ``from .lts import compile_term`` inside
other modules are caught too.  Each call becomes a span: name, start, end,
parent span and the request (one verdict) it belongs to.  Spans stay in
memory and are written out once, after measuring.

A layer's self time is its span's duration minus the time its child spans
cover.  Counts are read off the functions' results, so they are exact and
repeat from run to run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, attribute, span name, counter over the result).  A span name is
# reported as ``<span name>_s`` self time, except where SELF_METRIC says
# otherwise; spans sharing a name share the metric.
TARGETS = (
    ("dpa.dsl", "parse_network", "dsl.parse", None),
    ("dpa.dsl", "elaborate", "dsl.elaborate", None),
    ("dpa.dsl", "parse_descriptor", "dsl.descriptor", None),
    ("dpa.lts", "compile_term", "lts.compile",
     lambda r: {"lts.compile_calls": 1, "lts.compiled_states": r.n_states}),
    ("dpa.lts", "parallel_lts", "lts.product",
     lambda r: {"lts.product_states": r.n_states}),
    ("dpa.lts", "hide_lts", "lts.relabel", lambda r: {"lts.relabel_calls": 1}),
    ("dpa.lts", "rename_lts", "lts.relabel", lambda r: {"lts.relabel_calls": 1}),
    ("dpa.semantics", "refines", "semantics.refines",
     lambda r: {"semantics.refines_calls": 1,
                "semantics.refines_failed": int(r is not None)}),
    ("dpa.semantics", "normalize", "semantics.normalize",
     lambda r: {"semantics.spec_states": r.n_states}),
    ("dpa.semantics", "stable_behaviours", "semantics.stable",
     lambda r: {"semantics.stable_calls": 1}),
    ("dpa.network", "check_live", "network.live", None),
    ("dpa.network", "abs_lts", "network.abs_lts",
     lambda r: {"network.abs_lts_calls": 1}),
    # decompose's own work is the communication graph, the bridge search
    # and the split; the conflict checks are its child spans
    ("dpa.decomposition", "decompose", "decomposition.bridges",
     lambda r: {"decomposition.bridges": len(r.bridge_edges)}),
    ("dpa.decomposition", "check_conflict_free", "decomposition.conflict",
     lambda r: {"decomposition.context_states": r.context_states,
                "decomposition.checks": 1,
                "decomposition.conflict_free": int(r.verdict == "conflict-free")}),
    ("dpa.patterns", "check_structural", "patterns.structural",
     lambda r: {"patterns.obligations": len(r),
                "patterns.obligations_ok": sum(1 for p in r if p.ok)}),
    ("dpa.patterns", "check_behavioural", "patterns.behavioural",
     lambda r: {"patterns.obligations": len(r),
                "patterns.obligations_ok": sum(1 for b in r if b.ok)}),
    ("dpa.oracle", "explore_global", "oracle.explore",
     lambda r: {"oracle.states": r.states_explored}),
    ("dpa.report", "run_dpa", "report", None),
    ("dpa.report.DpaReport", "summary", "report", None),
)

SELF_METRIC = {"report": "report.self_s", "network.abs_lts": None}

# Exact counts reported as they are; the helper counts above them only
# feed the ratios.
COUNT_METRICS = (
    "lts.compile_calls",
    "lts.compiled_states",
    "lts.product_states",
    "lts.relabel_calls",
    "semantics.refines_calls",
    "semantics.refines_failed",
    "semantics.spec_states",
    "semantics.stable_calls",
    "network.abs_lts_calls",
    "decomposition.bridges",
    "decomposition.context_states",
    "patterns.obligations",
    "oracle.states",
)


def self_metric(span_name):
    return SELF_METRIC.get(span_name, span_name + "_s")


TIME_METRICS = tuple(
    dict.fromkeys(
        m for m in (self_metric(name) for _m, _a, name, _c in TARGETS) if m
    )
)


def _resolve(path):
    """The module (or class inside one) a TARGETS entry names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        owner = sys.modules.get(".".join(parts[:cut]))
        if owner is not None:
            for attr in parts[cut:]:
                owner = getattr(owner, attr)
            return owner
    raise LookupError(f"{path} is not imported")


def _dpa_namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dpa" or name.startswith("dpa.")):
            yield mod


class Tracer:
    """Spans around the rebound layer functions, for one run.

    Use as a context manager: entering rebinds, leaving restores every site
    and checks that no wrapper is left behind.
    """

    def __init__(self):
        self.spans = []  # (id, parent, request, name, start, end, self, counts)
        self._stack = []  # open spans: [id, child seconds]
        self._sites = []  # (namespace, attribute, original)
        self.request = None

    # -- rebinding ---------------------------------------------------------

    def __enter__(self):
        for owner_path, attr, name, counter in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, counter)
            sites = [owner] + [
                mod for mod in _dpa_namespaces()
                if mod is not owner and mod.__dict__.get(attr) is original
            ]
            for site in sites:
                setattr(site, attr, wrapper)
                self._sites.append((site, attr, original))
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._sites):
            setattr(site, attr, original)
        left = [
            f"{site.__name__}.{attr}"
            for site, attr, original in self._sites
            if site.__dict__.get(attr) is not original
        ] + [
            f"{mod.__name__}.{attr}"
            for mod in _dpa_namespaces()
            for attr, value in vars(mod).items()
            if hasattr(value, "_perfbench_span")
        ]
        self._sites = []
        if left:
            raise RuntimeError("traced names not restored: " + ", ".join(left))
        return False

    def _wrap(self, fn, name, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counts = counter(result) if counter and done else None
                spans.append(
                    (span_id, parent, self.request, name, start, end,
                     end - start - frame[1], counts)
                )

        traced._perfbench_span = name
        return traced

    # -- results -----------------------------------------------------------

    def pass_metrics(self, requests):
        """Self time per metric and counts, summed over the given requests."""
        wanted = set(requests)
        times = dict.fromkeys(TIME_METRICS, 0.0)
        counts = {}
        for _id, _p, request, name, _s, _e, self_s, got in self.spans:
            if request not in wanted:
                continue
            metric = self_metric(name)
            if metric:
                times[metric] += self_s
            for key, value in (got or {}).items():
                counts[key] = counts.get(key, 0) + value
        return times, counts

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end, self_s, counts in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "request": request,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "self": round(self_s, 9),
                }
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


def layer_metrics(per_pass):
    """Per-layer metrics from the (times, counts) of each traced pass.

    Times are medians over passes; counts must agree exactly across passes,
    and a ValueError names the first that does not.
    """
    times0, counts0 = per_pass[0]
    for _times, counts in per_pass[1:]:
        differ = sorted(k for k in set(counts) | set(counts0) if counts.get(k) != counts0.get(k))
        if differ:
            raise ValueError("counts differ between traced passes: " + ", ".join(differ))
    out = {}
    for metric in times0:
        out[metric] = (statistics.median(t[metric] for t, _c in per_pass), "s")
    for metric in COUNT_METRICS:
        out[metric] = (counts0.get(metric, 0), "count")
    checks = counts0.get("decomposition.checks", 0)
    obligations = counts0.get("patterns.obligations", 0)
    # a ratio over no attempts is vacuously 1: nothing was wasted; its base
    # is reported beside it (decomposition.bridges, patterns.obligations)
    out["decomposition.conflict_free_ratio"] = (
        counts0.get("decomposition.conflict_free", 0) / checks if checks else 1.0,
        "ratio",
    )
    out["patterns.obligations_ok_ratio"] = (
        counts0.get("patterns.obligations_ok", 0) / obligations if obligations else 1.0,
        "ratio",
    )
    explore_s = out["oracle.explore_s"][0]
    out["oracle.states_per_s"] = (
        out["oracle.states"][0] / explore_s if explore_s else 0.0,
        "1/s",
    )
    return out
