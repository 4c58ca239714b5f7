"""Tests of the benchmark's own machinery: traced counts repeat exactly, the
tracer restores every name it rebinds, and the tail percentile rule.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import sys

import pytest

import run as bench
import spans
import workloads

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

import dpa  # noqa: E402
import dpa.models  # noqa: E402,F401


def traced_passes(name, n):
    run = bench.Run(dpa, workloads.WORKLOADS[name].instances(dpa.models), seed=0)
    tracer = spans.Tracer()
    passes = []
    for _ in range(n):
        first = run.attempted + 1
        with tracer:
            run.one_pass(tracer)
        passes.append(tracer.pass_metrics(range(first, run.attempted + 1)))
    assert run.failures == []
    return passes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    passes = traced_passes(name, 2)
    assert passes[0][1] == passes[1][1]
    metrics = spans.layer_metrics(passes)
    assert set(spans.COUNT_METRICS) <= set(metrics)
    assert set(spans.TIME_METRICS) <= set(metrics)
    if name == "oracle":
        assert metrics["oracle.states"] == (40250, "count")
    if name == "ringbuffer":
        # four abstractions per bridge: two for the context, two for the
        # divergence warning
        bridges = metrics["decomposition.bridges"][0]
        assert bridges == 12
        assert metrics["network.abs_lts_calls"][0] == 4 * bridges
        assert metrics["decomposition.context_states"][0] > 0


def test_tracer_restores_every_site():
    originals = {
        (mod.__name__, attr): mod.__dict__[attr]
        for mod in (dpa, dpa.lts, dpa.network, dpa.decomposition, dpa.patterns,
                    dpa.report, dpa.dsl, dpa.semantics, dpa.oracle)
        for attr in ("compile_term", "hide_lts", "refines", "normalize", "abs_lts",
                     "check_live", "run_dpa", "explore_global", "parse_network")
        if attr in mod.__dict__
    }
    summary = dpa.report.DpaReport.summary
    with spans.Tracer():
        assert hasattr(dpa.network.compile_term, "_perfbench_span")
        assert hasattr(dpa.decomposition.refines, "_perfbench_span")
        assert hasattr(dpa.report.DpaReport.summary, "_perfbench_span")
    for (mod, attr), original in originals.items():
        assert sys.modules[mod].__dict__[attr] is original, (mod, attr)
    assert dpa.report.DpaReport.summary is summary


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.request = 1
    net = dpa.dsl.elaborate(dpa.dsl.parse_network(dpa.models.ring_buffer_source(2)))
    with tracer:
        dpa.report.run_dpa(net)
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, parent, _r, _n, start, end, self_s, _c in tracer.spans:
        children = [s for s in tracer.spans if s[1] == span_id]
        covered = sum(c[5] - c[4] for c in children)
        assert self_s == pytest.approx(end - start - covered, abs=1e-9)
        if parent is not None:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 51)]
    assert bench.tail(samples) == (40.0, 80.0)
    short = [float(i) for i in range(1, 13)]
    assert bench.tail(short) == (6.5, 50.0)
