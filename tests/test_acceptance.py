"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time
from contextlib import contextmanager

from conftest import (
    ev3,
    random_env,
    random_live_network,
    random_plain_term,
    random_term,
    replay,
)
from denotational import denotational_oracle, diff_behaviours, lts_behaviours

from dpa import models
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.lts import compile_term
from dpa.oracle import (
    DeadlockFree,
    DeadlockWitness,
    explore_global,
    find_ungranted_cycle,
    snapshot_graph,
)
from dpa.report import INCONCLUSIVE, PROVEN, run_dpa
from dpa.semantics import FAILURES, REVIVALS, normalize, refines
from dpa.terms import DefEnv


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS", flush=True)


def net_of(src):
    return elaborate(parse_network(src))


def test_criterion_1_ring_buffer_decomposition():
    with criterion(1, "ring buffer proven by decomposition alone"):
        for ncells in (3, 5, 10):
            net = net_of(models.ring_buffer_source(ncells))
            t0 = time.perf_counter()
            report = run_dpa(net, model_name=f"ringbuffer({ncells})")
            elapsed = time.perf_counter() - t0
            assert report.overall == PROVEN, ncells
            dec = report.decomposition
            assert dec.all_singular
            assert len(dec.bridge_edges) == ncells  # star: every edge a bridge
            assert dec.removed_edges == dec.bridge_edges
            assert elapsed < 10.0, f"NCELLS={ncells} took {elapsed:.1f}s"
            if ncells <= 5:
                assert isinstance(explore_global(net), DeadlockFree), ncells


def test_criterion_2_asymmetric_philosophers_scaling():
    with criterion(2, "asymmetric philosophers adhere; polynomial scaling"):
        sizes = (3, 5, 10, 20)
        times = {}
        for n in sizes:
            net = net_of(models.philosophers_source(n))
            desc = parse_descriptor(models.philosophers_descriptor(n), net)
            t0 = time.perf_counter()
            report = run_dpa(net, [desc], model_name=f"philosophers({n})")
            times[n] = time.perf_counter() - t0
            assert report.overall == PROVEN, n
            verdict = report.subnetworks[0].verdict
            refinements = [
                b for b in verdict.behavioural
                if b.spec_name in ("UserSpec", "ResourceSpec")
            ]
            assert len(refinements) == 2 * n and all(b.ok for b in refinements)
            orders = [
                b for b in verdict.behavioural if b.spec_name == "acquisition-order"
            ]
            assert len(orders) == n and all(b.ok for b in orders)
            if n <= 6:
                assert isinstance(explore_global(net), DeadlockFree), n
        # trend: no worse than quadratic growth between consecutive sizes,
        # with a floor so millisecond noise cannot dominate
        floor, slack = 0.05, 4.0
        for n1, n2 in zip(sizes, sizes[1:]):
            bound = max(times[n1], floor) * (n2 / n1) ** 2 * slack
            assert times[n2] <= bound, (
                f"t({n2})={times[n2]:.3f}s exceeds quadratic trend "
                f"bound {bound:.3f}s from t({n1})={times[n1]:.3f}s"
            )


def test_criterion_3_symmetric_philosophers_diagnosis():
    with criterion(3, "symmetric philosophers: named violation + snapshot cycle"):
        for n in (3, 5):
            net = net_of(models.philosophers_source(n, symmetric=True))
            desc = parse_descriptor(
                models.philosophers_descriptor(n, symmetric=True), net
            )
            report = run_dpa(net, [desc])
            assert report.overall == INCONCLUSIVE
            culprit = f"Phil.{n - 1}"
            assert any(
                culprit in r and "acquisition-order" in r for r in report.reasons
            ), report.reasons
            witness = explore_global(net)
            assert isinstance(witness, DeadlockWitness)
            snap = snapshot_graph(net, witness.state)
            cycle = find_ungranted_cycle(snap)
            assert cycle is not None and len(cycle) == 2 * n
            if n == 3:
                arcs = {(snap.names[i], snap.names[j]) for (i, j) in snap.arcs}
                expected = set()
                for i in range(3):
                    expected.add((f"Fork.{i}", f"Phil.{i}"))
                    expected.add((f"Phil.{i}", f"Fork.{(i + 1) % 3}"))
                assert arcs == expected


def test_criterion_4_two_ring_decomposition():
    with criterion(4, "two-ring network splits across its single bridge"):
        net = net_of(models.two_ring_source())
        report = run_dpa(net)
        dec = report.decomposition
        assert dec.removed_edges == {(0, 3)}
        assert dec.subnetwork_names(net) == [
            ["C0", "C1", "C2"],
            ["C3", "C4", "C5"],
        ]
        assert [len(s) for s in dec.subnetworks] == [3, 3]


def test_criterion_5_transport_layer():
    with criterion(5, "election transport layer adheres to async-dynamic"):
        for n in (2, 3):
            net = net_of(models.leadership_source(n))
            desc = parse_descriptor(models.leadership_descriptor(n), net)
            t0 = time.perf_counter()
            report = run_dpa(net, [desc], model_name=f"leadership({n})")
            elapsed = time.perf_counter() - t0
            assert report.overall == PROVEN, n
            assert report.subnetworks[0].pattern == "async-dynamic"
            if n == 2:
                assert isinstance(explore_global(net), DeadlockFree)
            if n == 3:
                assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_6_semantics_oracle_suite():
    with criterion(6, "operational semantics equals the clause-by-clause oracle"):
        rng = random.Random(61)
        events = ev3()
        sigma = frozenset(events)
        depth = 6
        mismatches = []
        for i in range(500):
            env = random_env(rng, events)
            term = random_term(rng, 4, events, env)
            den = denotational_oracle(env, term, depth, sigma)
            op = lts_behaviours(compile_term(env, term), sigma, depth)
            d = diff_behaviours(op, den, depth)
            if d is not None:
                mismatches.append((i, term, d))
        assert not mismatches, mismatches[:3]


def test_criterion_7_refinement_laws():
    with criterion(7, "refinement laws and counterexample replay"):
        rng = random.Random(71)
        events = ev3()
        env = DefEnv()
        pool = [random_plain_term(rng, 3, events) for _ in range(16)]
        ltss = [compile_term(env, t) for t in pool]
        specs = [normalize(l, universe=frozenset(events)) for l in ltss]
        n = len(pool)
        for model in (FAILURES, REVIVALS):
            holds = set()
            failures = 0
            for i in range(n):
                for j in range(n):
                    ce = refines(specs[i], ltss[j], model)
                    if ce is None:
                        holds.add((i, j))
                    else:
                        failures += 1
                        assert replay(ltss[j], ce), (model, i, j, ce.describe())
            for i in range(n):
                assert (i, i) in holds, f"reflexivity under {model}"
            chains = 0
            for (i, j) in holds:
                for k in range(n):
                    if (j, k) in holds:
                        chains += 1
                        assert (i, k) in holds, f"transitivity under {model}"
            assert chains > n
            assert failures > 0
            if model == REVIVALS:
                for (i, j) in holds:
                    assert refines(specs[i], ltss[j], FAILURES) is None, (
                        "revivals refinement must imply failures refinement"
                    )


def test_criterion_8_soundness_fuzz():
    with criterion(8, "method never contradicts the oracle; deadlocks cycle"):
        rng = random.Random(81)
        proven = deadlocked = 0
        for trial in range(200):
            net = random_live_network(rng)
            report = run_dpa(net)
            oracle = explore_global(net, 30_000)
            if isinstance(oracle, DeadlockWitness):
                deadlocked += 1
                assert report.overall != PROVEN, (
                    f"trial {trial}: proved a deadlocking network deadlock-free"
                )
                snap = snapshot_graph(net, oracle.state)
                assert find_ungranted_cycle(snap) is not None, trial
            if report.overall == PROVEN:
                proven += 1
                assert isinstance(oracle, DeadlockFree), trial
        # the harness must exercise both outcomes to mean anything
        assert proven >= 10, proven
        assert deadlocked >= 10, deadlocked
