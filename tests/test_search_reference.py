"""The shared searches against the loops they replaced
(``search_reference.py``): ``oracle.explore_global`` over
``semantics.shortest_trace``, the two liveness searches over it, and the
divergence judgement read off ``network.find_cycle``.  Result types,
traces, local states, explored and frontier counts, cycles and divergence
flags must be equal; floors on what was compared keep a corpus from
passing by comparing nothing."""

import random
from itertools import count

import pytest

import bundled
from conftest import random_env, random_live_network, random_term
from search_reference import (
    abs_divergent_reference,
    component_deadlocks_reference,
    divergent_reference,
    explore_global_reference,
    first_tick_trace_reference,
)
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import TAU, event
from dpa.lts import DEFAULT_STATE_LIMIT, Lts, compile_term
from dpa.network import Component, Network, abs_divergent, find_cycle
from dpa.oracle import LimitReached, explore_global
from dpa.semantics import component_deadlocks, first_tick_trace

# a network whose unlimited search expands at most this many states is
# searched under every limit from 1 up; a larger one under LIMITS
SMALL = 400
LIMITS = (1, 10, 100, 1000)


def _net(src):
    return elaborate(parse_network(src))


class _Diff:
    """Runs each search and its reference, and counts what was compared."""

    def __init__(self):
        self.results = {}  # result type name -> times compared
        self.traces = 0  # liveness witnesses compared
        self.divergent = 0  # divergent abstractions compared

    def oracle(self, net, limit):
        want = explore_global_reference(net, limit)
        got = explore_global(net, limit)
        assert type(got) is type(want)
        assert got == want  # trace, locals, snapshot, cycle and counts
        name = type(want).__name__
        self.results[name] = self.results.get(name, 0) + 1
        return want

    def liveness(self, lts):
        for search, reference in ((component_deadlocks, component_deadlocks_reference),
                                  (first_tick_trace, first_tick_trace_reference)):
            want = reference(lts)
            assert search(lts) == want
            self.traces += want is not None

    def network(self, net):
        unlimited = self.oracle(net, DEFAULT_STATE_LIMIT)
        if unlimited.states_explored <= SMALL:
            for limit in count(1):
                if not isinstance(self.oracle(net, limit), LimitReached):
                    break
        else:
            for limit in LIMITS:
                self.oracle(net, limit)
        for k, comp in enumerate(net.components):
            self.liveness(comp.compiled())
            want = abs_divergent_reference(net, k)
            assert abs_divergent(net, k) == want, comp.name
            self.divergent += want


@pytest.fixture
def diff():
    return _Diff()


def test_bundled_models_match_reference(diff):
    for name, build in sorted(bundled.BUNDLED.items()):
        if name.endswith(".net"):
            diff.network(_net(build()))
    assert diff.results["DeadlockWitness"] >= 2
    assert diff.results["DeadlockFree"] >= 10
    assert diff.results["LimitReached"] >= 500
    assert diff.divergent >= 1


def test_model_families_match_reference(diff):
    for n in range(3, 6):
        for symmetric in (False, True):
            diff.network(_net(models.philosophers_source(n, symmetric)))
    for n in range(2, 4):
        diff.network(_net(models.leadership_source(n)))
    for n in range(2, 5):
        diff.network(_net(models.ring_buffer_source(n)))
    assert diff.results["DeadlockWitness"] >= 5  # symmetric philosophers
    assert diff.results["DeadlockFree"] >= 12
    assert diff.results["LimitReached"] >= 1000


def test_random_networks_match_reference(diff):
    rng = random.Random(19)
    for _ in range(200):
        diff.network(random_live_network(rng))
    assert diff.results["DeadlockWitness"] >= 90
    assert diff.results["DeadlockFree"] >= 300
    assert diff.results["LimitReached"] >= 2700
    assert diff.divergent >= 250


def test_random_terms_match_reference(diff):
    # terms with STOP, SKIP, DIV and hiding: deadlocks, ticks and tau cycles
    rng = random.Random(23)
    events = [event("sr.a"), event("sr.b"), event("sr.c")]
    divergent = 0
    for _ in range(300):
        env = random_env(rng, events)
        lts = compile_term(env, random_term(rng, 3, events, env))
        diff.liveness(lts)
        taus = [lts.taus(s) for s in range(lts.n_states)]
        want = divergent_reference(lts)
        assert (find_cycle(taus) is not None) == want
        divergent += want
        # hiding the whole alphabet turns every visible cycle into divergence
        net = Network([Component("P", lts.visible_events(), lts=lts)])
        assert abs_divergent(net, 0) == abs_divergent_reference(net, 0)
    assert diff.traces >= 330  # deadlock and tick witnesses
    assert divergent >= 130 and 300 - divergent >= 160


# ---------------------------------------------------------------------------
# find_cycle on hand-written tau graphs

A = event("sr.a")


def _lts(*rows):
    return Lts(0, tuple(tuple(sorted(row)) for row in rows))


def _divergent(lts):
    # a partner shares A, which so stays visible: only the tau edges count
    partner = Component("Q", frozenset({A}), lts=_lts([(A, 0)]))
    return abs_divergent(Network([Component("P", frozenset({A}), lts=lts), partner]), 0)


@pytest.mark.parametrize("rows, cycle", [
    # a tau self-loop
    (([(TAU, 0)],), (0,)),
    # a tau two-cycle
    (([(TAU, 1)], [(TAU, 0)]), (0, 1)),
    # a tau cycle behind a visible event
    (([(A, 1)], [(TAU, 2)], [(TAU, 1), (A, 0)]), (1, 2)),
    # an acyclic tau diamond: the edge 2 -> 3 meets a finished vertex
    (([(TAU, 1), (TAU, 2)], [(TAU, 3)], [(TAU, 3)], [(A, 0)]), None),
])
def test_find_cycle_on_tau_edges(rows, cycle):
    lts = _lts(*rows)
    taus = [lts.taus(s) for s in range(lts.n_states)]
    assert find_cycle(taus) == cycle
    assert _divergent(lts) == (cycle is not None) == divergent_reference(lts)
