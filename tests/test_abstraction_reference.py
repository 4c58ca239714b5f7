"""The compressed abstraction against the plain one.

`network.abs_lts` hides a component's private events and quotients the
result by strong bisimulation, once per network.  The reference below is
the plain hidden LTS, `hide_lts(net[k].compiled(), net[k].alphabet -
net.voc)`, put into a second network's abstraction cache before anything
reads it, so every bridge check and pattern obligation runs unchanged on
the uncompressed abstractions.  Verdicts, counterexamples, behavioural
results and divergence warnings must be equal, and every counterexample
must replay on the uncompressed context.
"""

import json
import random

import pytest

import bundled
import dpa.network
from conftest import random_live_network, replay
from dpa import models
from dpa.decomposition import build_context, check_conflict_free, fresh_req
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import TAU, TICK, event
from dpa.lts import Lts, bisim_quotient, hide_lts
from dpa.network import Network, abs_divergent, abs_lts, communication_graph, find_cycle
from dpa.patterns import check_behavioural
from dpa.report import run_dpa
from dpa.semantics import stable_behaviours


def uncompressed(net):
    """The same components in a network whose abstractions are the plain
    hidden LTSs."""
    ref = Network(net.components, net.sigma)
    for k, comp in enumerate(ref.components):
        ref.abstractions[k] = hide_lts(comp.compiled(), comp.alphabet - ref.voc)
    return ref


class _Diff:
    """Runs each check on both networks, and counts what was compared so a
    corpus cannot pass by comparing nothing."""

    def __init__(self):
        self.checks = 0
        self.counterexamples = 0
        self.obligations = 0
        self.shrunk = 0

    def network(self, net):
        ref = uncompressed(net)
        for k in range(len(net)):
            assert abs_divergent(net, k) == abs_divergent(ref, k), net[k].name
            if abs_lts(net, k).n_states < abs_lts(ref, k).n_states:
                self.shrunk += 1
        for (i, j) in communication_graph(net).edges:
            got = check_conflict_free(net, i, j)
            want = check_conflict_free(ref, i, j)
            assert got.verdict == want.verdict, got.names
            assert got.counterexample == want.counterexample, got.names
            assert got.divergent_abstractions == want.divergent_abstractions
            assert got.context_states <= want.context_states
            self.checks += 1
            if got.counterexample is not None:
                self.counterexamples += 1
                context = build_context(ref, i, j, fresh_req(ref))
                assert replay(context, got.counterexample), got.names
        return ref

    def obligations_of(self, net, descriptor):
        ref = self.network(net)
        desc = parse_descriptor(descriptor, net)
        scope = frozenset(desc.components())
        got = check_behavioural(desc, net, scope)
        assert got == check_behavioural(desc, ref, scope)
        self.obligations += len(got)


@pytest.fixture
def diff():
    return _Diff()


def _net(src):
    return elaborate(parse_network(src))


def test_bundled_models_match_uncompressed(diff):
    for name, build in bundled.BUNDLED.items():
        if not name.endswith(".net"):
            continue
        desc_name = name[: -len(".net")] + ".pattern.json"
        if desc_name in bundled.BUNDLED:
            diff.obligations_of(_net(build()), bundled.BUNDLED[desc_name]())
        else:
            diff.network(_net(build()))
    assert diff.shrunk > 0
    assert diff.obligations > 20


@pytest.mark.parametrize("size", [2, 3, 4])
def test_pattern_families_match_uncompressed(diff, size):
    for symmetric in (False, True):
        diff.obligations_of(
            _net(models.philosophers_source(size, symmetric)),
            json.dumps(models.philosophers_descriptor(size, symmetric)),
        )
    diff.obligations_of(
        _net(models.leadership_source(size)),
        json.dumps(models.leadership_descriptor(size)),
    )
    # every behavioural result of the three descriptors was compared
    assert diff.obligations == {2: 16, 3: 27, 4: 40}[size]


def test_ring_buffers_match_uncompressed(diff):
    for ncells in range(2, 7):
        diff.network(_net(models.ring_buffer_source(ncells)))
    assert diff.checks == sum(range(2, 7))
    assert diff.shrunk >= 5  # every controller abstraction compresses


def test_random_networks_match_uncompressed(diff):
    rng = random.Random(81)
    for _ in range(300):
        diff.network(random_live_network(rng))
    assert diff.checks > 600
    assert diff.counterexamples > 100
    assert diff.shrunk > 100


# ---------------------------------------------------------------------------
# the quotient itself, on hand-written LTSs

A, B = event("bq.a"), event("bq.b")


def _lts(*rows, initial=0):
    return Lts(initial, tuple(tuple(sorted(row)) for row in rows))


def test_bisimilar_states_merge():
    # 1 and 2 both do a into a deadlock; 3 and 4 are the same deadlock
    lts = _lts([(A, 1), (B, 2)], [(A, 3)], [(A, 4)], [], [])
    q = bisim_quotient(lts)
    assert q.trans == (((A, 1), (B, 1)), ((A, 2),), ())
    assert q.initial == 0 and q.terms is None


def test_tick_and_tau_differences_keep_states_apart():
    # without the extra label, 1 and 2 are bisimilar
    plain = _lts([(A, 1), (A, 2)], [(A, 3)], [(A, 3)], [])
    assert bisim_quotient(plain).trans == (((A, 1),), ((A, 2),), ())
    for label in (TICK, TAU):
        lts = _lts([(A, 1), (A, 2)], [(A, 3), (label, 3)], [(A, 3)], [])
        assert bisim_quotient(lts) is lts


def test_tau_cycle_stays_divergent():
    # a tau cycle through two equivalent states becomes a tau self-loop
    lts = _lts([(TAU, 1), (A, 2)], [(TAU, 0), (A, 2)], [(B, 2)])
    q = bisim_quotient(lts)
    assert q.trans == (((TAU, 0), (A, 1)), ((B, 1),))
    assert stable_behaviours(q).divergent == [True, False]


def test_nonzero_initial_maps_to_its_block():
    lts = _lts([(A, 2)], [(B, 0)], [(A, 2)], initial=1)
    q = bisim_quotient(lts)
    assert q.trans == (((A, 0),), ((B, 0),))
    assert q.initial == 1
    lts = _lts([(A, 3)], [(B, 0)], [(A, 3)], [(A, 3)], initial=3)
    assert bisim_quotient(lts).initial == 0


def test_minimal_lts_comes_back_unchanged():
    lts = _lts([(A, 1)], [(B, 0), (TICK, 2)], [])
    assert bisim_quotient(lts) is lts
    net = _net(models.ring_buffer_source(2))
    cell = net.index_of("Cell.0")
    # nothing to hide or merge: the hidden LTS itself, terms and all
    assert abs_lts(net, cell).terms is net[cell].compiled().terms


# ---------------------------------------------------------------------------
# the per-network cache


def test_each_component_is_abstracted_once(monkeypatch):
    calls = []

    def counting(lts, hidden):
        calls.append(lts)
        return hide_lts(lts, hidden)

    monkeypatch.setattr(dpa.network, "hide_lts", counting)
    net = _net(models.ring_buffer_source(4))
    assert abs_lts(net, 0) is abs_lts(net, 0)
    calls.clear()
    net = _net(models.ring_buffer_source(4))
    report = run_dpa(net)
    assert len(report.decomposition.checks) == len(net) - 1
    assert sorted(map(id, calls)) == sorted(id(c.compiled()) for c in net.components)


def test_each_abstraction_is_judged_for_divergence_once(monkeypatch):
    judged = []

    def counting(taus):
        judged.append(taus)
        return find_cycle(taus)

    monkeypatch.setattr(dpa.network, "find_cycle", counting)
    net = _net(models.ring_buffer_source(4))
    report = run_dpa(net)
    # the hub takes part in every bridge check, and is still judged once
    assert len(report.decomposition.checks) == len(net) - 1
    abstractions = [abs_lts(net, k) for k in range(len(net))]
    assert sorted(judged) == sorted([q.taus(s) for s in range(q.n_states)] for q in abstractions)
    assert abs_divergent(net, 0) is abs_divergent(net, 0)
    assert len(judged) == len(net)
