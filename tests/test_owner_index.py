"""The event-owner index and the lazily built declared-event universe.

``Network.owners`` replaced four separate owner computations, two of them
over every pair of components.  The pairwise versions are kept here as
test-only references, and every index-derived result is compared with
them, iteration order included.
"""

import random
from itertools import combinations

import pytest

import bundled
from conftest import random_live_network

from dpa import models
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import EVENTS, event
from dpa.network import (
    Component,
    LivenessReport,
    Network,
    SectionResult,
    check_live,
    communication_graph,
)
from dpa.report import PROVEN, run_dpa
from dpa.semantics import component_deadlocks, first_tick_trace
from dpa.terms import Call, DefEnv, Definition, ExtChoice, Prefix


def _pairwise_voc(net):
    voc = set()
    for a, b in combinations(net.components, 2):
        voc |= a.alphabet & b.alphabet
    return frozenset(voc)


def _pairwise_edges(net):
    edges = {}
    for i, j in combinations(range(len(net)), 2):
        shared = net[i].alphabet & net[j].alphabet
        if shared:
            edges[(i, j)] = shared
    return edges


def _owner_lists(net):
    owners = {}
    for i, comp in enumerate(net.components):
        for e in comp.alphabet:
            owners.setdefault(e, []).append(i)
    return owners


def _reference_check_live(net):
    busy, non_term = [], []
    for comp in net.components:
        lts = comp.compiled()
        dtrace = component_deadlocks(lts)
        busy.append(SectionResult(comp.name, dtrace is None, dtrace))
        ttrace = first_tick_trace(lts)
        non_term.append(SectionResult(comp.name, ttrace is None, ttrace))
    td = SectionResult("triple-disjoint", True)
    for e, idx in sorted(_owner_lists(net).items()):
        if len(idx) > 2:
            who = ", ".join(net.components[i].name for i in idx)
            td = SectionResult(
                "triple-disjoint", False, detail=f"event {EVENTS.name(e)} shared by {who}"
            )
            break
    return LivenessReport(busy, non_term, td)


def _three_share_one():
    """Three components share ``x``; the pairwise events are interned in an
    order unlike the sorted edge order."""
    x, ac, ab, bd = (event(f"own3.{t}") for t in ("x", "ac", "ab", "bd"))
    alphabets = [{x, ac, ab}, {x, ab, bd}, {x, ac}, {bd}]
    env = DefEnv()
    comps = []
    for k, alpha in enumerate(alphabets):
        env.define(Definition(
            f"Own3_{k}", (), ExtChoice(tuple(Prefix(e, Call(f"Own3_{k}")) for e in sorted(alpha)))
        ))
        comps.append(Component(f"T{k}", frozenset(alpha), Call(f"Own3_{k}"), env))
    return Network(comps)


def _sources():
    for name, build in bundled.BUNDLED.items():
        if name.endswith(".net"):
            yield name, build()
    for n in range(2, 7):
        for symmetric in (False, True):
            yield f"philosophers({n}, {symmetric})", models.philosophers_source(n, symmetric)
        yield f"ring_buffer({n})", models.ring_buffer_source(n)
    for n in (2, 3):
        yield f"leadership({n})", models.leadership_source(n)


def _networks():
    for name, src in _sources():
        yield name, elaborate(parse_network(src))
    for seed in range(200):
        yield f"random({seed})", random_live_network(random.Random(seed))
    yield "three-share-one", _three_share_one()


def test_owner_index_matches_pairwise_reference():
    checked = 0
    for name, net in _networks():
        assert net.owners == {e: tuple(ix) for e, ix in _owner_lists(net).items()}, name
        assert net.voc == _pairwise_voc(net), name
        got = list(communication_graph(net).edges.items())
        assert got == list(_pairwise_edges(net).items()), name
        assert check_live(net) == _reference_check_live(net), name
        checked += 1
    assert checked == 6 + 10 + 5 + 2 + 200 + 1


def test_three_owners_violate_triple_disjointness():
    net = _three_share_one()
    report = check_live(net)
    assert report.triple_disjoint.detail == "event own3.x shared by T0, T1, T2"
    assert list(communication_graph(net).edges) == [(0, 1), (0, 2), (1, 2), (1, 3)]


# field values compare as spelled, so pickup.01.1 is not pickup.1.1
CRAFTED = ["pickup.01.1", "pickup.0", "pickup.0.1.2", "pickup.0.7", "nosuchhead.0", "req'1"]


def test_declares_matches_materialised_sigma():
    for name, build in bundled.BUNDLED.items():
        if not name.endswith(".net"):
            continue
        net = elaborate(parse_network(build()))
        ids = list(range(len(EVENTS._names))) + [event(n) for n in CRAFTED]
        answers = {e: net.declares(e) for e in ids}
        assert "sigma" not in net.__dict__
        sigma = net.sigma
        assert answers == {e: e in sigma for e in ids}, name
        assert all(net.declares(e) for e in sigma), name
        assert not any(answers[event(n)] for n in CRAFTED), name


def test_unused_channel_is_never_interned():
    src = models.philosophers_source(3).replace(
        "version 1\n", "version 1\nchannel zz_unused : {0..999}.{0..999}\n", 1
    )
    assert src != models.philosophers_source(3)
    net = elaborate(parse_network(src))
    desc = parse_descriptor(models.philosophers_descriptor(3), net)
    report = run_dpa(net, [desc])
    report.summary()
    assert report.overall == PROVEN
    assert "zz_unused.5.5" not in EVENTS._ids
    assert "sigma" not in net.__dict__


@pytest.mark.parametrize("n", [3, 300])
def test_proven_run_never_materialises_sigma(n):
    net = elaborate(parse_network(models.philosophers_source(n)))
    desc = parse_descriptor(models.philosophers_descriptor(n), net)
    report = run_dpa(net, [desc])
    report.summary()
    assert report.overall == PROVEN
    assert "sigma" not in net.__dict__
