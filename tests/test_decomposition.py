import dataclasses
import random

import pytest

from conftest import CROSSED_MODEL, replay
from dpa import models, semantics
from dpa.decomposition import (
    CONFLICT_FREE,
    POSSIBLE_CONFLICT,
    bridges,
    build_conflict_free_spec,
    build_context,
    check_conflict_free,
    decompose,
    fresh_req,
)
from dpa.dsl import elaborate, parse_network
from dpa.events import EVENTS, event
from dpa.network import CommGraph, Component, InputError, Network, NotLive, communication_graph
from dpa.semantics import REVIVAL_VIOLATION, REVIVALS, refines
from dpa.terms import Call, DefEnv, Definition, Prefix, STOP


def graph(n, edges):
    return CommGraph(n, [f"C{i}" for i in range(n)], {e: frozenset() for e in edges})


def bridges_reference(g: CommGraph) -> frozenset:
    """Quadratic remove-and-count reference for :func:`bridges` (test only)."""

    def n_components(skip_edge):
        seen = set()
        count = 0
        adj = {i: [] for i in range(g.n)}
        for e in g.edges:
            if e == skip_edge:
                continue
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
        for s in range(g.n):
            if s in seen:
                continue
            count += 1
            stack = [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

    base = n_components(None)
    return frozenset(e for e in g.edges if n_components(e) > base)


def test_bridges_star():
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert bridges(g) == {(0, 1), (0, 2), (0, 3)}


def test_bridges_cycle_has_none():
    g = graph(6, [(i, (i + 1) % 6) if i < 5 else (0, 5) for i in range(6)])
    assert bridges(g) == frozenset()


def test_bridges_two_triangles_with_bridge():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)]
    g = graph(6, edges)
    assert bridges(g) == {(0, 3)}


def test_bridges_match_reference_on_random_graphs():
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(2, 60) if trial < 30 else rng.randint(100, 200)
        edges = set()
        for _ in range(int(n * rng.uniform(0.5, 1.6))):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        g = graph(n, sorted(edges))
        assert bridges(g) == bridges_reference(g), f"trial {trial}"


def two_loops(shared):
    """Two components looping on a few events, sharing the given ones."""
    env = DefEnv()
    env.define(Definition("P", (), Prefix(event("dx.a"), Call("P"))))
    env.define(Definition("Q", (), Prefix(event("dx.a"), Call("Q"))))
    alpha = frozenset({event("dx.a")})
    return Network([
        Component("P", alpha, Call("P"), env),
        Component("Q", alpha, Call("Q"), env),
    ])


def test_context_single_state_self_loops():
    net = two_loops({"dx.a"})
    req = fresh_req(net)
    ctx = build_context(net, 0, 1, req=req)
    assert ctx.n_states == 1
    labels = {l for (l, _t) in ctx.trans[0]}
    assert labels == {event("dx.a"), req}


def test_context_requires_an_edge():
    env = DefEnv()
    env.define(Definition("P", (), Prefix(event("dy.a"), Call("P"))))
    env.define(Definition("Q", (), Prefix(event("dy.b"), Call("Q"))))
    net = Network([
        Component("P", frozenset({event("dy.a")}), Call("P"), env),
        Component("Q", frozenset({event("dy.b")}), Call("Q"), env),
    ])
    with pytest.raises(InputError):
        build_context(net, 0, 1)


def test_conflict_free_spec_shape():
    # single shared event: the only forbidden revival is (s, {x}, req)
    net = two_loops({"dx.a"})
    req = fresh_req(net)
    spec = build_conflict_free_spec(net, 0, 1, req=req)
    x = event("dx.a")
    assert spec.universe == {x, req}
    init = spec.states[0]
    # any acceptance granting req also offers the shared event
    assert all(x in acc for acc in init.acceptances if req in acc)
    # a revival of req against refusal {x} is not granted initially
    assert not any(req in acc and acc <= {req} for acc in init.acceptances)
    # but a revival of req against a refusal avoiding x is
    assert any(req in acc and acc <= {x, req} for acc in init.acceptances)
    assert not init.deadlock_allowed
    # traces are unconstrained over the union alphabet plus req
    assert set(spec.trans[0]) == {x, req}
    chaos = spec.states[spec.trans[0][req]]
    assert chaos.deadlock_allowed  # anything goes after a req
    assert set(spec.trans[spec.trans[0][req]]) == {x, req}


def test_conflict_free_pair():
    net = two_loops({"dx.a"})
    check = check_conflict_free(net, 0, 1)
    assert check.verdict == CONFLICT_FREE
    assert check.counterexample is None


def crossed_pair():
    env = DefEnv()
    a, b = event("cx.a"), event("cx.b")
    env.define(Definition("P", (), Prefix(a, Prefix(b, Call("P")))))
    env.define(Definition("Q", (), Prefix(b, Prefix(a, Call("Q")))))
    alpha = frozenset({a, b})
    return Network([
        Component("P", alpha, Call("P"), env),
        Component("Q", alpha, Call("Q"), env),
    ])


def test_possible_conflict_with_witness():
    net = crossed_pair()
    check = check_conflict_free(net, 0, 1)
    assert check.verdict == POSSIBLE_CONFLICT
    ce = check.counterexample
    assert ce.kind == REVIVAL_VIOLATION
    assert ce.trace == ()
    assert EVENTS.name(ce.event).startswith("req")
    # the refused set covers everything the two components share
    assert {event("cx.a"), event("cx.b")} <= set(ce.refusal)
    ctx = build_context(net, 0, 1, req=ce.event)
    assert replay(ctx, ce)


@pytest.mark.parametrize("make, reaches_chaos", [
    (lambda: elaborate(parse_network(models.ring_buffer_source(3))), True),
    (crossed_pair, False),  # the conflict lies at the root
], ids=["ringbuffer", "crossed"])
def test_refinement_judges_no_pair_at_chaos(monkeypatch, make, reaches_chaos):
    net = make()
    judged = []  # (spec state, the spec's CHAOS state) of each judged pair
    judge = semantics._judge

    def spy(spec, ns, row, model):
        judged.append((ns, spec.chaos))
        return judge(spec, ns, row, model)

    monkeypatch.setattr(semantics, "_judge", spy)
    edges = sorted(communication_graph(net).edges)
    for i, j in edges:
        check_conflict_free(net, i, j)
    assert judged and all(ns != chaos for ns, chaos in judged)
    # without the stop, the same checks do judge pairs at CHAOS
    judged.clear()
    for i, j in edges:
        spec = build_conflict_free_spec(net, i, j)
        refines(dataclasses.replace(spec, chaos=None), build_context(net, i, j), REVIVALS)
    assert any(ns == 1 for ns, _ in judged) == reaches_chaos


def _edge_verdicts(net):
    out = []
    for i, j in sorted(communication_graph(net).edges):
        check = check_conflict_free(net, i, j)
        ce = check.counterexample
        out.append((check.names, check.verdict, ce and (ce.kind, ce.trace, ce.refusal)))
    return out


@pytest.mark.parametrize("source", [models.ring_buffer_source(3), CROSSED_MODEL],
                         ids=["ringbuffer", "crossed"])
def test_a_declared_req_channel_moves_the_request_event_aside(source):
    # the request event lies outside the declared universe, so a model that
    # declares ``req`` gets ``req'1``, and every edge keeps its verdict
    plain = elaborate(parse_network(source))
    declared = elaborate(parse_network(source.replace("version 1\n", "version 1\nchannel req\n", 1)))
    assert EVENTS.name(fresh_req(plain)) == "req"
    assert EVENTS.name(fresh_req(declared)) == "req'1"
    assert _edge_verdicts(declared) == _edge_verdicts(plain)


def test_ring_buffer_edges_all_conflict_free():
    net = elaborate(parse_network(models.ring_buffer_source(3)))
    for j in range(1, 4):
        check = check_conflict_free(net, 0, j)
        assert check.verdict == CONFLICT_FREE
        assert "Controller" in check.divergent_abstractions


def test_decompose_ring_buffer_fully():
    net = elaborate(parse_network(models.ring_buffer_source(3)))
    result = decompose(net)
    assert result.all_singular
    assert len(result.subnetworks) == 4
    assert result.removed_edges == result.bridge_edges


def test_decompose_philosophers_single_subnetwork():
    net = elaborate(parse_network(models.philosophers_source(3)))
    result = decompose(net)
    assert result.bridge_edges == frozenset()
    assert result.subnetworks == [sorted(range(6))]
    assert not result.all_singular


def test_decompose_two_ring_exact_split():
    net = elaborate(parse_network(models.two_ring_source()))
    result = decompose(net)
    assert result.removed_edges == {(0, 3)}
    assert result.subnetwork_names(net) == [["C0", "C1", "C2"], ["C3", "C4", "C5"]]
    assert not result.all_singular


def test_decompose_refuses_non_live_networks():
    net = Network([
        Component("Dead", frozenset({event("dz.a")}), STOP),
        Component(
            "Live",
            frozenset({event("dz.a")}),
            Call("L"),
            DefEnv([Definition("L", (), Prefix(event("dz.a"), Call("L")))]),
        ),
    ])
    with pytest.raises(NotLive):
        decompose(net)


def test_verdict_monotone_in_state_limit():
    for net in (two_loops({"dx.a"}), crossed_pair()):
        low = check_conflict_free(net, 0, 1, limit=10_000)
        high = check_conflict_free(net, 0, 1, limit=1_000_000)
        assert low.verdict == high.verdict


def test_removed_edges_never_include_possible_conflicts():
    net = crossed_pair()
    result = decompose(net)
    assert result.removed_edges == frozenset()
    assert result.subnetworks == [[0, 1]]
