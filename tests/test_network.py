import pytest
from conftest import random_live_network, reference_reachable

from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import event
from dpa.network import (
    Component,
    InputError,
    Network,
    abs_divergent,
    abs_lts,
    check_live,
    communication_graph,
)
from dpa.oracle import DeadlockFree, explore_global, snapshot_graph
from dpa.terms import Call, DefEnv, Definition, Prefix, STOP


def ring_buffer(n=3):
    return elaborate(parse_network(models.ring_buffer_source(n)))


def philosophers(n=3, symmetric=False):
    return elaborate(parse_network(models.philosophers_source(n, symmetric)))


def test_ring_buffer_is_live():
    report = check_live(ring_buffer())
    assert report.live
    assert all(r.ok for r in report.busy)
    assert all(r.ok for r in report.non_terminating)
    assert report.triple_disjoint.ok


def test_stop_component_fails_busyness():
    net = Network([
        Component("Dead", frozenset({event("z1")}), STOP),
        Component("Other", frozenset({event("z1")}),
                  Prefix(event("z1"), Call("L")),
                  DefEnv([Definition("L", (), Prefix(event("z1"), Call("L")))])),
    ])
    report = check_live(net)
    assert not report.live
    dead = [r for r in report.busy if r.name == "Dead"][0]
    assert not dead.ok
    assert dead.trace == ()


def test_behaviour_outside_its_alphabet_is_an_input_error_on_every_call():
    z1, z2 = event("z1"), event("z2")
    env = DefEnv([Definition("L", (), Prefix(z1, Prefix(z2, Call("L"))))])
    comp = Component("Leaky", frozenset({z1}), Call("L"), env)
    for _ in range(2):  # nothing unchecked is cached by the first call
        with pytest.raises(InputError, match="'Leaky' has transitions outside .*: z2"):
            comp.compiled()


def test_triple_disjoint_violation_cites_event():
    x = event("shared3.x")
    env = DefEnv([Definition("L", (), Prefix(x, Call("L")))])
    comps = [
        Component(f"T{i}", frozenset({x}), Call("L"), env) for i in range(3)
    ]
    report = check_live(Network(comps))
    assert not report.triple_disjoint.ok
    assert "shared3.x" in report.triple_disjoint.detail


def test_abs_hides_private_events():
    net = ring_buffer()
    ctrl = net.index_of("Controller")
    lts = abs_lts(net, ctrl)
    visible = {event_name for event_name in map_names(lts.visible_events())}
    assert all(e.startswith(("read.", "write.")) for e in visible)
    # the unshared channels vanished into internal moves
    assert not any(e.startswith(("input.", "output.")) for e in visible)
    assert abs_divergent(net, ctrl)  # hidden input/output loops diverge


def map_names(eids):
    from dpa.events import EVENTS

    return [EVENTS.name(e) for e in eids]


def test_abs_identity_when_alphabet_inside_vocabulary():
    net = ring_buffer()
    cell = net.index_of("Cell.0")
    assert net[cell].alphabet <= net.voc
    plain = net[cell].compiled()
    abstracted = abs_lts(net, cell)
    assert plain.trans == abstracted.trans


def test_abs_philosopher_hides_solo_actions():
    net = philosophers()
    idx = net.index_of("Phil.0")
    hidden = net[idx].alphabet - net.voc
    assert set(map_names(hidden)) == {"sit.0", "eat.0", "getup.0"}


def test_communication_graph_shapes():
    rb = communication_graph(ring_buffer())
    assert len(rb.edges) == 3
    ctrl = 0
    assert all(ctrl in e for e in rb.edges)

    ph = communication_graph(philosophers())
    assert len(ph.edges) == 6
    assert all(len(peers) == 2 for peers in ph.adjacency().values())  # one big ring

    x = event("solo.q")
    env = DefEnv([Definition("L", (), Prefix(x, Call("L")))])
    single = communication_graph(Network([Component("Solo", frozenset({x}), Call("L"), env)]))
    assert single.n == 1 and single.edges == {}


def test_snapshot_arcs_stay_inside_communication_graph(rng):
    for _ in range(12):
        net = random_live_network(rng)
        graph = communication_graph(net)
        count = 0
        for state in reference_reachable(net, state_limit=4000):
            if not state.stable:
                continue
            snap = snapshot_graph(net, state)
            for (i, j) in snap.arcs:
                assert (min(i, j), max(i, j)) in graph.edges
            count += 1
            if count > 60:
                break


def test_abstracted_network_deadlock_freedom_implies_concrete(rng):
    checked = 0
    for _ in range(24):
        net = random_live_network(rng, max_components=3, max_states=4)
        abs_comps = [
            Component(c.name, c.alphabet, lts=abs_lts(net, i))
            for i, c in enumerate(net.components)
        ]
        abs_net = Network(abs_comps, sigma=net.sigma)
        if isinstance(explore_global(abs_net, 60_000), DeadlockFree):
            checked += 1
            assert isinstance(explore_global(net, 60_000), DeadlockFree)
    assert checked >= 5  # the implication premise fired often enough
