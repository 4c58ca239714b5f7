import random
from collections import deque

import pytest

import bundled
from conftest import ReferenceProduct, random_live_network, reference_reachable
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import EVENTS, TAU, TICK
from dpa.lts import DEFAULT_STATE_LIMIT
from dpa.oracle import (
    DeadlockFree,
    DeadlockWitness,
    GlobalState,
    LimitReached,
    SnapshotGraph,
    UnstableState,
    _Product,
    explore_global,
    find_ungranted_cycle,
    snapshot_graph,
)


def net_of(src):
    return elaborate(parse_network(src))


def test_symmetric_philosophers_deadlock_witness():
    net = net_of(models.philosophers_source(3, symmetric=True))
    result = explore_global(net)
    assert isinstance(result, DeadlockWitness)
    names = [EVENTS.name(e) for e in result.trace]
    # shortest witness: everyone sits and grabs their own fork, in some
    # interleaving; six events total
    assert len(names) == 6
    assert sorted(names) == sorted(
        ["sit.0", "sit.1", "sit.2", "pickup.0.0", "pickup.1.1", "pickup.2.2"]
    )
    # deterministic across runs
    again = explore_global(net)
    assert again.trace == result.trace


def test_asymmetric_philosophers_deadlock_free():
    net = net_of(models.philosophers_source(3))
    assert isinstance(explore_global(net), DeadlockFree)


def test_ring_buffer_deadlock_free():
    net = net_of(models.ring_buffer_source(3))
    assert isinstance(explore_global(net), DeadlockFree)


def test_limit_reached_reports_statistics():
    net = net_of(models.ring_buffer_source(3))
    result = explore_global(net, state_limit=10)
    assert isinstance(result, LimitReached)
    assert result.states_explored <= 10
    assert result.frontier >= 0


def test_snapshot_of_symmetric_deadlock_is_the_six_cycle():
    net = net_of(models.philosophers_source(3, symmetric=True))
    witness = explore_global(net)
    snap = snapshot_graph(net, witness.state)
    arcs = {(snap.names[i], snap.names[j]) for (i, j) in snap.arcs}
    expected = set()
    for i in range(3):
        expected.add((f"Fork.{i}", f"Phil.{i}"))  # held fork waits on holder
        expected.add((f"Phil.{i}", f"Fork.{(i + 1) % 3}"))  # holder wants next
    assert arcs == expected
    cycle = find_ungranted_cycle(snap)
    assert cycle is not None and len(cycle) == 6
    assert set(cycle) == set(range(6))


def test_deadlock_witness_arrives_explained():
    # the search itself reads the snapshot graph at the deadlock and a
    # cycle in it; nothing is set on the witness afterwards
    net = net_of(models.philosophers_source(3, symmetric=True))
    witness = explore_global(net)
    assert witness.snapshot == snapshot_graph(net, witness.state)
    assert len(witness.cycle) == 6 and set(witness.cycle) == set(range(6))
    # a lone component that stops deadlocks with no request to explain it
    lone = net_of("""
version 1
channel a
P = a -> STOP
atom PA = alphabet { a } behaviour P
instance X = PA
""")
    witness = explore_global(lone)
    assert witness.snapshot.arcs == {} and witness.cycle == ()
    assert "cycle" not in witness.to_json(lone)


def test_ring_buffer_has_no_mutual_controller_cell_arcs():
    net = net_of(models.ring_buffer_source(3))
    checked = 0
    for state in reference_reachable(net, state_limit=10_000):
        if not state.stable:
            continue
        snap = snapshot_graph(net, state)
        for (i, j) in snap.arcs:
            assert (j, i) not in snap.arcs, "conflict arose in the ring buffer"
        checked += 1
    assert checked > 10


def test_non_vocabulary_offers_produce_no_arcs():
    # a component offering only a private event is not requesting anything
    net = net_of(models.philosophers_source(3, symmetric=True))
    init = next(reference_reachable(net, state_limit=1))
    assert init.stable
    snap = snapshot_graph(net, init)
    # initially the philosophers offer sit.i (private): no arcs from them
    phil_ids = [net.index_of(f"Phil.{i}") for i in range(3)]
    assert all(i not in {a for (a, _b) in snap.arcs} for i in phil_ids)


def test_snapshot_requires_stable_state():
    # the election layer has internal choices, hence unstable global states
    net = net_of(models.leadership_source(2))
    unstable = None
    for state in reference_reachable(net, state_limit=2000):
        if not state.stable:
            unstable = state
            break
    assert unstable is not None
    with pytest.raises(UnstableState):
        snapshot_graph(net, unstable)


def test_cycle_detection_on_handmade_graphs():
    empty = SnapshotGraph(3, ["C0", "C1", "C2"], {})
    assert find_ungranted_cycle(empty) is None
    # the blocked-right-ring shape: a path into a three-cycle
    arcs = {
        (1, 0): frozenset(),
        (2, 1): frozenset(),
        (0, 3): frozenset(),
        (3, 4): frozenset(),
        (4, 5): frozenset(),
        (5, 3): frozenset(),
    }
    g = SnapshotGraph(6, [f"C{i}" for i in range(6)], arcs)
    cycle = find_ungranted_cycle(g)
    assert cycle is not None
    assert set(cycle) == {3, 4, 5}


def test_every_deadlock_yields_blocked_components_and_a_cycle(rng):
    deadlocks = 0
    for _ in range(40):
        net = random_live_network(rng)
        result = explore_global(net, 30_000)
        if not isinstance(result, DeadlockWitness):
            continue
        deadlocks += 1
        snap = snapshot_graph(net, result.state)
        assert find_ungranted_cycle(snap) is not None
        # every component is blocked: its alphabet is entirely refused
        ltss = [c.compiled() for c in net.components]
        offers = [
            ltss[i].visible_initials(result.state.locals[i])
            for i in range(len(net))
        ]
        refusals = set()
        for i, c in enumerate(net.components):
            refusals |= c.alphabet - offers[i]
        for c in net.components:
            assert c.alphabet <= refusals
    assert deadlocks >= 3


# ---------------------------------------------------------------------------
# reference: the plain product BFS over conftest.ReferenceProduct


def _reference_explore(net, state_limit=DEFAULT_STATE_LIMIT):
    prod = ReferenceProduct(net, state_limit)
    parents = {prod.initial: None}
    queue = deque([prod.initial])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if (prod.is_stable(state) and not prod.enabled_events(state)
                and not prod.all_tick(state)):
            trace = []
            cur = state
            while parents[cur] is not None:
                cur, e = parents[cur]
                if e is not None:
                    trace.append(e)
            trace = tuple(reversed(trace))
            gs = GlobalState(state, True, trace)
            snap = snapshot_graph(net, gs)
            return DeadlockWitness(trace, gs, snap, find_ungranted_cycle(snap) or (),
                                   states_explored=explored)
        for e, nxt in prod.moves(state):
            if nxt not in parents:
                if len(parents) >= state_limit:
                    return LimitReached(explored, len(queue))
                parents[nxt] = (state, e)
                queue.append(nxt)
    return DeadlockFree(explored)


def _corpus(group):
    if group == "bundled":
        return [net_of(build()) for name, build in sorted(bundled.BUNDLED.items())
                if name.endswith(".net")]
    if group == "philosophers":
        return [net_of(models.philosophers_source(n, symmetric=sym))
                for n in range(2, 6) for sym in (False, True)]
    if group == "ring_buffer_leadership":
        return [net_of(models.ring_buffer_source(n)) for n in range(2, 5)] + [
            net_of(models.leadership_source(2))]
    rng = random.Random(3)
    return [random_live_network(rng) for _ in range(40)] + [net_of(BOTH_BRANCH)]


# both owners of ``a`` have two targets for it, so the order of the four
# successors is visible in the BFS order
BOTH_BRANCH = """
version 1
channel a
channel b
channel c
P = a -> b -> P [] a -> c -> P
Q = a -> b -> Q [] a -> c -> Q
atom PA = alphabet { a, b, c } behaviour P
atom QA = alphabet { a, b, c } behaviour Q
instance X = PA
instance Y = QA
"""


GROUPS = ("bundled", "philosophers", "ring_buffer_leadership", "random")
LIMITS = (1, 10, 100, DEFAULT_STATE_LIMIT)


@pytest.mark.parametrize("group", GROUPS)
def test_explore_global_matches_reference(group):
    nets = _corpus(group)
    assert len(nets) == {"bundled": 6, "philosophers": 8,
                         "ring_buffer_leadership": 4, "random": 41}[group]
    kinds = set()
    for net in nets:
        for limit in LIMITS:
            expected = _reference_explore(net, limit)
            assert explore_global(net, limit) == expected
            kinds.add(type(expected).__name__)
    assert "LimitReached" in kinds and "DeadlockFree" in kinds


@pytest.mark.parametrize("symmetric", (False, True))
def test_explore_global_matches_reference_on_wide_codes(symmetric):
    # 60 components: a global state's code is wider than a machine word
    net = net_of(models.philosophers_source(30, symmetric=symmetric))
    stride, size = _Product(net, 1).strides[-1]
    assert (stride * size).bit_length() > 64
    kinds = set()
    for limit in (1, 10, 100, 2000):
        expected = _reference_explore(net, limit)
        assert explore_global(net, limit) == expected
        kinds.add(type(expected).__name__)
    assert "LimitReached" in kinds
