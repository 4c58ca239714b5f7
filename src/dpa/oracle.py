"""Ground-truth exploration of the full synchronised product.

This is the complete-but-exponential method the local analysis is measured
against: a breadth-first search over the per-component LTS states,
synchronising shared events, with shortest-witness deadlock detection.

A global state is one mixed-radix integer and every local move a
precomputed delta (see :class:`_Product`); only a witness decodes its state
back into a tuple of local states.

A witness arrives explained: it holds the snapshot graph of ungranted requests
at the deadlocked state and a cycle in it.  On any deadlocked state of a
live network that cycle must exist, which the test-suite uses as a standing
sanity check on both the oracle and the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .events import EVENTS, TAU
from .lts import DEFAULT_STATE_LIMIT
from .network import Network, find_cycle
from .semantics import shortest_trace


class UnstableState(Exception):
    pass


@dataclass
class GlobalState:
    locals: tuple
    stable: bool
    trace: tuple

    def to_json(self, net: Network):
        return {
            "trace": [EVENTS.name(e) for e in self.trace],
            "locals": {
                net[i].name: net[i].compiled().state_name(s)
                for i, s in enumerate(self.locals)
            },
            "stable": self.stable,
        }


@dataclass
class DeadlockFree:
    states_explored: int

    def to_json(self, net=None):
        return {"result": "deadlock-free", "states_explored": self.states_explored}


@dataclass
class DeadlockWitness:
    """A shortest trace to a deadlocked state, explained by the snapshot
    graph there and an ungranted-request cycle in it (``()`` if none)."""

    trace: tuple
    state: GlobalState
    snapshot: SnapshotGraph
    cycle: tuple
    states_explored: int

    def to_json(self, net: Network):
        data = {
            "result": "deadlock",
            "witness": self.state.to_json(net),
            "states_explored": self.states_explored,
        }
        if self.cycle:
            data["cycle"] = [net[i].name for i in self.cycle]
        return data


@dataclass
class LimitReached:
    states_explored: int
    frontier: int

    def to_json(self, net=None):
        return {
            "result": "limit-reached",
            "states_explored": self.states_explored,
            "frontier": self.frontier,
        }

    def describe(self) -> str:
        # the search stops at the first new state past the limit, so the
        # states found so far, expanded or queued, number exactly the limit
        return (
            f"state limit of {self.states_explored + self.frontier} states reached "
            f"({self.states_explored} expanded, {self.frontier} on the frontier)"
        )


class _Product:
    """The n-way product over integer-coded global states.

    A global state is one mixed-radix integer: component ``i`` in local
    state ``s`` contributes ``s * stride_i``, where ``stride_i`` is the
    product of the sizes of components ``0..i-1``.  A local move from ``s``
    to ``t`` is then the delta ``(t - s) * stride_i``, and a synchronised
    move adds one delta per owner.  Per component and local state the
    tables hold the tau moves as ``(TAU, delta)``, the visible offers
    (event -> deltas) and the events the component leads (it is their
    least owner) split three ways: ``solo`` ``(event, delta)`` pairs (it
    owns them alone), ``duo`` ``(event, delta, other owner)`` triples (two
    owners, one target here) and ``rest``, with deltas and other owners.

    The exploration limit bounds the product space only; components are
    compiled under the default cap."""

    def __init__(self, net: Network, limit: int):
        ltss = [c.compiled(max(limit, DEFAULT_STATE_LIMIT)) for c in net.components]
        owners = net.owners
        self.strides = []
        self.tick = []
        self.initial = 0
        tables = []
        stride = 1
        for i, lts in enumerate(ltss):
            rows = []
            for s, row in enumerate(lts.trans):
                taus = tuple((TAU, (t - s) * stride) for (l, t) in row if l == TAU)
                offers = {}
                for l, t in row:
                    if l >= 0:
                        offers.setdefault(l, []).append((t - s) * stride)
                offers = {l: tuple(ds) for l, ds in offers.items()}
                solo, duo, rest = [], [], []
                for e, ds in offers.items():
                    own = owners[e]
                    if own == (i,):
                        solo += [(e, d) for d in ds]
                    elif own[0] == i and len(own) == 2 and len(ds) == 1:
                        duo.append((e, ds[0], own[1]))
                    elif own[0] == i:
                        rest.append((e, ds, own[1:]))
                rows.append((taus, offers, tuple(solo), tuple(duo), tuple(rest)))
            tables.append((i, stride, rows))
            self.strides.append((stride, lts.n_states))
            self.tick.append([lts.has_tick(s) for s in range(lts.n_states)])
            self.initial += lts.initial * stride
            stride *= lts.n_states
        self.n = len(ltss)
        self.descending = tables[::-1]

    def locals(self, code):
        return tuple(code // stride % size for stride, size in self.strides)

    def moves(self, code):
        """Every move out of ``code`` as ``[(event or TAU, successor)]``.

        Tau moves come first (components ascending, then targets), then
        the synchronised events in ascending order, each with its
        successors (earlier owners' targets outermost).  One pass over
        the components in descending index decodes each local state once;
        an event is checked at its least owner, when the offers of all its
        other owners (higher indices) are known.  Each component's offers
        lie inside its alphabet (``check_alphabet``), so this finds every
        enabled event once, without scanning the alphabet.  Each event's
        ``(event, delta)`` pairs come from one source, in order, so one
        stable sort by event orders them all."""
        offers = [None] * self.n
        taus = []
        pairs = []
        rem = code
        for i, stride, rows in self.descending:
            s, rem = divmod(rem, stride)
            tau, offers[i], solo, duo, rest = rows[s]
            if tau:
                taus.append(tau)
            if solo:  # most rows lack some part; a test is cheaper than an empty loop
                pairs += solo
            if duo:
                for e, d, j in duo:
                    more = offers[j].get(e)
                    if more is not None:
                        if len(more) == 1:
                            pairs.append((e, d + more[0]))
                        else:
                            pairs += [(e, d + m) for m in more]
            if rest:
                for e, ds, others in rest:
                    for j in others:
                        more = offers[j].get(e)
                        if more is None:
                            break
                        ds = [d + m for d in ds for m in more]
                    else:
                        pairs += [(e, d) for d in ds]
        pairs.sort(key=itemgetter(0))
        if taus:
            pairs[:0] = [move for tau in reversed(taus) for move in tau]
        return [(e, code + d) for e, d in pairs]

    def all_tick(self, code):
        return all(tick[s] for tick, s in zip(self.tick, self.locals(code)))


def explore_global(net: Network, state_limit: int = DEFAULT_STATE_LIMIT):
    """BFS the synchronised product; first deadlock found has a shortest
    trace.  A deadlock is a state with no move at all (so stable, with no
    enabled visible event) that cannot terminate either."""
    prod = _Product(net, state_limit)
    end = shortest_trace(prod.initial, prod.moves,
                         lambda c, moves: not moves and not prod.all_tick(c), state_limit)
    if end.frontier is not None:
        return LimitReached(end.explored, end.frontier)
    if end.trace is None:
        return DeadlockFree(end.explored)
    gs = GlobalState(prod.locals(end.state), True, end.trace)
    snap = snapshot_graph(net, gs)
    cycle = find_ungranted_cycle(snap) or ()
    return DeadlockWitness(end.trace, gs, snap, cycle, end.explored)


@dataclass
class SnapshotGraph:
    n: int
    names: list
    arcs: dict  # (i, j) -> frozenset of events i offers to j

    def to_json(self):
        return {
            "arcs": [
                {"from": self.names[i], "to": self.names[j],
                 "offers": EVENTS.names(evs)}
                for (i, j), evs in sorted(self.arcs.items())
            ]
        }


def snapshot_graph(net: Network, state: GlobalState) -> SnapshotGraph:
    """Directed graph of ungranted requests at one stable state: i requests
    from j, they cannot agree, and everything both offer needs cooperation."""
    if not state.stable:
        raise UnstableState("snapshot graphs are defined on stable states only")
    offers = [c.compiled().visible_initials(s) for c, s in zip(net.components, state.locals)]
    arcs = {}
    for i, mine in enumerate(offers):
        for j, theirs in enumerate(offers):
            request = mine & net[j].alphabet
            if i != j and request and not mine & theirs and (mine | theirs) <= net.voc:
                arcs[(i, j)] = frozenset(request)
    return SnapshotGraph(len(net), net.names(), arcs)


def find_ungranted_cycle(g: SnapshotGraph):
    """Some directed cycle of the snapshot graph (DFS back edge), or None."""
    adj = [[] for _ in range(g.n)]
    for (i, j) in sorted(g.arcs):
        adj[i].append(j)
    return find_cycle(adj)
