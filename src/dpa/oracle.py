"""Ground-truth exploration of the full synchronised product.

This is the complete-but-exponential method the local analysis is measured
against: a breadth-first search over tuples of per-component LTS states,
synchronising shared events, with shortest-witness deadlock detection.  A
witness arrives explained: it holds the snapshot graph of ungranted requests
at the deadlocked state and a cycle in it.  On any deadlocked state of a
live network that cycle must exist, which the test-suite uses as a standing
sanity check on both the oracle and the theory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .events import EVENTS, TAU, TICK
from .lts import DEFAULT_STATE_LIMIT
from .network import DONE, TREE, Network, dfs_labeled_edges
from .semantics import _pair_trace


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
    """Precomputed per-component transition tables for the n-way product.

    The exploration limit bounds the product space only; components are
    compiled under the default cap."""

    def __init__(self, net: Network, limit: int):
        ltss = [c.compiled(max(limit, DEFAULT_STATE_LIMIT)) for c in net.components]
        self.taus = []
        self.vis = []
        self.tick = []
        for lts in ltss:
            comp_taus = []
            comp_vis = []
            comp_tick = []
            for row in lts.trans:
                comp_taus.append(tuple(t for (l, t) in row if l == TAU))
                vmap = {}
                for l, t in row:
                    if l >= 0:
                        vmap.setdefault(l, []).append(t)
                comp_vis.append({l: tuple(ts) for l, ts in vmap.items()})
                comp_tick.append(any(l == TICK for (l, _) in row))
            self.taus.append(comp_taus)
            self.vis.append(comp_vis)
            self.tick.append(comp_tick)
        self.owners = net.owners
        self.initial = tuple(lts.initial for lts in ltss)

    def moves(self, state):
        """Every move out of ``state`` as ``[(event or TAU, successor)]``.

        Tau moves come first (components ascending, then targets), then
        the synchronised events in ascending order, each with its
        successors (owners ascending, local targets ascending).  An event
        is enabled when all its owners offer it; each component's offers
        lie inside its alphabet (``check_alphabet``), so walking what the
        components offer finds every enabled event once, at its first
        owner, without scanning the alphabet."""
        out = []
        offers = []
        for i, s in enumerate(state):
            for t in self.taus[i][s]:
                nxt = list(state)
                nxt[i] = t
                out.append((TAU, tuple(nxt)))
            offers.append(self.vis[i][s])
        owners = self.owners
        enabled = []
        for i, offer in enumerate(offers):
            for e in offer:
                own = owners[e]
                if own[0] == i and all(e in offers[j] for j in own[1:]):
                    enabled.append(e)
        enabled.sort()
        for e in enabled:
            succs = [list(state)]
            for i in owners[e]:
                targets = offers[i][e]
                if len(targets) == 1:
                    for nxt in succs:
                        nxt[i] = targets[0]
                else:
                    succs = [nxt[:i] + [t] + nxt[i + 1:]
                             for nxt in succs for t in targets]
            out += [(e, tuple(nxt)) for nxt in succs]
        return out

    def all_tick(self, state):
        return all(self.tick[i][s] for i, s in enumerate(state))


def explore_global(net: Network, state_limit: int = DEFAULT_STATE_LIMIT):
    """BFS the synchronised product; first deadlock found has a shortest
    trace.  A deadlock is a state with no move at all (so stable, with no
    enabled visible event) that cannot terminate either."""
    prod = _Product(net, state_limit)
    start = prod.initial
    parents = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        moves = prod.moves(state)
        if not moves and not prod.all_tick(state):
            trace = _pair_trace(parents, state)
            gs = GlobalState(state, True, trace)
            snap = snapshot_graph(net, gs)
            cycle = find_ungranted_cycle(snap) or ()
            return DeadlockWitness(trace, gs, snap, cycle, explored)
        for e, nxt in moves:
            if nxt not in parents:
                if len(parents) >= state_limit:
                    return LimitReached(explored, len(queue))
                parents[nxt] = (state, e)
                queue.append(nxt)
    return DeadlockFree(explored)


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
    adj = {i: [] for i in range(g.n)}
    for (i, j) in sorted(g.arcs):
        adj[i].append(j)
    path, on_path = [], {}  # the vertices being walked, and their positions
    for u, v, kind in dfs_labeled_edges(adj, range(g.n)):
        if kind == TREE:
            on_path[v] = len(path)
            path.append(v)
        elif kind == DONE:
            del on_path[path.pop()]
        elif v in on_path:
            return tuple(path[on_path[v]:])
    return None
