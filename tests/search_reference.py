"""Reference copies of the searches ``dpa`` ran before its witness searches
became calls of ``semantics.shortest_trace`` and its cycle searches calls
of ``network.find_cycle``: the oracle's own breadth-first loop (with the
cycle walk of ``find_ungranted_cycle``), ``semantics._shortest_trace`` with
the two liveness searches over it, and the divergence judgement read off
``stable_behaviours``.  Each is kept verbatim, apart from its name, so that
``test_search_reference.py`` can diff the shared searches against them."""

from collections import deque

from dpa.lts import DEFAULT_STATE_LIMIT, Lts
from dpa.network import DONE, TREE, Network, abs_lts, dfs_labeled_edges
from dpa.oracle import (
    DeadlockFree,
    DeadlockWitness,
    GlobalState,
    LimitReached,
    SnapshotGraph,
    _Product,
    snapshot_graph,
)
from dpa.semantics import _pair_trace, stable_behaviours


def explore_global_reference(net: Network, state_limit: int = DEFAULT_STATE_LIMIT):
    """BFS the synchronised product; first deadlock found has a shortest
    trace.  A deadlock is a state with no move at all (so stable, with no
    enabled visible event) that cannot terminate either."""
    prod = _Product(net, state_limit)
    start = prod.initial
    parents = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        code = queue.popleft()
        explored += 1
        moves = prod.moves(code)
        if not moves and not prod.all_tick(code):
            trace = _pair_trace(parents, code)
            gs = GlobalState(prod.locals(code), True, trace)
            snap = snapshot_graph(net, gs)
            cycle = find_ungranted_cycle_reference(snap) or ()
            return DeadlockWitness(trace, gs, snap, cycle, explored)
        for e, nxt in moves:
            if nxt not in parents:
                if len(parents) >= state_limit:
                    return LimitReached(explored, len(queue))
                parents[nxt] = (code, e)
                queue.append(nxt)
    return DeadlockFree(explored)


def find_ungranted_cycle_reference(g: SnapshotGraph):
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


def _shortest_trace(lts: Lts, found):
    """Shortest visible trace to a state where ``found(state)``, or None."""
    queue = deque([lts.initial])
    parents = {lts.initial: None}
    while queue:
        s = queue.popleft()
        if found(s):
            return _pair_trace(parents, s)
        for l, t in lts.trans[s]:
            if t not in parents:
                parents[t] = (s, l)
                queue.append(t)
    return None


def component_deadlocks_reference(lts: Lts):
    """Shortest trace to a state that offers nothing at all, or None."""
    return _shortest_trace(lts, lambda s: not lts.trans[s])


def first_tick_trace_reference(lts: Lts):
    """Shortest visible trace leading to an enabled termination, or None."""
    return _shortest_trace(lts, lts.has_tick)


def divergent_reference(lts: Lts) -> bool:
    """Some state lies on an internal-transition cycle."""
    return any(stable_behaviours(lts).divergent)


def abs_divergent_reference(net: Network, i: int) -> bool:
    """The judgement ``abs_divergent`` made of component ``i``, uncached."""
    return divergent_reference(abs_lts(net, i))
