"""Topology-based decomposition: remove conflict-free bridges, split into
essential subnetworks.

A bridge of the communication graph may be removed when the two components
on it can never reach a mutual ungranted request.  That is decided by a
revivals refinement: the pair is abstracted, each shared-event offer is
doubled with a fresh ``req`` offer, the two sides are composed in parallel,
and the result must refine a specification that permits every behaviour
except "offers req while refusing every shared event" before the first
req, and never deadlocks before it either.  That specification is built
directly in normal form, with two states: the one before the first req,
and CHAOS after it, where refinement stops exploring.

A failed refinement does not demonstrate a real conflict (abstraction can
introduce spurious ones), hence the verdict name ``possible-conflict``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .events import EVENTS
from .lts import DEFAULT_STATE_LIMIT, Lts, parallel_lts, rename_lts
from .network import (
    OTHER,
    TREE,
    CommGraph,
    InputError,
    Network,
    NotLive,
    abs_divergent,
    abs_lts,
    check_live,
    communication_graph,
    dfs_labeled_edges,
)
from .semantics import Counterexample, NormalSpec, NormalState, REVIVALS, refines

CONFLICT_FREE = "conflict-free"
POSSIBLE_CONFLICT = "possible-conflict"


# ---------------------------------------------------------------------------
# bridges


def bridges(g: CommGraph) -> frozenset:
    """All disconnecting edges, via the low-link bridge algorithm over one
    depth-first search (linear in nodes + edges)."""
    pre, low, parent = {}, {}, {}
    out = set()
    for u, v, kind in dfs_labeled_edges(g.adjacency(), range(g.n)):
        if kind == TREE:
            pre[v] = low[v] = len(pre)
            parent[v] = u
        elif kind == OTHER:
            # back or cross edge within the component (the graph is simple,
            # so skipping the edge back to the parent is sound)
            if v != parent[u]:
                low[u] = min(low[u], pre[v])
        elif u is not None:
            low[u] = min(low[u], low[v])
            if low[v] > pre[u]:
                out.add((min(u, v), max(u, v)))
    return frozenset(out)


def connected_components(g: CommGraph) -> list:
    """Sorted index lists, each found from its least index, so in order."""
    out = []
    for u, v, kind in dfs_labeled_edges(g.adjacency(), range(g.n)):
        if kind == TREE:
            if u is None:
                out.append([])
            out[-1].append(v)
    return [sorted(sub) for sub in out]


# ---------------------------------------------------------------------------
# conflict freedom


def fresh_req(net: Network) -> int:
    return EVENTS.fresh("req", net.declares)


def build_context(
    net: Network, i: int, j: int, limit: int = DEFAULT_STATE_LIMIT, req: int | None = None
) -> Lts:
    """Parallel composition of the two abstracted components, where every
    shared-event offer additionally offers the fresh request event."""
    if i == j:
        raise InputError(f"component {net[i].name} cannot conflict with itself")
    shared = net[i].alphabet & net[j].alphabet
    if not shared:
        raise InputError(
            f"components {net[i].name} and {net[j].name} share no event"
        )
    if req is None:
        req = fresh_req(net)
    ext_i = rename_lts(abs_lts(net, i, limit), {e: (e, req) for e in shared})
    ext_j = rename_lts(abs_lts(net, j, limit), {e: (e, req) for e in shared})
    return parallel_lts(
        ext_i,
        net[i].alphabet | {req},
        ext_j,
        net[j].alphabet | {req},
        limit,
    )


def build_conflict_free_spec(
    net: Network, i: int, j: int, req: int | None = None
) -> NormalSpec:
    """The normal form of the characteristic process.  State 0, before any
    req, accepts one event of the union alphabet, or req together with one
    shared event, and never deadlocks or ticks; req leads to state 1,
    CHAOS over the union alphabet and req."""
    if req is None:
        req = fresh_req(net)
    union = net[i].alphabet | net[j].alphabet
    shared = net[i].alphabet & net[j].alphabet
    universe = union | {req}
    singles = sorted((frozenset({e}) for e in union), key=sorted)
    offers = singles + [frozenset({e, req}) for e in shared]
    before = NormalState(tuple(singles), tuple(sorted(offers, key=sorted)), False, False)
    anything = [frozenset()] + [frozenset({e}) for e in universe]
    chaos = NormalState((frozenset(),), tuple(sorted(anything, key=sorted)), True, True)
    rows = [dict.fromkeys(union, 0) | {req: 1}, dict.fromkeys(universe, 1)]
    return NormalSpec(universe, [before, chaos], rows, chaos=1)


@dataclass
class ConflictCheck:
    edge: tuple  # (i, j) indices
    names: tuple  # component names
    verdict: str  # CONFLICT_FREE or POSSIBLE_CONFLICT
    counterexample: Counterexample | None
    context_states: int
    divergent_abstractions: tuple = ()  # names whose abstraction diverges

    def to_json(self):
        data = {
            "edge": list(self.names),
            "verdict": self.verdict,
            "context_states": self.context_states,
        }
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample.to_json()
        if self.divergent_abstractions:
            data["divergence_warnings"] = list(self.divergent_abstractions)
        return data


def check_conflict_free(
    net: Network, i: int, j: int, limit: int = DEFAULT_STATE_LIMIT
) -> ConflictCheck:
    req = fresh_req(net)
    context = build_context(net, i, j, limit, req)
    spec = build_conflict_free_spec(net, i, j, req)
    ce = refines(spec, context, REVIVALS)
    warn = [net[k].name for k in (i, j) if abs_divergent(net, k, limit)]
    return ConflictCheck(
        edge=(i, j),
        names=(net[i].name, net[j].name),
        verdict=CONFLICT_FREE if ce is None else POSSIBLE_CONFLICT,
        counterexample=ce,
        context_states=context.n_states,
        divergent_abstractions=tuple(warn),
    )


# ---------------------------------------------------------------------------
# decomposition


def _without(graph: CommGraph, removed) -> CommGraph:
    edges = {e: shared for e, shared in graph.edges.items() if e not in removed}
    return CommGraph(graph.n, graph.names, edges)


@dataclass
class DecompositionResult:
    graph: CommGraph
    bridge_edges: frozenset
    checks: list
    removed_edges: frozenset
    subnetworks: list  # sorted lists of component indices
    all_singular: bool

    def residual_graph(self) -> CommGraph:
        """The communication graph after removing the conflict-free bridges;
        its connected components are the essential subnetworks."""
        return _without(self.graph, self.removed_edges)

    def subnetwork_names(self, net: Network):
        return [[net[i].name for i in sub] for sub in self.subnetworks]

    def to_json(self, net: Network):
        return {
            "bridges": [[net[i].name, net[j].name] for (i, j) in sorted(self.bridge_edges)],
            "checks": [c.to_json() for c in self.checks],
            "removed_edges": [
                [net[i].name, net[j].name] for (i, j) in sorted(self.removed_edges)
            ],
            "subnetworks": self.subnetwork_names(net),
            "all_singular": self.all_singular,
        }


def decompose(
    net: Network,
    limit: int = DEFAULT_STATE_LIMIT,
    precheck_live: bool = True,
    timings: dict | None = None,
) -> DecompositionResult:
    """Remove conflict-free bridges and split the communication graph into
    essential subnetworks.  Refuses to run on a network that is not live."""
    if precheck_live:
        report = check_live(net, limit)
        if not report.live:
            raise NotLive(report)
    t0 = time.perf_counter()
    graph = communication_graph(net)
    bridge_edges = bridges(graph)
    if timings is not None:
        timings["bridges"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    checks = [check_conflict_free(net, i, j, limit) for i, j in sorted(bridge_edges)]
    if timings is not None:
        timings["conflicts"] = time.perf_counter() - t0
    removed = frozenset(c.edge for c in checks if c.verdict == CONFLICT_FREE)
    subnetworks = connected_components(_without(graph, removed))
    return DecompositionResult(
        graph=graph,
        bridge_edges=bridge_edges,
        checks=checks,
        removed_edges=removed,
        subnetworks=subnetworks,
        all_singular=all(len(sub) == 1 for sub in subnetworks),
    )
