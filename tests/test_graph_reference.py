"""The graph searches built on ``network.dfs_labeled_edges`` against the
separate depth-first searches they replaced (``graph_reference.py``), on
seeded random graphs: bridge sets, component lists and cycles must be
equal, so the shared search keeps each one's visit order."""

import random

from graph_reference import (
    bridges_reference,
    find_ungranted_cycle_reference,
    subnetworks_reference,
)
from dpa.decomposition import bridges, connected_components
from dpa.network import DONE, OTHER, TREE, CommGraph, dfs_labeled_edges
from dpa.oracle import SnapshotGraph, find_ungranted_cycle

UNDIRECTED = 600
DIRECTED = 600


def _names(n):
    return [f"C{i}" for i in range(n)]


def random_undirected(rng):
    """Several dense or sparse clusters of shuffled vertices, some vertices
    left isolated, n up to 200."""
    n = rng.randint(1, 200 if rng.random() < 0.3 else 40)
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = set()
    start = 0
    while start < n:
        size = rng.randint(1, max(1, n // rng.randint(1, 4)))
        cluster = vertices[start:start + size]
        start += size
        if len(cluster) < 2 or rng.random() < 0.15:
            continue  # isolated vertices
        for _ in range(int(len(cluster) * rng.uniform(0.5, 2.0))):
            i, j = rng.sample(cluster, 2)
            edges.add((min(i, j), max(i, j)))
    return CommGraph(n, _names(n), {e: frozenset() for e in sorted(edges)})


def random_directed(rng, acyclic):
    """Arcs between distinct vertices; an acyclic graph orients each arc
    along a random ranking of the vertices."""
    n = rng.randint(1, 200 if rng.random() < 0.3 else 30)
    rank = list(range(n))
    rng.shuffle(rank)
    arcs = {}
    for _ in range(int(n * rng.uniform(0.3, 2.0))):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if acyclic and rank[i] > rank[j]:
            i, j = j, i
        arcs[(i, j)] = frozenset()
    return SnapshotGraph(n, _names(n), arcs)


def test_undirected_graphs_match_reference():
    rng = random.Random(1301)
    kinds = {"bridged": 0, "split": 0, "isolated": 0}
    for trial in range(UNDIRECTED):
        g = random_undirected(rng)
        found = bridges(g)
        assert found == bridges_reference(g), trial
        subs = connected_components(g)
        assert subs == subnetworks_reference(g), trial
        kinds["bridged"] += bool(found)
        kinds["split"] += len(subs) > 1
        kinds["isolated"] += any(len(s) == 1 for s in subs)
    # the corpus exercises what it claims to
    assert all(count > UNDIRECTED // 4 for count in kinds.values()), kinds


def test_directed_graphs_match_reference():
    rng = random.Random(1302)
    cyclic = 0
    for trial in range(DIRECTED):
        acyclic = trial % 2 == 0
        g = random_directed(rng, acyclic)
        cycle = find_ungranted_cycle(g)
        assert cycle == find_ungranted_cycle_reference(g), trial
        if acyclic:
            assert cycle is None, trial
        elif cycle is not None:
            cyclic += 1
            closing = list(zip(cycle, cycle[1:] + cycle[:1]))
            assert all(arc in g.arcs for arc in closing), trial
    assert cyclic > DIRECTED // 4


def test_labelled_edges_of_a_small_graph():
    # roots ascending, each adjacency list in its given order; every tree
    # edge is later closed by its DONE event, with the same parent
    adj = {0: [2, 1], 1: [0], 2: [0, 1], 3: []}
    assert list(dfs_labeled_edges(adj, range(4))) == [
        (None, 0, TREE),
        (0, 2, TREE),
        (2, 0, OTHER),
        (2, 1, TREE),
        (1, 0, OTHER),
        (2, 1, DONE),
        (0, 2, DONE),
        (0, 1, OTHER),
        (None, 0, DONE),
        (None, 3, TREE),
        (None, 3, DONE),
    ]
