"""Reference copies of the three graph searches that ``dpa`` ran before they
became loops over ``network.dfs_labeled_edges``: the low-link bridge
search, the split of a graph into connected components and the search for
a directed cycle.  Each is its own iterative depth-first search, kept
verbatim (apart from the split, which took its graph inline in
``decompose``) so that ``test_graph_reference.py`` can diff the shared
search against them."""


def bridges_reference(g):
    """All disconnecting edges of a ``CommGraph``, via the low-link bridge
    algorithm, implemented iteratively (linear in nodes + edges)."""
    adj = g.adjacency()
    pre = {v: -1 for v in range(g.n)}
    low = {}
    counter = 0
    out = set()
    for root in range(g.n):
        if pre[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        pre[root] = counter
        low[root] = counter
        counter += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if pre[w] == -1:
                    pre[w] = counter
                    low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                elif w != parent:
                    # back or cross edge within the component (the graph is
                    # simple, so skipping every parent occurrence is sound)
                    low[v] = min(low[v], pre[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > pre[u]:
                        out.add((min(u, v), max(u, v)))
    return frozenset(out)


def subnetworks_reference(g):
    """The connected components of a ``CommGraph`` as sorted index lists,
    each found from its least index, so in order."""
    adj = g.adjacency()
    seen = set()
    subnetworks = []
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [s], [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        subnetworks.append(sorted(comp))
    return subnetworks


def find_ungranted_cycle_reference(g):
    """Some directed cycle of a ``SnapshotGraph`` (DFS back edge), or None."""
    adj = {i: [] for i in range(g.n)}
    for (i, j) in sorted(g.arcs):
        adj[i].append(j)
    color = {i: 0 for i in range(g.n)}
    parent = {}
    for root in range(g.n):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return tuple(cycle)
            if not advanced:
                color[v] = 2
                stack.pop()
    return None
