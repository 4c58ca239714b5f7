"""Networks of components, liveness checks and the communication graph.

A component pairs an alphabet with a behaviour (a term closed under a
definition environment, or a precompiled LTS for synthetic inputs).  The
network's vocabulary is the events with two or more owners: the events
some other component must cooperate on.  Everything outside the
vocabulary is a private action and gets hidden by :func:`abs_lts`, the
abstraction all local behavioural checks run against.  Each component is
abstracted once per network: the hidden LTS is quotiented by strong
bisimulation, which is finer than the failures and revivals models and
keeps divergence, and the result is cached on the network, and so is
whether it diverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .events import EVENTS, fmt_trace
from .lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    bisim_quotient,
    check_alphabet,
    compile_term,
    hide_lts,
)
from .lts import AlphabetViolation
from .semantics import component_deadlocks, first_tick_trace
from .terms import DefEnv, EMPTY_ENV, Term


class InputError(Exception):
    """User-fixable problems: bad bindings, ambiguous descriptors."""


class UnknownName(InputError, KeyError):
    """A component name the network does not have."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


class CompileFailure(Exception):
    def __init__(self, component, cause):
        super().__init__(f"component '{component}' failed to compile: {cause}")
        self.component = component
        self.cause = cause


class NotLive(Exception):
    def __init__(self, report):
        super().__init__("network is not live:\n" + report.summary())
        self.report = report


@dataclass
class Component:
    name: str
    alphabet: frozenset
    term: Term | None = None
    env: DefEnv = field(default_factory=lambda: EMPTY_ENV)
    lts: Lts | None = None  # precompiled behaviour (tests, abstractions)
    _compiled: Lts | None = field(default=None, repr=False)

    def compiled(self, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
        """The behaviour's LTS, compiled once; it is cached only after it
        has been checked against the alphabet."""
        if self._compiled is None:
            lts = self.lts
            if lts is None:
                try:
                    lts = compile_term(self.env, self.term, limit)
                except Exception as exc:
                    raise CompileFailure(self.name, exc) from exc
            try:
                check_alphabet(lts, self.alphabet)
            except AlphabetViolation as exc:
                raise InputError(f"component '{self.name}' has {exc}") from exc
            self._compiled = lts
        return self._compiled


class Network:
    """Ordered sequence of components with the derived event universe.

    ``owners`` maps each alphabet event to the indices of the components
    owning it, ascending.  ``sigma`` may be any container of event ids
    (the declared universe, all alphabet events by default); it is
    iterated only when the ``sigma`` attribute is first read."""

    def __init__(self, components, sigma=None):
        self.components: tuple = tuple(components)
        self._index = {c.name: i for i, c in enumerate(self.components)}
        if len(self._index) != len(self.components):
            raise ValueError("duplicate component names")
        owners = {}
        for i, c in enumerate(self.components):
            for e in c.alphabet:
                owners.setdefault(e, []).append(i)
        self.owners: dict = {e: tuple(ix) for e, ix in owners.items()}
        if sigma is not None and not all(e in sigma for e in self.owners):
            raise InputError("component alphabets must lie inside sigma")
        self._declared = self.owners if sigma is None else sigma
        self.voc: frozenset = frozenset(e for e, ix in self.owners.items() if len(ix) > 1)
        self.warnings: tuple = ()
        self.abstractions: dict = {}  # component index -> abs_lts result
        self.divergence: dict = {}  # component index -> abs_divergent result

    @cached_property
    def sigma(self) -> frozenset:
        return frozenset(self._declared)

    def declares(self, e: int) -> bool:
        """``e in self.sigma``, without building sigma."""
        return e in self.owners or e in self._declared

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i) -> Component:
        return self.components[i]

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise UnknownName(f"unknown component '{name}'")
        return self._index[name]

    def names(self):
        return [c.name for c in self.components]


@dataclass
class SectionResult:
    name: str
    ok: bool
    trace: tuple | None = None
    detail: str = ""

    def to_json(self):
        data = {"component": self.name, "ok": self.ok}
        if self.trace is not None:
            data["trace"] = [EVENTS.name(e) for e in self.trace]
        return data


@dataclass
class LivenessReport:
    busy: list
    non_terminating: list
    triple_disjoint: SectionResult

    @property
    def live(self) -> bool:
        return (
            all(r.ok for r in self.busy)
            and all(r.ok for r in self.non_terminating)
            and self.triple_disjoint.ok
        )

    def summary(self) -> str:
        lines = []
        for r in self.busy:
            lines.append(f"  busy {r.name}: {'ok' if r.ok else 'DEADLOCKS ' + fmt_trace(r.trace)}")
        for r in self.non_terminating:
            lines.append(
                f"  non-terminating {r.name}: {'ok' if r.ok else 'TICKS after ' + fmt_trace(r.trace)}"
            )
        t = self.triple_disjoint
        lines.append(
            f"  triple-disjoint: {'ok' if t.ok else 'VIOLATED ' + t.detail}"
        )
        return "\n".join(lines)

    def to_json(self):
        return {
            "live": self.live,
            "busy": [r.to_json() for r in self.busy],
            "non_terminating": [r.to_json() for r in self.non_terminating],
            "triple_disjoint": {"ok": self.triple_disjoint.ok,
                                "detail": self.triple_disjoint.detail},
        }


def check_live(net: Network, limit: int = DEFAULT_STATE_LIMIT) -> LivenessReport:
    """Busy + non-terminating + triple-disjoint, with witnesses on failure."""
    busy = []
    non_term = []
    for comp in net.components:
        lts = comp.compiled(limit)
        dtrace = component_deadlocks(lts)
        busy.append(SectionResult(comp.name, dtrace is None, dtrace))
        ttrace = first_tick_trace(lts)
        non_term.append(SectionResult(comp.name, ttrace is None, ttrace))
    td = SectionResult("triple-disjoint", True)
    for e, idx in sorted(net.owners.items()):
        if len(idx) > 2:
            who = ", ".join(net.components[i].name for i in idx)
            td = SectionResult(
                "triple-disjoint",
                False,
                detail=f"event {EVENTS.name(e)} shared by {who}",
            )
            break
    return LivenessReport(busy, non_term, td)


def abs_lts(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """Component behaviour with every non-vocabulary event hidden, quotiented
    by strong bisimulation; built on the first request and cached on the
    network."""
    lts = net.abstractions.get(i)
    if lts is None:
        hidden = hide_lts(net[i].compiled(limit), net[i].alphabet - net.voc)
        lts = net.abstractions[i] = bisim_quotient(hidden)
    return lts


def abs_divergent(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> bool:
    """True when hiding private events introduced divergence (a tau cycle),
    which makes stable checks on this abstraction vacuous; judged once per
    component and cached on the network."""
    lts = abs_lts(net, i, limit)
    divergent = net.divergence.get(i)
    if divergent is None:
        taus = [lts.taus(s) for s in range(lts.n_states)]
        divergent = net.divergence[i] = find_cycle(taus) is not None
    return divergent


@dataclass
class CommGraph:
    n: int
    names: list
    edges: dict  # (i, j) with i < j -> shared event set

    def adjacency(self):
        adj = {i: [] for i in range(self.n)}
        for (a, b) in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for v in adj.values():
            v.sort()
        return adj


TREE, OTHER, DONE = "tree", "other", "done"


def dfs_labeled_edges(adj, roots):
    """Depth-first search over ``adj`` (vertex -> successors in visit
    order) from each root not yet reached, in the order given; iterative,
    linear in vertices + edges.  Yields ``(u, v, TREE)`` when ``v`` is first
    reached, from ``u`` (``None`` for a root), ``(u, v, OTHER)`` for every
    other edge walked, and ``(u, v, DONE)`` when all of ``v``'s edges are
    walked, ``u`` being its tree parent (as networkx's ``dfs_labeled_edges``
    does, with different labels)."""
    seen = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        yield None, root, TREE
        stack = [(None, root, iter(adj[root]))]
        while stack:
            parent, v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    yield v, w, TREE
                    stack.append((v, w, iter(adj[w])))
                    break
                yield v, w, OTHER
            else:
                stack.pop()
                yield parent, v, DONE


def find_cycle(adj):
    """Some directed cycle of ``adj`` (per vertex from 0, its successors),
    from the first back edge a depth-first search walks, or None."""
    path, on_path = [], {}  # the vertices being walked, and their positions
    for u, v, kind in dfs_labeled_edges(adj, range(len(adj))):
        if kind == TREE:
            on_path[v] = len(path)
            path.append(v)
        elif kind == DONE:
            del on_path[path.pop()]
        elif v in on_path:
            return tuple(path[on_path[v]:])
    return None


def communication_graph(net: Network) -> CommGraph:
    """An edge for every pair of components that share an event, sorted by
    ``(i, j)``; the pairs come off the owner index, not off every pair."""
    shared = {}
    for e, idx in net.owners.items():
        for pair in combinations(idx, 2):
            shared.setdefault(pair, set()).add(e)
    edges = {pair: frozenset(shared[pair]) for pair in sorted(shared)}
    return CommGraph(len(net), net.names(), edges)
