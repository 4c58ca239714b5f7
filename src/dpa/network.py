"""Networks of components, liveness checks and the communication graph.

A component pairs an alphabet with a behaviour (a term closed under a
definition environment, or a precompiled LTS for synthetic inputs).  The
network's vocabulary is the events with two or more owners: the events
some other component must cooperate on.  Everything outside the
vocabulary is a private action and gets hidden by :func:`abs_lts`, the
abstraction all local behavioural checks run against: the hidden LTS
quotiented by strong bisimulation, which is finer than the failures and
revivals models and keeps divergence.

Each compiled component is its owner's LTS (:class:`_Owner`; not an
event's owners) renamed by an event map φ, or is its own owner.  The members of a :class:`_Family`,
calls to one definition at values that only name events, share owners.
Liveness, abstraction and divergence are judged once per owner.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

from .events import EVENTS, fmt_trace
from .lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    bisim_quotient,
    check_alphabet,
    compile_term,
    hide_lts,
    rename_on_read,
)
from .lts import AlphabetViolation
from .semantics import component_deadlocks, first_tick_trace
from .terms import (
    Call,
    DefEnv,
    Div,
    DslValueError,
    EMPTY_ENV,
    ExtChoice,
    Guard,
    IndexedChoice,
    IntChoice,
    Interrupt,
    Prefix,
    Seq,
    Skip,
    Stop,
    Term,
    Var,
    eval_expr,
    expr_vars,
    set_values,
    template_formats,
)


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
    # the family the network put it in, and, once compiled, (owner, φ): the
    # owner's event -> its own, or None when it is its own owner
    family: _Family | None = field(init=False, repr=False, compare=False)
    _share: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # set in every instance, so that all components share one key table
        self.family = self._share = None

    def compiled(self, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
        """The behaviour's LTS, compiled once, or renamed from the owner of
        its family signature; it is cached only after it has been checked
        against the alphabet."""
        if self._compiled is None and self.family is not None:
            self._compiled = self.family.instance(self, limit)
        if self._compiled is None:
            lts = self.lts
            if lts is None:
                try:
                    lts = compile_term(self.env, self.term, limit)
                except Exception as exc:
                    raise CompileFailure(self.name, exc) from exc
            try:
                visible = check_alphabet(lts, self.alphabet)
            except AlphabetViolation as exc:
                raise InputError(f"component '{self.name}' has {exc}") from exc
            owner = _Owner(lts, visible)
            if self.family is not None:
                self.family.adopt(self, owner)
            self._share = (owner, None)
            self._compiled = lts
        return self._compiled


class _Owner:
    """A compiled LTS and the components that are it renamed.  ``events``
    are the labels φ maps, in the order φ is built from: the visible set
    itself, or a family signature's events."""

    __slots__ = ("lts", "visible", "events", "abstractions", "live")

    def __init__(self, lts: Lts, visible: frozenset):
        self.lts = lts
        self.visible = self.events = visible
        self.abstractions = {}  # labels hidden -> [abstraction, divergent or None]
        self.live = None  # (deadlock trace, tick trace), once searched


class _Family:
    """The components whose behaviour is a call to one definition ``P``
    whose parameters are event-only: each occurs only in prefix event
    fields, in the sets of indexed choices (whose own variables occur only
    in event fields) and as the unchanged argument of ``P``'s calls, which
    are all to itself.  Bound at two such values, ``P``'s body gives two
    terms that differ only in their events (a renaming of names, as
    scalarsets are; Ip and Dill, FMSD 1996), so their LTSs are one LTS up
    to the event map φ that the body's event templates resolve to at the
    two values: the same states, numbered alike, with each label mapped.

    Members are grouped by signature (:meth:`_resolve`).  The first member
    of a signature compiled is its owner and compiles on its own.  Every
    later one is the owner's LTS renamed by φ, once φ maps the owner's
    visible events inside the member's alphabet and the limit admits the
    owner's states; otherwise the member compiles on its own."""

    def __init__(self, env, definition, sites, choices):
        self.env = env
        self.params = definition.params
        self.choices = choices  # the body's indexed choices
        # the body's event templates, grouped by the choices they are under:
        # (choice indices, their variables, the distinct fields, each a
        # variable's name or an expression, and one format per template
        # over the fields' positions, see template_formats)
        groups = {}
        for template, scope in sites:
            groups.setdefault(scope, []).append(template)
        self.groups = []
        for scope, templates in groups.items():
            names = tuple(choices[k].var for k in scope)
            bound = set(self.params).union(names)
            fields, formats = template_formats(templates)
            fields = [f.name if type(f) is Var and f.name in bound else f for f in fields]
            self.groups.append((scope, names, fields, formats))
        self.owners = {}  # signature -> its _Owner

    def _resolve(self, args):
        """The body's events at ``args``, each template at each value of the
        choices it is under (None where the event is not interned), and
        their signature (None then): the equality patterns of the choice
        sets and of the events.  At one signature φ is one-to-one."""
        env = self.env
        bindings = dict(zip(self.params, args))
        patterns, values = [], []
        for choice in self.choices:
            first = {}
            patterns.append(tuple(first.setdefault(v, len(first))
                                  for v in set_values(choice.items, bindings, env)))
            values.append(first)
        events = []
        for scope, names, fields, formats in self.groups:
            for combo in product(*(values[k] for k in scope)):
                b = {**bindings, **dict(zip(names, combo))} if scope else bindings
                vals = [b[f] if type(f) is str else eval_expr(f, b, env) for f in fields]
                events.extend(EVENTS.lookup(form.format(*vals)) for form in formats)
        if None in events:
            return events, None
        first = {}
        pattern = tuple([first.setdefault(e, len(first)) for e in events])
        return events, (tuple(patterns), pattern)

    def adopt(self, comp: Component, owner: _Owner):
        """Make ``owner``, ``comp`` compiled on its own, the owner of
        ``comp``'s signature if that has none yet."""
        try:
            events, signature = self._resolve(comp.term.args)
        except DslValueError:
            return
        if signature is not None and signature not in self.owners:
            owner.events, self.owners[signature] = events, owner

    def instance(self, comp: Component, limit: int) -> Lts | None:
        """``comp``'s LTS renamed from the owner of its signature, or None
        when ``comp`` must compile on its own."""
        try:
            events, signature = self._resolve(comp.term.args)
        except DslValueError:
            return None
        owner = self.owners.get(signature)
        if owner is None or owner.lts.n_states > limit:
            return None
        phi = dict(zip(owner.events, events))
        if not comp.alphabet.issuperset(map(phi.__getitem__, owner.visible)):
            return None
        comp._share = (owner, phi)
        return rename_on_read(owner.lts, phi, _OwnTerms(comp, owner.lts.n_states))


def _family(env: DefEnv, name: str, arity: int) -> _Family | None:
    """The family of calls to ``name`` with ``arity`` arguments under
    ``env``, or None when a parameter of that definition is not
    event-only (or it has none)."""
    d = env.definitions.get((name, arity))
    if d is None or not d.params:
        return None
    own = frozenset(d.params)
    self_call = tuple(Var(p) for p in d.params)
    sites, choices = [], []
    stack = [(d.body, ())]
    while stack:
        term, scope = stack.pop()
        t = type(term)
        bound = own.union(choices[k].var for k in scope)
        if t is Prefix:
            if type(term.event) is int:  # a ground event in a source term
                return None
            sites.append((term.event, scope))
            stack.append((term.cont, scope))
        elif t is IndexedChoice:
            outer = bound - own
            if term.var in bound or any(
                expr_vars(e) & outer
                for kind, *exprs in term.items if kind != "field" for e in exprs
            ):
                return None
            choices.append(term)
            stack.append((term.body, scope + (len(choices) - 1,)))
        elif t is Guard:
            if expr_vars(term.cond) & bound:
                return None
            stack.append((term.body, scope))
        elif t is ExtChoice or t is IntChoice:
            stack.extend((item, scope) for item in term.items)
        elif t is Seq:
            stack.extend(((term.first, scope), (term.second, scope)))
        elif t is Interrupt:
            stack.extend(((term.body, scope), (term.handler, scope)))
        elif t is Call:
            if term.name != name or term.args != self_call:
                return None
        elif t not in (Stop, Skip, Div):
            return None
    return _Family(env, d, sites, choices)


class _OwnTerms(Sequence):
    """A renamed member's state terms: those of the member compiled on its
    own, which numbers its states as the renaming does; compiled only when
    a state is first named.  It holds the member's term, not the member,
    so that a network's components are freed without the cycle collector."""

    __slots__ = ("_env", "_term", "_len", "_terms")

    def __init__(self, comp: Component, n_states: int):
        self._env, self._term, self._len = comp.env, comp.term, n_states
        self._terms = None

    def __len__(self):
        return self._len

    def __getitem__(self, s):
        if self._terms is None:
            self._terms = compile_term(self._env, self._term).terms
        return self._terms[s]


class Network:
    """Ordered sequence of components with the derived event universe.

    ``owners`` maps each alphabet event to the indices of the components
    owning it, ascending.  ``sigma`` may be any container of event ids
    (the declared universe, all alphabet events by default) that holds
    every alphabet event; it is iterated only when the ``sigma`` attribute
    is first read."""

    def __init__(self, components, sigma=None):
        self.components: tuple = tuple(components)
        self._index = {}
        for i, c in enumerate(self.components):
            if self._index.setdefault(c.name, i) != i:
                raise InputError(f"component name '{c.name}' is declared twice")
        owners = {}
        for i, c in enumerate(self.components):
            for e in c.alphabet:
                owners.setdefault(e, []).append(i)
        self.owners: dict = {e: tuple(ix) for e, ix in owners.items()}
        self._declared = self.owners if sigma is None else sigma
        self.voc: frozenset = frozenset(e for e, ix in self.owners.items() if len(ix) > 1)
        self.warnings: tuple = ()
        self.abstractions: dict = {}  # component index -> abs_lts result
        # component index -> its entry in its owner's abstractions
        self.entries: dict = {}
        calls = {}
        for c in self.components:
            if c.lts is None and c.family is None and type(c.term) is Call and c.term.args:
                calls.setdefault((c.env, c.term.name, len(c.term.args)), []).append(c)
        for (env, name, arity), members in calls.items():
            if len(members) > 1:
                family = _family(env, name, arity)
                for c in members:
                    c.family = family

    @cached_property
    def sigma(self) -> frozenset:
        return frozenset(self._declared)

    def declares(self, e: int | str) -> bool:
        """``e in self.sigma``, without building sigma; ``e`` may also be
        the name of an event not interned yet."""
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
        dtrace, ttrace = _live_traces(comp, comp.compiled(limit))
        busy.append(SectionResult(comp.name, dtrace is None, dtrace))
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


def _live_traces(comp: Component, lts: Lts):
    """The busy and non-terminating witnesses of a compiled component, or
    None for each that holds, judged on its owner.  A renaming keeps both
    verdicts but not which trace comes first, so a renamed member reruns
    only a failing one on its own LTS."""
    owner, phi = comp._share
    if owner.live is None:
        owner.live = component_deadlocks(owner.lts), first_tick_trace(owner.lts)
    dtrace, ttrace = owner.live
    if phi is not None:
        dtrace = None if dtrace is None else component_deadlocks(lts)
        ttrace = None if ttrace is None else first_tick_trace(lts)
    return dtrace, ttrace


def _shared_abstraction(net: Network, i: int):
    """Component ``i``'s entry in its owner's abstractions: the owner's
    abstraction with the labels hidden whose images ``i`` hides, and
    whether that diverges; renamed by φ, it is ``i``'s abstraction.
    Looked up once per component and kept in ``net.entries``."""
    if i not in net.entries:
        owner, phi = net[i]._share
        hidden = net[i].alphabet - net.voc
        key = frozenset([e for e in owner.visible if (phi[e] if phi else e) in hidden])
        if key not in owner.abstractions:
            owner.abstractions[key] = [bisim_quotient(hide_lts(owner.lts, key)), None]
        net.entries[i] = owner.abstractions[key]
    return net.entries[i]


def abs_lts(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """Component behaviour with every non-vocabulary event hidden, quotiented
    by strong bisimulation: its owner's, renamed by φ when its rows are
    first read; built on the first request and cached on the network."""
    lts = net.abstractions.get(i)
    if lts is None:
        compiled = net[i].compiled(limit)
        lts = _shared_abstraction(net, i)[0]
        phi = net[i]._share[1]
        if phi is not None:
            # a quotient that merged no state is the hidden LTS, terms and all
            lts = rename_on_read(lts, phi, None if lts.terms is None else compiled.terms)
        net.abstractions[i] = lts
    return lts


def abs_divergent(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> bool:
    """True when hiding private events introduced divergence (a tau cycle),
    which makes stable checks on this abstraction vacuous; judged once per
    owner and hidden labels, on the owner's abstraction, so the rows of a
    renamed member's own abstraction are not built.

    Divergence only warns.  In a network deadlock no component can do a
    private event or an internal move, so each component's state there is
    stable in its abstraction, and the checks, which judge stable
    failures, see it: the setting of Brookes and Roscoe's ungranted-request
    theorem (Distributed Computing 4, 1991).  What a tau cycle hides is
    behaviour no deadlock can rest in."""
    abs_lts(net, i, limit)
    entry = _shared_abstraction(net, i)
    if entry[1] is None:
        lts = entry[0]
        entry[1] = find_cycle([lts.taus(s) for s in range(lts.n_states)]) is not None
    return entry[1]


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
