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

Most components of a parametrised model are one definition called at
different values that only name events.  Such components form a
:class:`_Family`: the first one compiled, the representative, compiles as
usual and every other one gets its LTS, liveness verdicts and abstractions
from the representative's by renaming events, each LTS's rows only when
they are first read.
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
    # the family the network put it in, and, once compiled from or as its
    # representative, (family, φ): the representative's event -> its own,
    # or None for the representative itself
    family: _Family | None = field(init=False, repr=False, compare=False)
    _share: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # set in every instance, so that all components share one key table
        self.family = self._share = None

    def compiled(self, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
        """The behaviour's LTS, compiled once, or renamed from its family's
        representative; it is cached only after it has been checked
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
                if self.family is not None:
                    self.family.adopt(self, lts)
            try:
                check_alphabet(lts, self.alphabet)
            except AlphabetViolation as exc:
                raise InputError(f"component '{self.name}' has {exc}") from exc
            self._compiled = lts
        return self._compiled


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

    The first member compiled, the representative, compiles on its own.
    Every other member is its LTS renamed by φ, once φ is a one-to-one map
    onto interned events inside the member's alphabet, every choice set
    repeats its values where the representative's does, and the limit
    admits the representative's states; on any other outcome the member
    compiles on its own."""

    def __init__(self, env, definition, sites, choices):
        self.env = env
        self.params = definition.params
        self.choices = choices  # the body's indexed choices
        # the body's event templates, grouped by the choices they are under:
        # (choice indices, their variables, the distinct fields, each a
        # variable's name or an expression, and one format per template
        # over the fields' positions)
        groups = {}
        for template, scope in sites:
            fields, formats = groups.setdefault(scope, ({}, []))
            formats.append(template.head + "".join(
                ".{%d}" % fields.setdefault(f, len(fields)) for f in template.fields))
        self.groups = []
        for scope, (fields, formats) in groups.items():
            names = tuple(choices[k].var for k in scope)
            bound = set(self.params).union(names)
            fields = [f.name if type(f) is Var and f.name in bound else f for f in fields]
            self.groups.append((scope, names, fields, formats))
        self.lts = None  # the representative's LTS
        self.events = None  # its events, as _resolve gives them
        self.patterns = None  # its choice sets' equality patterns
        self.visible = None  # its LTS's visible labels
        self.live = None  # its (deadlock trace, tick trace)

    def _resolve(self, args):
        """The body's events at ``args``, each template at each value of the
        choices it is under (None where the event is not interned), and
        each choice set's equality pattern: each value numbered by its
        first position."""
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
        return events, patterns

    def adopt(self, comp: Component, lts: Lts):
        """Make ``comp``, compiled on its own, the representative if there
        is none yet and every event of its body is interned."""
        if self.lts is None:
            try:
                events, patterns = self._resolve(comp.term.args)
            except Exception:
                return
            if None not in events:
                self.lts, self.visible = lts, lts.visible_events()
                self.events, self.patterns = events, patterns
                comp._share = (self, None)

    def instance(self, comp: Component, limit: int) -> Lts | None:
        """``comp``'s LTS renamed from the representative's, or None when
        ``comp`` must compile on its own."""
        if self.lts is None or self.lts.n_states > limit:
            return None
        try:
            events, patterns = self._resolve(comp.term.args)
        except Exception:
            return None
        if patterns != self.patterns or None in events:
            return None
        phi = dict(zip(self.events, events))
        if (
            list(map(phi.__getitem__, self.events)) != events  # a function
            or len(set(phi.values())) != len(phi)  # one-to-one
            or not comp.alphabet.issuperset(map(phi.__getitem__, self.visible))
        ):
            return None
        comp._share = (self, phi)
        return rename_on_read(self.lts, phi, _OwnTerms(comp, self.lts.n_states))


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
        # (family, the representative's labels hidden) -> [its abstraction,
        # whether that diverges, None until asked]
        self.shared: dict = {}
        self.entries: dict = {}  # family member's index -> its entry in shared
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
    None for each that holds.  A renaming keeps both verdicts but not
    which trace comes first, so a family member takes the representative's
    verdicts and reruns only a failing one on its own LTS."""
    if comp._share is None:
        return component_deadlocks(lts), first_tick_trace(lts)
    family, phi = comp._share
    if family.live is None:
        family.live = (component_deadlocks(family.lts), first_tick_trace(family.lts))
    dtrace, ttrace = family.live
    if phi is None:
        return dtrace, ttrace
    return (
        None if dtrace is None else component_deadlocks(lts),
        None if ttrace is None else first_tick_trace(lts),
    )


def _shared_abstraction(net: Network, i: int):
    """For a family member, its family's entry in ``net.shared``: the
    representative's abstraction with the labels hidden whose images the
    member hides; renamed, it is the member's abstraction.  None for any
    other component.  Looked up once per member and kept in
    ``net.entries``."""
    entry = net.entries.get(i)
    if entry is not None:
        return entry
    comp = net[i]
    if comp._share is None:
        return None
    family, phi = comp._share
    hidden = comp.alphabet - net.voc
    key = (family, frozenset(
        e for e in family.visible if (e if phi is None else phi[e]) in hidden))
    entry = net.shared.get(key)
    if entry is None:
        entry = net.shared[key] = [bisim_quotient(hide_lts(family.lts, key[1])), None]
    net.entries[i] = entry
    return entry


def abs_lts(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """Component behaviour with every non-vocabulary event hidden, quotiented
    by strong bisimulation; built on the first request and cached on the
    network.  A family member renames its family's, when its rows are
    first read."""
    lts = net.abstractions.get(i)
    if lts is None:
        comp = net[i]
        compiled = comp.compiled(limit)
        entry = _shared_abstraction(net, i)
        if entry is None:
            lts = bisim_quotient(hide_lts(compiled, comp.alphabet - net.voc))
        elif comp._share[1] is None:
            lts = entry[0]
        else:
            # a quotient that merged no state is the hidden LTS, terms and all
            terms = None if entry[0].terms is None else compiled.terms
            lts = rename_on_read(entry[0], comp._share[1], terms)
        net.abstractions[i] = lts
    return lts


def _divergent(lts: Lts) -> bool:
    return find_cycle([lts.taus(s) for s in range(lts.n_states)]) is not None


def abs_divergent(net: Network, i: int, limit: int = DEFAULT_STATE_LIMIT) -> bool:
    """True when hiding private events introduced divergence (a tau cycle),
    which makes stable checks on this abstraction vacuous; judged once per
    component, or per family and hidden labels, and cached on the
    network.  A family member's verdict is its family's, so the rows of
    its own abstraction are not built.

    Divergence only warns.  In a network deadlock no component can do a
    private event or an internal move, so each component's state there is
    stable in its abstraction, and the checks, which judge stable
    failures, see it: the setting of Brookes and Roscoe's ungranted-request
    theorem (Distributed Computing 4, 1991).  What a tau cycle hides is
    behaviour no deadlock can rest in."""
    lts = abs_lts(net, i, limit)
    divergent = net.divergence.get(i)
    if divergent is None:
        entry = _shared_abstraction(net, i)
        if entry is None:
            divergent = _divergent(lts)
        else:
            if entry[1] is None:
                entry[1] = _divergent(entry[0])
            divergent = entry[1]
        net.divergence[i] = divergent
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
