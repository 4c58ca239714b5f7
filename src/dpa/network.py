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
event's owners) renamed by an event map φ, or is its own owner.  Owners
are shared by the members of a :class:`_Family`: the calls that one
sharing walk per called definition, made when ``dsl.elaborate`` plans
each atom, finds equal up to their event and definition names and the
values of parameters that only name events.  Liveness, abstraction and
divergence are judged once per owner.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    rename_on_read,
)
from .lts import AlphabetViolation
from .semantics import component_deadlocks, first_tick_trace
from .terms import (
    Call,
    DefEnv,
    Div,
    EMPTY_ENV,
    EventTemplate,
    ExtChoice,
    Guard,
    IndexedChoice,
    IntChoice,
    Interrupt,
    Lit,
    Prefix,
    Seq,
    Skip,
    Stop,
    Term,
    Var,
    expr_vars,
    free_vars,
    substituted,
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
    # the _Family the elaborator put it in, and, once compiled, (owner, φ):
    # the owner's event -> its own, or None when it is its own owner
    family: _Family | None = field(init=False, repr=False, compare=False)
    _share: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # set in every instance, so that all components share one key table
        self.family = self._share = None

    def compiled(self, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
        """The behaviour's LTS: renamed from the owner of its signature,
        or compiled once, when it owns that signature if no member does yet
        and its events name every label it has; it is cached only after it
        has been checked against the alphabet."""
        if self._compiled is not None:
            return self._compiled
        events = signature = None
        if self.family is not None:
            events, signature = self.family.claim(self)
            owner = self.family.owners.get(signature)
            if owner is not None and owner.lts.n_states <= limit:
                phi = dict(zip(owner.events, events))
                if self.alphabet.issuperset(map(phi.__getitem__, owner.visible)):
                    self._share = (owner, phi)
                    self._compiled = rename_on_read(
                        owner.lts, phi, _OwnTerms(self, owner.lts.n_states))
                    return self._compiled
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
        if (signature is not None and signature not in self.family.owners
                and visible.issubset(events)):
            owner.events, self.family.owners[signature] = events, owner
        self._share = (owner, None)
        self._compiled = lts
        return lts


class _Owner:
    """A compiled LTS and the components that are it renamed.  ``events``
    are the labels φ maps, in the order φ is built from: the visible set
    itself, or a signature's events."""

    __slots__ = ("lts", "visible", "events", "abstractions", "live")

    def __init__(self, lts: Lts, visible: frozenset):
        self.lts = lts
        self.visible = self.events = visible
        self.abstractions = {}  # labels hidden -> [abstraction, divergent or None]
        self.live = None  # (deadlock trace, tick trace), once searched


class _Family:
    """Calls that ``dsl.elaborate`` finds of one sharing shape (``_shape``)
    at equal values of their verbatim parameters: their definitions are
    equal up to the names of their events and definitions and the values
    of the parameters that only name events, a renaming of names as
    scalarsets are (Ip and Dill, FMSD 1996).  A member's signature is the
    equality pattern of its events, so φ, which pairs an owner's events
    with a member's position by position, is one-to-one: the same states,
    numbered alike, with each label mapped.  The first member of a
    signature compiled owns it; every later one is the owner's LTS renamed
    by φ, once φ maps the owner's visible events inside its alphabet and
    the limit admits the owner's states, or else compiles on its own."""

    def __init__(self):
        self.owners = {}  # signature -> its _Owner
        self.members = {}  # component name -> (events, signature)

    def join(self, comp: Component, events, patterns):
        """Make ``comp`` a member whose body gives ``events`` at its
        instance, each an id or a name looked up without interning (None
        where it is not interned), and its choice sets the equality
        ``patterns``; both are None where a field does not evaluate.  Its
        signature is the patterns and the events' equality pattern (None
        with a None event)."""
        comp.family = self
        if events is not None:
            events = [e if type(e) is int else EVENTS.lookup(e) for e in events]
            first = {}
            self.members[comp.name] = events, None if None in events else (
                patterns, tuple([first.setdefault(e, len(first)) for e in events]))

    def claim(self, comp: Component):
        """``comp``'s events and signature (see :meth:`join`), or ``(None,
        None)`` when its body's fields do not evaluate at its instance."""
        return self.members.get(comp.name, (None, None))


def _shape(env: DefEnv, name: str, arity: int):
    """``(key, verbatim, groups, choices)`` of the calls to ``name`` with
    ``arity`` arguments: one walk over the source definitions they reach,
    the called one's parameters left symbolic (``#pj`` for index ``j``);
    None at a call to no definition, a Hide or Rename, or a template field
    that ranges over a channel it does not fit.

    A parameter read anywhere but in event fields, choice sets and
    unchanged self-calls (so not data independent; Lazić, DPhil thesis,
    Oxford 1999) is ``verbatim``: its value joins a call's group,
    and it is opaque (``@x``), as the reached definitions' parameters are.
    A choice over a set that reads no choice's or opaque variable is one of
    ``choices``, its variable ``#k`` for its index; any other is opaque.
    What decides an opaque value reads only verbatim parameters.  A
    template field that reads an opaque variable ranges over its channel's
    field, as one more choice.  ``groups`` holds the templates so
    rewritten by the choices they are under.

    The key has a token per term: a definition as the position where it is
    first reached, a template as its opaque fields, and guards, choice sets
    and call arguments as written but for the symbols.  A term other than
    a call or STOP, SKIP and DIV met again whose variables mean the same,
    under the same choices if it reads any, is the index of its first
    token, so a prefix run two branches share is walked once."""
    top, verbatim = (name, arity), set()
    base = {"id": Lit(env.constants["id"]) if "id" in env.constants else Var("#id")}
    symbols = [Var(f"#p{j}") for j in range(arity)]

    def reads(*exprs):
        """The highest kind of symbol ``exprs`` read (1 a choice's, 2 an
        opaque one) and the parameters they depend on."""
        level, params = 0, set()
        for v in set().union(*map(expr_vars, exprs)):
            k, ps = kinds.get(v, (0, ()))
            level = max(level, k)
            params.update(ps)
        return level, params

    def opaque(var):
        kinds["@" + var] = 2, ()
        return Var("@" + var)

    while True:
        positions, order, bad = {top: 0}, [top], set()
        key, groups, choices, seen, kinds = [], {}, [], {}, {}
        for ref in order:  # grows while it is read
            d = env.definitions.get(ref)
            if d is None:
                return None
            key.append(d.params)
            scope = dict(base)
            for j, p in enumerate(d.params):
                if ref == top and j not in verbatim:
                    scope[p] = symbols[j]
                    kinds[symbols[j].name] = 0, (j,)
                else:
                    scope[p] = opaque(p)
            stack = [(d.body, (), scope)]
            while stack:
                term, ks, scope = stack.pop()
                t = type(term)
                if t is Call:
                    callee = term.name, len(term.args)
                    if callee not in positions:
                        positions[callee] = len(order)
                        order.append(callee)
                    args = term.args and tuple([substituted(a, scope) for a in term.args])
                    for j, a in enumerate(args):
                        if callee != top or a is not symbols[j]:  # not passed on unchanged
                            bad |= reads(a)[1]
                            if callee == top and j not in verbatim:
                                bad.add(j)
                    key.append((t, positions[callee], args))
                    continue
                if t is Stop or t is Skip or t is Div:
                    key.append(t)
                    continue
                names = free_vars(term)
                mark = (term, ks, tuple(map(scope.get, names))) if names else term
                if mark in seen:
                    key.append(seen[mark])
                    continue
                seen[mark] = len(key)
                if t is Prefix:
                    event, shown, under = term.event, (), ks
                    if names:
                        fields, shown = [], []
                        for j, f in enumerate(event.fields):
                            if type(f) is not Lit:
                                f = substituted(f, scope)
                                level, params = reads(f)
                                if level == 2:
                                    bad |= params
                                    domains = env.channels.get(event.head)
                                    if domains is None or len(domains) != len(event.fields):
                                        return None
                                    shown.append((j, f))
                                    under += (len(choices),)
                                    f = Var(f"#{len(choices)}")
                                    choices.append((("field", event.head, j),))
                            fields.append(f)
                        event = EventTemplate(event.head, tuple(fields))
                    groups.setdefault(under, []).append(event)
                    key.append((t, event.head, tuple(shown)) if shown else t)
                    stack.append((term.cont, ks, scope))
                elif t is IndexedChoice:
                    # a channel field's values read no variable
                    items = tuple([i if i[0] == "field" else (i[0], *[substituted(e, scope) for e in i[1:]])
                                   for i in term.items])
                    level, params = reads(*[e for i in items if i[0] != "field" for e in i[1:]])
                    scope = dict(scope)
                    if level:
                        bad |= params
                        scope[term.var] = opaque(term.var)
                    else:
                        scope[term.var] = symbol = Var(f"#{len(choices)}")
                        kinds[symbol.name] = 1, params
                        ks += (len(choices),)
                        choices.append(items)
                    key.append((t, term.op, scope[term.var], items))
                    stack.append((term.body, ks, scope))
                elif t is Guard:
                    cond = substituted(term.cond, scope)
                    bad |= reads(cond)[1]
                    key.append((t, cond))
                    stack.append((term.body, ks, scope))
                elif t is ExtChoice or t is IntChoice or t is Seq or t is Interrupt:
                    kids = term.items if len(t.__slots__) == 1 else [getattr(term, s) for s in t.__slots__]
                    key.append((t, len(kids)))
                    stack.extend([(kid, ks, scope) for kid in kids])
                else:
                    return None
        if not bad:
            return tuple(key), sorted(verbatim), list(groups.items()), choices
        verbatim |= bad


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
