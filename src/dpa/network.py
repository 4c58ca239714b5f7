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
are shared by the members of a :class:`_Family`, calls to one definition
at values that only name events, which the elaborator forms, and by the
calls without arguments of one source shape (:class:`_Sources`),
definitions written once per instance that are equal up to their event
and definition names.
Liveness, abstraction and divergence are judged once per owner.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, product

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
    Lit,
    Prefix,
    Seq,
    Skip,
    Stop,
    Term,
    Var,
    expr_vars,
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
    # the _Family or _Sources the network put it in, and, once compiled,
    # (owner, φ): the owner's event -> its own, or None when it is its own
    # owner
    family: _Family | _Sources | None = field(init=False, repr=False, compare=False)
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
    """The components whose behaviour is a call to one definition ``P``
    whose parameters are event-only: each occurs only in prefix event
    fields, in the sets of indexed choices (whose own variables occur only
    in event fields) and as the unchanged argument of ``P``'s calls, which
    are all to itself.  Bound at two such values, ``P``'s body gives two
    terms that differ only in their events (a renaming of names, as
    scalarsets are; Ip and Dill, FMSD 1996), so their LTSs are one LTS up
    to the event map φ that the body's event templates resolve to at the
    two values: the same states, numbered alike, with each label mapped.

    The elaborator forms a model's families and resolves each member's
    events where it plans the member's alphabet (``dsl.elaborate``).
    Members are grouped by signature (:meth:`join`).  The first member of
    a signature compiled is its owner and compiles on its own.  Every
    later one is the owner's LTS renamed by φ, once φ maps the owner's
    visible events inside the member's alphabet and the limit admits the
    owner's states; otherwise the member compiles on its own."""

    def __init__(self, params, groups, choices):
        self.params = params
        # the body's event templates, grouped by the indices of the choices
        # they are under, and the body's indexed choices
        self.groups, self.choices = groups, choices
        self.owners = {}  # signature -> its _Owner
        self.members = {}  # component name -> (events, signature)

    def join(self, comp: Component, events, patterns):
        """Make ``comp`` a member whose body gives ``events`` at its
        instance, each template at each value of the choices it is under
        in group order, an id or a name looked up without interning (None
        where it is not interned), and its choice sets the equality
        ``patterns``; both are None where a field does not evaluate.  Its
        signature is the patterns and the events' equality pattern (None
        with a None event).  At one signature φ is one-to-one."""
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


def _family(env: DefEnv, name: str, arity: int) -> _Family | None:
    """The family of calls to ``name`` with ``arity`` arguments under
    ``env``, which its members then join, or None when a parameter of that
    definition is not event-only (or it has none)."""
    d = env.definitions.get((name, arity))
    if d is None or not d.params:
        return None
    own = frozenset(d.params)
    self_call = tuple(Var(p) for p in d.params)
    groups, choices = {}, []  # the event templates by the choices they are under
    stack = [(d.body, ())]
    while stack:
        term, scope = stack.pop()
        t = type(term)
        bound = own.union(choices[k].var for k in scope)
        if t is Prefix:
            if type(term.event) is int:  # a ground event in a source term
                return None
            groups.setdefault(scope, []).append(term.event)
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
    return _Family(d.params, list(groups.items()), choices)


class _Sources:
    """The components whose behaviour is a call without arguments, to
    definitions written once per instance (``BusOff01``, ``BusOff10``).
    Two calls of one source shape (:func:`_source_shape`) bind to ground
    terms that differ only in their definition names and events, so their
    LTSs are one LTS up to the event map φ that pairs their events
    position by position, as a family's members are.  A member's events
    are its fully literal events, then each head's completions over its
    channel's remaining fields, looked up without interning; its signature
    is its shape and their equality pattern, so φ is one-to-one.  A renamed
    member binds nothing, so a value outside its channel's domain, which
    only a branch that never fires can name, is interned only once the
    member's states are named; no label is such an event."""

    def __init__(self, env):
        self.env = env
        self.owners = {}  # signature -> its _Owner

    def claim(self, comp: Component):
        """``comp``'s events and signature, or ``(None, None)`` when it has
        no source shape or one of its events is not interned."""
        shape = _source_shape(self.env, comp.term.name)
        if shape is None:
            return None, None
        key, ground, heads = shape
        completions = (".".join([head, *map(str, values)])
                       for head, domains in heads for values in product(*domains))
        events = []
        for name in chain(ground, completions):
            e = EVENTS.lookup(name)
            if e is None:
                return None, None
            events.append(e)
        first = {}
        return events, (key, tuple([first.setdefault(e, len(first)) for e in events]))


def _source_shape(env: DefEnv, name: str):
    """``(key, ground, heads)`` for a call to ``name`` without arguments,
    from one preorder walk over the source definitions it reaches, each
    looked up by (name, arity) when first reached; None where the walk
    meets a call to no definition, a template whose field count is not its
    channel's, or a term it does not know, Hide and Rename among them.

    The key has one token per term.  A definition name is the position
    where it is first reached.  A fully literal event (``on.0.1``) is its
    position in ``ground``, the names in first-occurrence order.  A
    template with a literal head (``snd.0.1?d``: its channel and leading
    literal fields) is its head's position in ``heads``, each head with
    its channel's remaining domains, and its channel, literal count and
    remaining fields.  Parameters, guards, call arguments and
    indexed-choice items are kept verbatim.  A term met again is the index
    of its first token, so shared terms are walked once."""
    positions = {(name, 0): 0}  # (name, arity) -> position, as first reached
    order = [(name, 0)]
    ground, heads = {}, {}  # name -> position; head -> (position, domains)
    seen = {}  # term -> index of its token
    key = []
    for ref in order:  # grows while it is read
        d = env.definitions.get(ref)
        if d is None:
            return None
        key.append(d.params)
        stack = [d.body]
        while stack:
            term = stack.pop()
            if term in seen:
                key.append(seen[term])
                continue
            seen[term] = len(key)
            t = type(term)
            if t is Prefix:
                ev = term.event
                if type(ev) is int:  # a ground event in a source term
                    key.append((t, ground.setdefault(EVENTS.name(ev), len(ground))))
                else:
                    fields = ev.fields
                    k = 0
                    while k < len(fields) and type(fields[k]) is Lit:
                        k += 1
                    head = ".".join([ev.head, *(str(f.value) for f in fields[:k])])
                    if k == len(fields):
                        key.append((t, ground.setdefault(head, len(ground))))
                    else:
                        domains = env.channels.get(ev.head)
                        if domains is None or len(domains) != len(fields):
                            return None
                        at = heads.setdefault(head, (len(heads), domains[k:]))[0]
                        key.append((t, at, ev.head, k, fields[k:]))
                stack.append(term.cont)
            elif t is ExtChoice or t is IntChoice:
                key.append((t, len(term.items)))
                stack.extend(reversed(term.items))
            elif t is Seq:
                key.append(t)
                stack.extend((term.second, term.first))
            elif t is Interrupt:
                key.append(t)
                stack.extend((term.handler, term.body))
            elif t is Guard:
                key.append((t, term.cond))
                stack.append(term.body)
            elif t is IndexedChoice:
                key.append((t, term.op, term.var, term.items))
                stack.append(term.body)
            elif t is Call:
                ref = (term.name, len(term.args))
                if ref not in positions:
                    positions[ref] = len(order)
                    order.append(ref)
                key.append((t, positions[ref], term.args))
            elif t is Stop or t is Skip or t is Div:
                key.append(t)
            else:
                return None
    return tuple(key), list(ground), [(h, domains) for h, (_, domains) in heads.items()]


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
        # calls without arguments group by their environment, and then by
        # source shape; the elaborator forms the families of calls with them
        calls = {}
        for c in self.components:
            if c.lts is None and c.family is None and type(c.term) is Call and not c.term.args:
                calls.setdefault(c.env, []).append(c)
        for env, members in calls.items():
            if len(members) > 1:
                sources = _Sources(env)
                for c in members:
                    c.family = sources

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
