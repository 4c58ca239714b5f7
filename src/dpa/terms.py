"""Process-term syntax.

The term language covers the sequential fragment needed to describe network
components: STOP/SKIP/div, event prefixing, external and internal choice
(binary and indexed over a finite integer set), boolean guards, sequential
composition, hiding, relational renaming, interrupt, and calls to named
(possibly recursive, integer-parametrised) definitions.  Parallel
composition lives at the LTS level, not here.

Terms come in two flavours sharing the same node classes:

* *source* terms, as produced by the parser or spec generators, may contain
  integer expressions over definition parameters inside events, guards and
  call arguments;
* *ground* terms, produced by :func:`bind`, contain only interned event ids
  and evaluated call arguments.  Ground terms are canonical forms; the
  compiler memoises on them.

Every term is hash-consed: building a term with the same class and fields
as an existing one returns that object, so two equal terms are the same
object and the compiler's memo compares by identity.

Guards and indexed choices disappear during binding: a true guard yields
its body, a false one yields STOP, and an indexed choice becomes the plain
choice of its body bound to each value.  An indexed choice ranges over
integer ranges, single values and channel field domains (an input ``ch?x``).

Binding is memoised.  :func:`free_vars` gives the variables a source term
reads, and the ground form of an indexed choice (and of a definition body,
in :meth:`DefEnv.expand`) is kept on its :class:`DefEnv` per (term, values
of those variables), a memo function in the sense of Hughes ("Lazy
memo-functions", FPCA 1985).  A nested input ``c?x -> d?x -> P`` therefore
binds its inner choice once, not once per outer value of ``x``; the ground
terms are the same as without the memo.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .events import EVENTS


class DslValueError(Exception):
    pass


class GuardNotClosed(DslValueError):
    pass


class UnboundCall(DslValueError):
    pass


class EmptyChoiceList(DslValueError):
    pass


class ZeroDivisor(DslValueError):
    pass


# Function calls nest at most this deep in one evaluation, so a function that
# calls itself for ever is an expression mistake, not a stack overflow.
MAX_CALL_DEPTH = 100


# ---------------------------------------------------------------------------
# integer / boolean expressions


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class FunCall(Expr):
    name: str
    args: tuple


# every operator but the short-circuiting ``and`` and ``or``, by arity and
# spelling; comparisons give 1 or 0, ``/`` and ``%`` floor (so ``%`` takes
# the sign of the divisor)
_OPERATORS = {
    (1, "-"): operator.neg,
    (1, "not"): lambda v: 0 if v else 1,
    (2, "+"): operator.add,
    (2, "-"): operator.sub,
    (2, "*"): operator.mul,
    (2, "/"): operator.floordiv,
    (2, "%"): operator.mod,
    (2, "=="): lambda l, r: 1 if l == r else 0,
    (2, "!="): lambda l, r: 1 if l != r else 0,
    (2, "<"): lambda l, r: 1 if l < r else 0,
    (2, "<="): lambda l, r: 1 if l <= r else 0,
    (2, ">"): lambda l, r: 1 if l > r else 0,
    (2, ">="): lambda l, r: 1 if l >= r else 0,
}


def eval_expr(expr, bindings, env):
    """Evaluate a closed expression to an int (booleans are 0/1)."""
    t = type(expr)
    if t is Var:
        if expr.name in bindings:
            return bindings[expr.name]
        if env is not None and expr.name in env.constants:
            return env.constants[expr.name]
        raise GuardNotClosed(f"unbound variable '{expr.name}'")
    if t is Lit:
        return expr.value
    if t is int:
        return expr
    if t is BinOp:
        op = expr.op
        l = eval_expr(expr.left, bindings, env)
        if op == "and":
            return eval_expr(expr.right, bindings, env) if l else 0
        if op == "or":
            return l if l else eval_expr(expr.right, bindings, env)
        args = (l, eval_expr(expr.right, bindings, env))
    elif t is UnOp:
        args = (eval_expr(expr.operand, bindings, env),)
    elif t is FunCall:
        if env is None or expr.name not in env.functions:
            raise UnboundCall(f"unknown function '{expr.name}'")
        params, body = env.functions[expr.name]
        if len(params) != len(expr.args):
            raise UnboundCall(f"function '{expr.name}' expects {len(params)} arguments")
        inner = dict(zip(params, (eval_expr(a, bindings, env) for a in expr.args)))
        if env.call_depth >= MAX_CALL_DEPTH:
            raise DslValueError(
                f"function '{expr.name}': calls nested deeper than {MAX_CALL_DEPTH}")
        env.call_depth += 1
        try:
            return eval_expr(body, inner, env)
        finally:
            env.call_depth -= 1
    else:
        raise DslValueError(f"cannot evaluate {expr!r}")
    try:
        return _OPERATORS[len(args), expr.op](*args)
    except ZeroDivisionError:
        raise ZeroDivisor(f"division by zero: {args[0]} {expr.op} 0") from None


# ---------------------------------------------------------------------------
# events inside terms


@dataclass(frozen=True)
class EventTemplate:
    """A dotted event whose fields may be expressions over parameters."""

    head: str
    fields: tuple = ()

    def resolve(self, bindings, env) -> int:
        if not self.fields:
            return EVENTS.intern(self.head)
        parts = [self.head]
        for f in self.fields:
            parts.append(str(eval_expr(f, bindings, env)))
        return EVENTS.intern(".".join(parts))


def template_formats(templates):
    """Each distinct field of ``templates`` that is not a literal, mapped to
    its position in the order they first occur, and one format per template
    over those positions with its literals spelled in, such as
    ``pickup.{0}.1``."""
    fields, formats = {}, []
    for t in templates:
        formats.append(".".join([t.head] + [
            str(f.value) if type(f) is Lit else "{%d}" % fields.setdefault(f, len(fields))
            for f in t.fields]))
    return fields, formats


# ---------------------------------------------------------------------------
# terms


class Term:
    """Base of the term classes.  Terms are hash-consed: constructing a term
    equal to one already built returns that object, so equality and hashing
    are object identity."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        term = _TERMS.get(key)
        if term is None:
            term = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(term, name, value)
            _TERMS[key] = term
        return term

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return pretty(self)


# (class, *fields) -> the one term with those fields; never shrinks, since
# the terms of a model recur across its components and its checks
_TERMS: dict = {}


class Stop(Term):
    __slots__ = ()


class Skip(Term):
    __slots__ = ()


class Div(Term):
    __slots__ = ()


class Omega(Term):
    """Terminated process: the target of a tick transition."""

    __slots__ = ()


class Prefix(Term):
    __slots__ = ("event", "cont")  # event: int when ground, EventTemplate otherwise


class ExtChoice(Term):
    __slots__ = ("items",)


class IntChoice(Term):
    __slots__ = ("items",)


class Guard(Term):
    __slots__ = ("cond", "body")


class Seq(Term):
    __slots__ = ("first", "second")


class Hide(Term):
    # events: frozenset[int] when ground, tuple[EventTemplate] otherwise
    __slots__ = ("body", "events")


class Rename(Term):
    # pairs, ground: sorted tuple of (from_id, to_id) pairs; the relation may
    # be one-to-many.  source form: tuple of (EventTemplate, EventTemplate).
    __slots__ = ("body", "pairs")


class Interrupt(Term):
    __slots__ = ("body", "handler")


class Call(Term):
    __slots__ = ("name", "args")

    def __new__(cls, name, args=()):
        return Term.__new__(cls, name, args)


class IndexedChoice(Term):
    """Replicated choice ``op var : {items} @ body`` over a finite integer
    set, whose ``items`` are read by :func:`set_values`; :func:`bind`
    expands it.  An input ``ch?x -> P`` is the choice over the one item
    ``("field", "ch", position)``."""

    __slots__ = ("op", "var", "items", "body")  # op: "[]" or "|~|"


STOP = Stop()
SKIP = Skip()
DIV = Div()
OMEGA = Omega()


# ---------------------------------------------------------------------------
# definition environments


@dataclass
class Definition:
    name: str
    params: tuple
    body: Term


class DefEnv:
    """Named process definitions plus integer constants, helper functions
    and channel field domains.

    Definitions are keyed by (name, arity); recursion and mutual recursion
    are expressed through :class:`Call` nodes.  Constants and functions are
    fixed once binding starts: the binding memo resolves a variable that is
    not bound through them.
    """

    def __init__(self, definitions=(), constants=None, functions=None):
        self.definitions: dict[tuple, Definition] = {}
        self.constants: dict[str, int] = dict(constants or {})
        self.functions: dict[str, tuple] = dict(functions or {})
        self.channels: dict[str, list] = {}  # name -> per field, its declared values
        self.call_depth = 0  # function calls being evaluated
        for d in definitions:
            self.define(d)
        # (source term, values of its free variables, None when unbound)
        # -> ground term; filled by bind and expand, only on success
        self.bound: dict[tuple, Term] = {}

    def define(self, definition: Definition):
        self.definitions[(definition.name, len(definition.params))] = definition

    def def_fun(self, name, params, body):
        self.functions[name] = (tuple(params), body)

    def lookup(self, name, arity) -> Definition:
        d = self.definitions.get((name, arity))
        if d is None:
            raise UnboundCall(f"no definition for {name}/{arity}")
        return d

    def expand(self, name, args) -> Term:
        """Ground body of a call, memoised per (body, values it reads)."""
        d = self.lookup(name, len(args))
        return _memoised(bind, d.body, dict(zip(d.params, args)), self)


EMPTY_ENV = DefEnv()


# ---------------------------------------------------------------------------
# canonicalising constructors

# Recursion under hiding or renaming would otherwise wrap ever-deeper
# contexts around each unfolding; fusing nested occurrences keeps such
# definitions finite-control.


def hide_of(body: Term, events: frozenset) -> Term:
    if isinstance(body, Hide) and isinstance(body.events, frozenset):
        return Hide(body.body, body.events | events)
    return Hide(body, events)


def rename_of(body: Term, pairs: tuple) -> Term:
    if isinstance(body, Rename) and body.pairs and isinstance(body.pairs[0][0], int):
        outer = {}
        for a, b in pairs:
            outer.setdefault(a, set()).add(b)

        def outer_img(e):
            return outer.get(e, {e})

        composed = set()
        inner_domain = {a for (a, _b) in body.pairs}
        for a, b in body.pairs:
            for c in outer_img(b):
                composed.add((a, c))
        for a in outer:
            if a not in inner_domain:
                for c in outer[a]:
                    composed.add((a, c))
        return Rename(body.body, tuple(sorted(composed)))
    return Rename(body, pairs)


# ---------------------------------------------------------------------------
# binding: source term + variable bindings -> ground term


def set_values(items, bindings, env) -> list:
    """The integers of a set, in order and with repeats.  Its items are
    ``("range", lo, hi)`` and ``("value", e)``, over expressions that may
    read variables, and ``("field", channel, position)``, the declared
    values of a channel's field in ``env.channels``."""
    values = []
    for item in items:
        if item[0] == "range":
            lo = eval_expr(item[1], bindings, env)
            values.extend(range(lo, eval_expr(item[2], bindings, env) + 1))
        elif item[0] == "value":
            values.append(eval_expr(item[1], bindings, env))
        else:
            values.extend(env.channels[item[1]][item[2]])
    return values


def expr_vars(expr) -> set:
    """Names of the variables an integer expression reads.  A function call
    reads its arguments; its body reads only its parameters and the
    constants."""
    if isinstance(expr, (int, Lit)):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, UnOp):
        return expr_vars(expr.operand)
    if isinstance(expr, FunCall):
        return set().union(*map(expr_vars, expr.args))
    raise DslValueError(f"cannot evaluate {expr!r}")


def _event_vars(ev) -> set:
    if isinstance(ev, int):
        return set()
    return set().union(*map(expr_vars, ev.fields))


def _term_vars(term: Term) -> set:
    t = type(term)
    if t in (Stop, Skip, Div, Omega):
        return set()
    if t in (ExtChoice, IntChoice):
        return set().union(*map(free_vars, term.items))
    if t is IndexedChoice:
        out = set(free_vars(term.body)) - {term.var}
        for kind, *exprs in term.items:
            if kind != "field":
                out.update(*map(expr_vars, exprs))
        return out
    if t is Seq:
        return set(free_vars(term.first) + free_vars(term.second))
    if t is Hide:
        out = set(free_vars(term.body))
        if not isinstance(term.events, frozenset):
            out.update(*map(_event_vars, term.events))
        return out
    if t is Rename:
        out = set(free_vars(term.body))
        for a, b in term.pairs:
            out.update(_event_vars(a), _event_vars(b))
        return out
    if t is Interrupt:
        return set(free_vars(term.body) + free_vars(term.handler))
    if t is Call:
        return set().union(*map(expr_vars, term.args))
    raise DslValueError(f"cannot bind {term!r}")


# term -> free_vars(term); like _TERMS it never shrinks
_FREE_VARS: dict = {}


def free_vars(term: Term) -> tuple:
    """The sorted names of the variables a source term reads: in event
    fields, guards, call arguments, indexed-choice sets and hide/rename
    templates.  An indexed choice's own variable is not free in it.  A
    ground term reads none.

    A run of prefixes and guards is walked down to its first other term,
    then folded back up, so its length costs no stack."""
    names = _FREE_VARS.get(term)
    chain = []
    while names is None and type(term) in (Prefix, Guard):
        chain.append(term)
        term = term.cont if type(term) is Prefix else term.body
        names = _FREE_VARS.get(term)
    if names is None:
        names = _FREE_VARS[term] = tuple(sorted(_term_vars(term)))
    for node in reversed(chain):
        own = _event_vars(node.event) if type(node) is Prefix else expr_vars(node.cond)
        names = _FREE_VARS[node] = tuple(sorted(own.union(names)))
    return names


def bind(term: Term, bindings: dict, env: DefEnv) -> Term:
    """Close a term: evaluate guards, event fields, hide/rename sets and
    call arguments under ``bindings``, and expand indexed choices by binding
    their variable to each value in turn.  This is the only place a variable
    gets its value.  The result contains only interned event ids and is
    suitable for compilation.

    An indexed choice is bound once per value of its :func:`free_vars`:
    the ground result is memoised in ``env.bound``, keyed on the choice and
    those values (None for a variable left to ``env.constants``).  Only
    successes are stored, so an error is raised on every attempt."""
    t = type(term)
    if t in (Stop, Skip, Div, Omega):
        return term
    if t is Prefix or t is Guard:
        # a run of prefixes and guards is walked down and folded back up, so
        # its length costs no stack; a false guard ends the run in STOP
        events = []
        while type(term) in (Prefix, Guard):
            if type(term) is Guard:
                term = term.body if eval_expr(term.cond, bindings, env) else STOP
            else:
                ev = term.event
                events.append(ev if isinstance(ev, int) else ev.resolve(bindings, env))
                term = term.cont
        bound = bind(term, bindings, env)
        for ev in reversed(events):
            bound = Prefix(ev, bound)
        return bound
    if t is ExtChoice:
        if not term.items:
            raise EmptyChoiceList("external choice over an empty list")
        return ExtChoice(tuple(bind(i, bindings, env) for i in term.items))
    if t is IntChoice:
        if not term.items:
            raise EmptyChoiceList("internal choice over an empty list")
        return IntChoice(tuple(bind(i, bindings, env) for i in term.items))
    if t is IndexedChoice:
        return _memoised(_bind_choice, term, bindings, env)
    if t is Seq:
        return Seq(bind(term.first, bindings, env), bind(term.second, bindings, env))
    if t is Hide:
        evs = term.events
        if not isinstance(evs, frozenset):
            evs = frozenset(e.resolve(bindings, env) for e in evs)
        return hide_of(bind(term.body, bindings, env), evs)
    if t is Rename:
        pairs = term.pairs
        if pairs and not isinstance(pairs[0][0], int):
            pairs = tuple(
                sorted(
                    (a.resolve(bindings, env), b.resolve(bindings, env))
                    for a, b in pairs
                )
            )
        return rename_of(bind(term.body, bindings, env), pairs)
    if t is Interrupt:
        return Interrupt(
            bind(term.body, bindings, env), bind(term.handler, bindings, env)
        )
    if t is Call:
        args = tuple(eval_expr(a, bindings, env) for a in term.args)
        env.lookup(term.name, len(args))  # fail early on unbound calls
        return Call(term.name, args)
    raise DslValueError(f"cannot bind {term!r}")


def _memoised(build, term: Term, bindings: dict, env: DefEnv) -> Term:
    """``build(term, bindings, env)``, once per term and values of its free
    variables in ``env.bound``; a failed build stores nothing."""
    key = (term, tuple(map(bindings.get, free_vars(term))))
    ground = env.bound.get(key)
    if ground is None:
        ground = env.bound[key] = build(term, bindings, env)
    return ground


def _bind_choice(term: IndexedChoice, bindings: dict, env: DefEnv) -> Term:
    var, body = term.var, term.body
    branches = tuple(
        bind(body, {**bindings, var: v}, env)
        for v in dict.fromkeys(set_values(term.items, bindings, env))
    )
    if not branches:
        raise EmptyChoiceList(f"indexed choice over an empty set (variable '{var}')")
    if len(branches) == 1:
        return branches[0]
    return ExtChoice(branches) if term.op == "[]" else IntChoice(branches)


# ---------------------------------------------------------------------------
# pretty printing (diagnostics and state names)


def _fmt_event(ev, inputs=frozenset()) -> str:
    """An event; a field whose position is in ``inputs`` prints as ``?x``."""
    if isinstance(ev, int):
        return EVENTS.name(ev)
    return ev.head + "".join(
        ("?" if i in inputs else ".") + fmt_expr(f) for i, f in enumerate(ev.fields)
    )


def fmt_expr(expr) -> str:
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, UnOp):
        if expr.op == "not":
            return f"not {fmt_expr(expr.operand)}"
        return f"-{fmt_expr(expr.operand)}"
    if isinstance(expr, BinOp):
        return f"({fmt_expr(expr.left)} {expr.op} {fmt_expr(expr.right)})"
    if isinstance(expr, FunCall):
        return f"{expr.name}({', '.join(fmt_expr(a) for a in expr.args)})"
    return repr(expr)


def pretty(term: Term) -> str:
    t = type(term)
    if t is Stop:
        return "STOP"
    if t is Skip:
        return "SKIP"
    if t is Div:
        return "DIV"
    if t is Omega:
        return "OMEGA"
    if t is Prefix:
        return f"{_fmt_event(term.event)} -> {_paren(term.cont, Prefix)}"
    if t is ExtChoice:
        return " [] ".join(_paren(i, ExtChoice) for i in term.items)
    if t is IntChoice:
        return " |~| ".join(_paren(i, IntChoice) for i in term.items)
    if t is Guard:
        return f"{fmt_expr(term.cond)} & {_paren(term.body, Guard)}"
    if t is Seq:
        return f"{_paren(term.first, Seq)} ; {_paren(term.second, Seq)}"
    if t is Hide:
        evs = term.events
        names = (
            sorted(EVENTS.name(e) for e in evs)
            if isinstance(evs, frozenset)
            else [_fmt_event(e) for e in evs]
        )
        return f"{_paren(term.body, Hide)} \\ {{{', '.join(names)}}}"
    if t is Rename:
        ps = term.pairs
        if ps and isinstance(ps[0][0], int):
            body = ", ".join(f"{EVENTS.name(a)} <- {EVENTS.name(b)}" for a, b in ps)
        else:
            body = ", ".join(f"{_fmt_event(a)} <- {_fmt_event(b)}" for a, b in ps)
        return f"{_paren(term.body, Rename)} [[{body}]]"
    if t is Interrupt:
        return f"{_paren(term.body, Interrupt)} /\\ {_paren(term.handler, Interrupt)}"
    if t is Call:
        if not term.args:
            return term.name
        return f"{term.name}({', '.join(fmt_expr(a) for a in term.args)})"
    if t is IndexedChoice and term.items[0][0] == "field":
        # an input choice, printed as the ``ch?x -> P`` it was parsed from
        inputs = set()
        while type(term) is IndexedChoice:
            inputs.add(term.items[0][2])
            term = term.body
        return f"{_fmt_event(term.event, inputs)} -> {_paren(term.cont, Prefix)}"
    if t is IndexedChoice:
        items = ", ".join(
            f"{fmt_expr(i[1])}..{fmt_expr(i[2])}" if i[0] == "range" else fmt_expr(i[1])
            for i in term.items
        )
        return f"{term.op} {term.var} : {{{items}}} @ {_paren(term.body, Guard)}"
    return repr(term)


_ATOMIC = (Stop, Skip, Div, Omega, Call)


def _paren(term, parent):
    s = pretty(term)
    prefix = type(term) is Prefix or type(term) is IndexedChoice and term.items[0][0] == "field"
    if isinstance(term, _ATOMIC) or prefix and parent in (Prefix, Guard):
        return s
    return f"({s})"
