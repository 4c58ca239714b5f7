"""Labelled transition systems and the operational semantics.

:func:`compile_term` explores the canonical ground terms reachable from a
start term.  Recursion is handled by memoising on the canonical term itself
(calls stay folded), so any finite-control process yields a finite LTS
without a syntactic unfolding bound.  A state-count limit guards against
genuinely infinite-state terms.

:func:`parallel_lts` is the alphabetised parallel product used both for the
pairwise conflict contexts and for tests; the global n-way product lives in
the oracle module.  Both number their states with one breadth-first loop,
:func:`_reachable`; :func:`hide_lts` and :func:`rename_lts` are both the
one row relabelling :func:`_relabel`; :func:`rename_on_read` defers it
until the rows are first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import TAU, TICK, EVENTS
from .terms import (
    Call,
    DefEnv,
    Div,
    ExtChoice,
    Hide,
    IntChoice,
    Interrupt,
    Omega,
    Prefix,
    Rename,
    Seq,
    Skip,
    Stop,
    Term,
    DIV,
    OMEGA,
    bind,
    hide_of,
    pretty,
    rename_of,
)

DEFAULT_STATE_LIMIT = 1_000_000


class StateLimitExceeded(Exception):
    def __init__(self, limit, note=""):
        message = f"state limit of {limit} states exceeded"
        if note:
            message += f" ({note})"
        super().__init__(message)
        self.limit = limit


class AlphabetViolation(Exception):
    pass


@dataclass
class Lts:
    """Immutable transition system over interned labels.

    ``trans[s]`` is a tuple of (label, target) pairs sorted by label then
    target; TICK (-2) and TAU (-1) therefore sort before all visible events,
    which keeps every traversal in this package deterministic.  ``terms``,
    when present, holds the canonical term of each state; names are
    rendered from it only when asked for.
    """

    initial: int
    trans: tuple
    terms: tuple | None = None

    def __getattr__(self, name):
        # only a missing attribute comes here: the rows of an LTS from
        # rename_on_read, built on their first read, which releases the
        # LTS and the map they are built from
        if name != "trans" or "_pending" not in self.__dict__:
            raise AttributeError(f"'Lts' object has no attribute '{name}'")
        lts, phi = self.__dict__.pop("_pending")
        self.trans = rename_lts(lts, {a: (b,) for a, b in phi.items()}).trans
        return self.trans

    @property
    def n_states(self) -> int:
        return len(self.trans)

    def taus(self, s):
        return [t for (l, t) in self.trans[s] if l == TAU]

    def has_tick(self, s) -> bool:
        return any(l == TICK for (l, _) in self.trans[s])

    def visible_initials(self, s) -> frozenset:
        return frozenset(l for (l, _) in self.trans[s] if l >= 0)

    def visible_events(self) -> frozenset:
        return frozenset(
            l for row in self.trans for (l, _) in row if l >= 0
        )

    def state_name(self, s) -> str:
        if self.terms is not None:
            return pretty(self.terms[s])
        return f"s{s}"


def _step(term: Term, env: DefEnv, visiting=()):
    """Outgoing transitions of a canonical ground term.

    An unguarded recursive call (a call cycle with no intervening event) is
    treated as divergence, matching the least-fixed-point reading of such
    definitions.
    """
    t = type(term)
    if t in (Stop, Omega):
        return ()
    if t is Skip:
        return ((TICK, OMEGA),)
    if t is Div:
        return ((TAU, DIV),)
    if t is Prefix:
        return ((term.event, term.cont),)
    if t is ExtChoice:
        out = []
        items = term.items
        for i, p in enumerate(items):
            for l, tgt in _step(p, env, visiting):
                if l == TAU:
                    out.append((TAU, ExtChoice(items[:i] + (tgt,) + items[i + 1 :])))
                else:
                    out.append((l, tgt))
        return out
    if t is IntChoice:
        return tuple((TAU, p) for p in term.items)
    if t is Seq:
        out = []
        for l, tgt in _step(term.first, env, visiting):
            if l == TICK:
                out.append((TAU, term.second))
            else:
                out.append((l, Seq(tgt, term.second)))
        return out
    if t is Hide:
        evs = term.events
        out = []
        for l, tgt in _step(term.body, env, visiting):
            nl = TAU if (l >= 0 and l in evs) else l
            out.append((nl, hide_of(tgt, evs) if l != TICK else OMEGA))
        return out
    if t is Rename:
        image = {}
        for a, b in term.pairs:
            image.setdefault(a, []).append(b)
        out = []
        for l, tgt in _step(term.body, env, visiting):
            nt = rename_of(tgt, term.pairs) if l != TICK else OMEGA
            if l >= 0:
                for b in image.get(l, (l,)):
                    out.append((b, nt))
            else:
                out.append((l, nt))
        return out
    if t is Interrupt:
        out = []
        for l, tgt in _step(term.body, env, visiting):
            if l == TICK:
                out.append((TICK, OMEGA))
            else:
                out.append((l, Interrupt(tgt, term.handler)))
        for l, tgt in _step(term.handler, env, visiting):
            if l == TAU:
                out.append((TAU, Interrupt(term.body, tgt)))
            elif l == TICK:
                out.append((TICK, OMEGA))
            else:
                out.append((l, tgt))
        return out
    if t is Call:
        key = (term.name, term.args)
        if key in visiting:
            return _step(DIV, env)
        return _step(env.expand(term.name, term.args), env, visiting + (key,))
    raise TypeError(f"cannot step {term!r}")


def _reachable(start, moves, limit: int):
    """The states reachable from ``start`` through ``moves(state)``, the
    (label, target) pairs, numbered breadth-first as found, and each one's
    row of (label, target id) pairs, sorted and without repeats."""
    ids = {start: 0}
    order = [start]
    trans = []
    for cur in order:  # grows while it is read: the breadth-first queue
        row = []
        for label, tgt in moves(cur):
            sid = ids.get(tgt)
            if sid is None:
                sid = len(order)
                if sid >= limit:
                    raise StateLimitExceeded(limit)
                ids[tgt] = sid
                order.append(tgt)
            row.append((label, sid))
        row.sort()
        trans.append(tuple(dict.fromkeys(row)))
    return order, tuple(trans)


def compile_term(env: DefEnv, term: Term, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """Compile a term (closed under ``env``) to its reachable LTS."""
    start = bind(term, {}, env)
    try:
        order, trans = _reachable(start, lambda t: _step(t, env), limit)
    except RecursionError:
        # ever-growing canonical terms (recursion re-wrapped in sequence or
        # interrupt contexts) blow the interpreter stack before the count cap
        raise StateLimitExceeded(
            limit, "canonical terms grow without bound; the process has no "
            "finite control structure"
        ) from None
    return Lts(0, trans, tuple(order))


def _relabel(lts: Lts, image: dict) -> Lts:
    """Each event in ``image``'s domain replaced by its tuple of labels."""
    trans = []
    for row in lts.trans:
        new = []
        for l, t in row:
            for b in image.get(l, (l,)):
                new.append((b, t))
        new.sort()
        trans.append(tuple(dict.fromkeys(new)))
    return Lts(lts.initial, tuple(trans), lts.terms)


def hide_lts(lts: Lts, hidden: frozenset) -> Lts:
    """Relabel the given visible events as internal transitions."""
    return _relabel(lts, dict.fromkeys(hidden, (TAU,)))


def bisim_quotient(lts: Lts) -> Lts:
    """The quotient by strong bisimulation, TAU and TICK counting as
    ordinary labels, or ``lts`` itself when it is already minimal.

    Naive signature refinement: each round partitions the states by their
    sets of (label, target block) pairs, until the number of blocks stops
    growing or every state has a block of its own.  Starting from one
    block, each round refines the one before, so the old block need not be
    part of the signature.  Blocks are numbered by their first state, and
    the quotient carries no terms (a block stands for several of them)."""
    trans = lts.trans
    block = [0] * len(trans)
    count = 1
    while count < len(trans):
        sigs = {}
        block = [
            sigs.setdefault(frozenset([(l, block[t]) for (l, t) in row]), len(sigs))
            for row in trans
        ]
        if len(sigs) == count:
            break
        count = len(sigs)
    if count == len(trans):
        return lts
    first = {}
    for s, b in enumerate(block):
        first.setdefault(b, s)
    rows = tuple(
        tuple(sorted({(l, block[t]) for (l, t) in trans[s]})) for s in first.values()
    )
    return Lts(block[lts.initial], rows)


def rename_lts(lts: Lts, relation: dict) -> Lts:
    """Apply a (possibly one-to-many) renaming relation: event id -> tuple of
    event ids.  Events outside the relation's domain are unchanged."""
    return _relabel(lts, relation)


def rename_on_read(lts: Lts, phi: dict, terms=None) -> Lts:
    """``lts`` with each label in ``phi``'s domain mapped by the one-to-one
    ``phi`` and with the given terms; the rows are renamed, by
    :func:`rename_lts`, only when they are first read (the state numbers,
    and so ``initial``, are the same either way)."""
    out = Lts.__new__(Lts)
    out.initial, out.terms, out._pending = lts.initial, terms, (lts, phi)
    return out


def check_alphabet(lts: Lts, alphabet: frozenset):
    extra = lts.visible_events() - alphabet
    if extra:
        raise AlphabetViolation(
            "transitions outside the declared alphabet: "
            + ", ".join(sorted(EVENTS.name(e) for e in extra))
        )


def parallel_lts(
    a: Lts,
    alpha_a: frozenset,
    b: Lts,
    alpha_b: frozenset,
    limit: int = DEFAULT_STATE_LIMIT,
) -> Lts:
    """Alphabetised parallel product.

    Events in both alphabets synchronise, events in exactly one interleave,
    internal moves always interleave, and termination is distributed (both
    sides must be able to tick).
    """
    check_alphabet(a, alpha_a)
    check_alphabet(b, alpha_b)
    shared = alpha_a & alpha_b

    def moves(pair):
        # this order fixes the state ids: ticks (first in a row), A, B, syncs
        sa, sb = pair
        row_a, row_b = a.trans[sa], b.trans[sb]
        out = []
        for l, t in row_a:
            if l == TICK:
                for l2, t2 in row_b:
                    if l2 == TICK:
                        out.append((TICK, (t, t2)))
            elif l not in shared:
                out.append((l, (t, sb)))
        for l, t in row_b:
            if l != TICK and l not in shared:
                out.append((l, (sa, t)))
        for l, t in row_a:
            if l in shared:
                for l2, t2 in row_b:
                    if l2 == l:
                        out.append((l, (t, t2)))
        return out

    return Lts(0, _reachable((a.initial, b.initial), moves, limit)[1])
