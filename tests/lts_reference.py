"""The LTS builders' reference: the code that one state-numbering loop and
one relabelling loop replaced.

``compile_term`` and ``parallel_lts`` each numbered the reachable states
with their own breadth-first loop over a ``deque``, and ``hide_lts`` and
``rename_lts`` each relabelled the rows in a loop of their own.  They are
kept here as they were; ``tests/test_lts_reference.py`` diffs their
``Lts`` values against ``dpa.lts``.
"""

from __future__ import annotations

from collections import deque

from dpa.events import TAU, TICK
from dpa.lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    StateLimitExceeded,
    _step,
    check_alphabet,
)
from dpa.terms import Term, DefEnv, bind


def compile_term(env: DefEnv, term: Term, limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """Compile a term (closed under ``env``) to its reachable LTS."""
    start = bind(term, {}, env)
    ids: dict[Term, int] = {start: 0}
    order: list[Term] = [start]
    trans: list[tuple] = []
    queue = deque([start])
    try:
        while queue:
            cur = queue.popleft()
            row = []
            for label, tgt in _step(cur, env):
                sid = ids.get(tgt)
                if sid is None:
                    sid = len(order)
                    if sid >= limit:
                        raise StateLimitExceeded(limit)
                    ids[tgt] = sid
                    order.append(tgt)
                    queue.append(tgt)
                row.append((label, sid))
            row.sort()
            trans.append(tuple(dict.fromkeys(row)))
    except RecursionError:
        # ever-growing canonical terms (recursion re-wrapped in sequence or
        # interrupt contexts) blow the interpreter stack before the count cap
        raise StateLimitExceeded(
            limit, "canonical terms grow without bound; the process has no "
            "finite control structure"
        ) from None
    return Lts(0, tuple(trans), tuple(order))


def hide_lts(lts: Lts, hidden: frozenset) -> Lts:
    """Relabel the given visible events as internal transitions."""
    trans = []
    for row in lts.trans:
        new = sorted(
            dict.fromkeys(
                (TAU if (l >= 0 and l in hidden) else l, t) for (l, t) in row
            )
        )
        trans.append(tuple(new))
    return Lts(lts.initial, tuple(trans), lts.terms)


def rename_lts(lts: Lts, relation: dict) -> Lts:
    """Apply a (possibly one-to-many) renaming relation: event id -> tuple of
    event ids.  Events outside the relation's domain are unchanged."""
    trans = []
    for row in lts.trans:
        new = []
        for l, t in row:
            if l >= 0:
                for b in relation.get(l, (l,)):
                    new.append((b, t))
            else:
                new.append((l, t))
        trans.append(tuple(dict.fromkeys(sorted(new))))
    return Lts(lts.initial, tuple(trans), lts.terms)


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
    ids = {(a.initial, b.initial): 0}
    order = [(a.initial, b.initial)]
    trans = []
    queue = deque(order)

    def state_id(pair):
        sid = ids.get(pair)
        if sid is None:
            sid = len(order)
            if sid >= limit:
                raise StateLimitExceeded(limit)
            ids[pair] = sid
            order.append(pair)
            queue.append(pair)
        return sid

    while queue:
        sa, sb = queue.popleft()
        row = []
        ticks_a = [t for (l, t) in a.trans[sa] if l == TICK]
        ticks_b = [t for (l, t) in b.trans[sb] if l == TICK]
        for ta in ticks_a:
            for tb in ticks_b:
                row.append((TICK, state_id((ta, tb))))
        for l, t in a.trans[sa]:
            if l == TAU:
                row.append((TAU, state_id((t, sb))))
            elif l >= 0 and l not in shared:
                row.append((l, state_id((t, sb))))
        for l, t in b.trans[sb]:
            if l == TAU:
                row.append((TAU, state_id((sa, t))))
            elif l >= 0 and l not in shared:
                row.append((l, state_id((sa, t))))
        for l, t in a.trans[sa]:
            if l in shared:
                for l2, t2 in b.trans[sb]:
                    if l2 == l:
                        row.append((l, state_id((t, t2))))
        trans.append(tuple(dict.fromkeys(sorted(row))))
    return Lts(0, tuple(trans))
