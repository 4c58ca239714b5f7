"""Reference denotational semantics, evaluated clause by clause.

This module computes explicit behaviour sets -- traces, subset-closed
failures, deadlocks and revivals -- by directly executing the inductive
semantic clauses of the four models over a small fixed event universe.
Recursive calls past the unfold depth are replaced by the divergent
process, making the result a lower approximation that is exact whenever no
substitution occurred, and exact on observations shorter than the unfold
depth for recursion guarded by visible events.

It deliberately shares nothing with the operational compiler: it is the
independent oracle the LTS semantics is validated against, and only the
tests import it.  Everything is brute force; a size cap turns runaway set
growth into an explicit error.

Two clause-table gaps are filled here, both forced by consistency with the
other clauses (and cross-checked against the operational semantics by the
test suite): the interrupt operator gets deadlock/revival clauses mirroring
the external-choice structure plus a termination clause for the handler,
and its trace-continuation failure clause excludes the empty continuation,
without which the handler's initial refusals would bypass the main process.

A note on termination: a process that may terminate after a trace can
refuse every visible event at that point (termination is not blockable by
the environment), so ``(s, X)`` is a failure for every ``X`` not containing
the tick whenever ``s ^ <tick>`` is a trace.  The operational extraction at
the bottom of this module applies the same rule, which is what makes the
SKIP clauses of the tables and the subset construction agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from dpa.events import TICK, TAU
from dpa.lts import Lts
from dpa.terms import (
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
    bind,
)


class CombinatorialBlowup(Exception):
    pass


@dataclass
class BehaviourSet:
    traces: set
    failures: set  # (trace, refusal set over sigma + tick)
    deadlocks: set
    revivals: set  # (trace, refusal set over sigma, event)
    truncated: bool = False

    def size(self):
        return (
            len(self.traces)
            + len(self.failures)
            + len(self.deadlocks)
            + len(self.revivals)
        )

    def restrict(self, max_len: int) -> "BehaviourSet":
        return BehaviourSet(
            {t for t in self.traces if len(t) < max_len},
            {(t, x) for (t, x) in self.failures if len(t) < max_len},
            {t for t in self.deadlocks if len(t) < max_len},
            {(t, x, a) for (t, x, a) in self.revivals if len(t) < max_len},
            self.truncated,
        )


def _powerset(universe):
    items = sorted(universe)
    out = []
    for mask in range(1 << len(items)):
        out.append(frozenset(items[i] for i in range(len(items)) if mask >> i & 1))
    return out


def _union(p: BehaviourSet, q: BehaviourSet) -> BehaviourSet:
    return BehaviourSet(
        p.traces | q.traces,
        p.failures | q.failures,
        p.deadlocks | q.deadlocks,
        p.revivals | q.revivals,
        p.truncated or q.truncated,
    )


class Oracle:
    def __init__(self, env: DefEnv, sigma: frozenset, max_size: int = 500_000):
        self.env = env
        self.sigma = frozenset(sigma)
        self.sigma_tick = self.sigma | {TICK}
        self.pow_sigma = _powerset(self.sigma)
        self.pow_sigma_tick = _powerset(self.sigma_tick)
        self.max_size = max_size
        self._memo: dict = {}

    def behaviours(self, term: Term, unfold_depth: int) -> BehaviourSet:
        ground = bind(term, {}, self.env)
        return self._eval(ground, unfold_depth)

    def _eval(self, t: Term, depth: int) -> BehaviourSet:
        key = (t, depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._clauses(t, depth)
        if out.size() > self.max_size:
            raise CombinatorialBlowup(
                f"behaviour set grew past {self.max_size} elements"
            )
        self._memo[key] = out
        return out

    def _clauses(self, t: Term, depth: int) -> BehaviourSet:
        ty = type(t)
        if ty is Stop:
            return BehaviourSet(
                {()}, {((), x) for x in self.pow_sigma_tick}, {()}, set()
            )
        if ty is Skip:
            return BehaviourSet(
                {(), (TICK,)},
                {((), x) for x in self.pow_sigma}
                | {((TICK,), x) for x in self.pow_sigma_tick},
                set(),
                set(),
            )
        if ty in (Div, Omega):
            return BehaviourSet({()}, set(), set(), set())
        if ty is Prefix:
            return self._prefix(t.event, self._eval(t.cont, depth))
        if ty is ExtChoice:
            out = self._eval(t.items[0], depth)
            for item in t.items[1:]:
                out = self._ext(out, self._eval(item, depth))
            return out
        if ty is IntChoice:
            out = self._eval(t.items[0], depth)
            for item in t.items[1:]:
                out = _union(out, self._eval(item, depth))
            return out
        if ty is Seq:
            return self._seq(self._eval(t.first, depth), self._eval(t.second, depth))
        if ty is Hide:
            return self._hide(self._eval(t.body, depth), t.events)
        if ty is Rename:
            return self._rename(self._eval(t.body, depth), t.pairs)
        if ty is Interrupt:
            return self._interrupt(
                self._eval(t.body, depth), self._eval(t.handler, depth)
            )
        if ty is Call:
            if depth <= 0:
                return BehaviourSet({()}, set(), set(), set(), truncated=True)
            body = self.env.expand(t.name, t.args)
            return self._eval(body, depth - 1)
        raise TypeError(f"oracle cannot evaluate {t!r}")

    def _prefix(self, a, p: BehaviourSet) -> BehaviourSet:
        traces = {()} | {(a,) + s for s in p.traces}
        failures = {((), x) for x in self.pow_sigma_tick if a not in x}
        failures |= {((a,) + s, x) for (s, x) in p.failures}
        deadlocks = {(a,) + s for s in p.deadlocks}
        revivals = {((), x, a) for x in self.pow_sigma if a not in x}
        revivals |= {((a,) + s, x, b) for (s, x, b) in p.revivals}
        return BehaviourSet(traces, failures, deadlocks, revivals, p.truncated)

    @staticmethod
    def _failures_b(p: BehaviourSet, pow_sigma):
        """failures^b: refusals witnessed by non-terminating stable states."""
        out = {(s, x) for s in p.deadlocks for x in pow_sigma}
        out |= {(s, x) for (s, x, _) in p.revivals}
        return out

    def _ext(self, p: BehaviourSet, q: BehaviourSet) -> BehaviourSet:
        traces = p.traces | q.traces
        p_init = {x for (s, x) in p.failures if s == ()}
        q_init = {x for (s, x) in q.failures if s == ()}
        failures = {((), x) for x in p_init & q_init}
        failures |= {(s, x) for (s, x) in p.failures | q.failures if s != ()}
        if (TICK,) in traces:
            failures |= {((), x) for x in self.pow_sigma}
        deadlocks = {s for s in p.deadlocks | q.deadlocks if s != ()}
        deadlocks |= p.deadlocks & q.deadlocks
        fb_p_init = {x for (s, x) in self._failures_b(p, self.pow_sigma) if s == ()}
        fb_q_init = {x for (s, x) in self._failures_b(q, self.pow_sigma) if s == ()}
        gate = fb_p_init & fb_q_init
        revivals = {
            ((), x, a)
            for (s, x, a) in p.revivals | q.revivals
            if s == () and x in gate
        }
        revivals |= {(s, x, a) for (s, x, a) in p.revivals | q.revivals if s != ()}
        return BehaviourSet(
            traces, failures, deadlocks, revivals, p.truncated or q.truncated
        )

    def _seq(self, p: BehaviourSet, q: BehaviourSet) -> BehaviourSet:
        done = {s[:-1] for s in p.traces if s and s[-1] == TICK}
        traces = {s for s in p.traces if TICK not in s}
        traces |= {s + t for s in done for t in q.traces}
        failures = {
            (s, x)
            for (s, x) in p.failures
            if TICK not in s and (s, x | {TICK}) in p.failures
        }
        failures |= {(s + t, x) for s in done for (t, x) in q.failures}
        deadlocks = set(p.deadlocks)
        deadlocks |= {s + t for s in done for t in q.deadlocks}
        revivals = set(p.revivals)
        revivals |= {(s + t, x, a) for s in done for (t, x, a) in q.revivals}
        return BehaviourSet(
            traces, failures, deadlocks, revivals, p.truncated or q.truncated
        )

    def _hide(self, p: BehaviourSet, hidden: frozenset) -> BehaviourSet:
        def h(s):
            return tuple(e for e in s if e not in hidden)

        traces = {h(s) for s in p.traces}
        fails = set(p.failures)
        failures = set()
        for s in {s for (s, _x) in fails}:
            hs = h(s)
            for y in self.pow_sigma_tick:
                if (s, frozenset(y | hidden)) in fails:
                    failures.add((hs, y))
        deadlocks = {h(s) for s in p.deadlocks}
        revs = set(p.revivals)
        revivals = set()
        for (s, a) in {(s, a) for (s, _x, a) in revs}:
            hs = h(s)
            for y in self.pow_sigma:
                if (s, frozenset(y | hidden) - {TICK}, a) in revs:
                    revivals.add((hs, y, a))
        return BehaviourSet(traces, failures, deadlocks, revivals, p.truncated)

    def _rename(self, p: BehaviourSet, pairs) -> BehaviourSet:
        image = {}
        for a, b in pairs:
            image.setdefault(a, set()).add(b)

        def img(e):
            if e == TICK:
                return {TICK}
            return image.get(e, {e})

        def trace_images(s):
            if not s:
                return {()}
            return {tuple(c) for c in product(*[sorted(img(e)) for e in s])}

        def inverse(x):
            return frozenset(a for a in self.sigma_tick if img(a) & x)

        traces = {t for s in p.traces for t in trace_images(s)}
        fails = set(p.failures)
        failures = set()
        for s in {s for (s, _x) in fails}:
            imgs = trace_images(s)
            for x in self.pow_sigma_tick:
                if (s, inverse(x)) in fails:
                    failures.update((t, x) for t in imgs)
        deadlocks = {t for s in p.deadlocks for t in trace_images(s)}
        revs = set(p.revivals)
        revivals = set()
        for (s, a) in {(s, a) for (s, _x, a) in revs}:
            imgs = trace_images(s)
            for x in self.pow_sigma:
                if (s, frozenset(e for e in inverse(x) if e != TICK), a) in revs:
                    for t in imgs:
                        for a2 in img(a):
                            revivals.add((t, x, a2))
        return BehaviourSet(traces, failures, deadlocks, revivals, p.truncated)

    def _interrupt(self, p: BehaviourSet, q: BehaviourSet) -> BehaviourSet:
        p_plain = {s for s in p.traces if TICK not in s}
        p_ticked = {s[:-1] for s in p.traces if s and s[-1] == TICK}
        traces = set(p.traces)
        traces |= {s + t for s in p_plain for t in q.traces}
        q_init = {x for (t, x) in q.failures if t == ()}
        failures = {
            (s, x) for (s, x) in p.failures if TICK not in s and x in q_init
        }
        failures |= {
            (s, x) for s in p_ticked for x in self.pow_sigma_tick if TICK not in x
        }
        failures |= {(s + (TICK,), x) for s in p_ticked for x in self.pow_sigma_tick}
        failures |= {(s + t, x) for s in p_plain for (t, x) in q.failures if t != ()}
        if (TICK,) in q.traces:
            failures |= {(s, x) for s in p_plain for x in self.pow_sigma}
        deadlocks = {s for s in p.deadlocks if () in q.deadlocks}
        deadlocks |= {s + t for s in p_plain for t in q.deadlocks if t != ()}
        fb_p = self._failures_b(p, self.pow_sigma)
        fb_q_init = {x for (t, x) in self._failures_b(q, self.pow_sigma) if t == ()}
        q_init_revivals = {(x, a) for (t, x, a) in q.revivals if t == ()}
        revivals = {(s, x, a) for (s, x, a) in p.revivals if x in fb_q_init}
        revivals |= {
            (s, x, a) for (s, x) in fb_p for (x2, a) in q_init_revivals if x == x2
        }
        revivals |= {
            (s + t, x, a) for s in p_plain for (t, x, a) in q.revivals if t != ()
        }
        return BehaviourSet(
            traces, failures, deadlocks, revivals, p.truncated or q.truncated
        )


def denotational_oracle(
    env: DefEnv,
    term: Term,
    unfold_depth: int,
    sigma,
    max_size: int = 500_000,
) -> BehaviourSet:
    return Oracle(env, frozenset(sigma), max_size).behaviours(term, unfold_depth)


# ---------------------------------------------------------------------------
# operational extraction, for cross-validation


def lts_behaviours(lts: Lts, sigma, max_len: int) -> BehaviourSet:
    """All observations of an LTS with traces of at most ``max_len`` labels.

    Applies the standard stable-state readout plus the termination rule:
    any state that can tick -- stable or not -- yields refusals of every
    visible-event set at its trace.
    """
    sigma = frozenset(sigma)
    pow_sigma = _powerset(sigma)
    pow_sigma_tick = _powerset(sigma | {TICK})
    traces = set()
    failures = set()
    deadlocks = set()
    revivals = set()
    seen = {(lts.initial, ())}
    stack = [(lts.initial, ())]
    while stack:
        state, trace = stack.pop()
        traces.add(trace)
        row = lts.trans[state]
        stable = all(l != TAU for (l, _) in row)
        has_tick = any(l == TICK for (l, _) in row)
        if has_tick:
            failures.update((trace, x) for x in pow_sigma)
            if len(trace) < max_len:
                tick_trace = trace + (TICK,)
                traces.add(tick_trace)
                failures.update((tick_trace, x) for x in pow_sigma_tick)
        if stable and not has_tick:
            acc = frozenset(l for (l, _) in row if l >= 0)
            failures.update((trace, x) for x in pow_sigma_tick if not (x & acc))
            if not acc:
                deadlocks.add(trace)
            else:
                for a in acc:
                    revivals.update(
                        (trace, x, a) for x in pow_sigma if not (x & acc)
                    )
        for l, target in row:
            if l == TAU:
                nxt = (target, trace)
            elif l == TICK:
                continue
            else:
                if len(trace) >= max_len:
                    continue
                nxt = (target, trace + (l,))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return BehaviourSet(traces, failures, deadlocks, revivals)


def diff_behaviours(a: BehaviourSet, b: BehaviourSet, max_len: int):
    """First discrepancy between two behaviour sets on observations shorter
    than ``max_len``, or None."""
    ra, rb = a.restrict(max_len), b.restrict(max_len)
    for fieldname in ("traces", "failures", "deadlocks", "revivals"):
        sa, sb = getattr(ra, fieldname), getattr(rb, fieldname)
        if sa != sb:
            only_a = sorted(sa - sb, key=repr)[:3]
            only_b = sorted(sb - sa, key=repr)[:3]
            return f"{fieldname}: only-left={only_a} only-right={only_b}"
    return None
