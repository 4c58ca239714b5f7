"""Stable-failures / stable-revivals semantics and refinement checking.

The observable content of a stable LTS state (no internal transition
enabled) is summarised by its *acceptance*: the set of visible labels it
offers, possibly together with the termination signal.  Maximal refusals
are complements of acceptances, so acceptance sets are the compact
representation used throughout:

* failures mode: termination is urgent, so *any* state that can tick --
  stable or not -- refuses every visible event but never the termination
  signal; its acceptance for refusal purposes collapses to ``{TICK}``;
* revivals mode: a stable state contributes a revival for each visible
  event it offers, *unless* it can terminate, in which case it contributes
  neither revivals nor a deadlock (only its traces matter).

Both models are divergence-blind: internal-transition cycles are reported
via :class:`StableInfo` divergence flags, never as violations.

Refinement runs breadth-first over pairs of (normalised spec state,
implementation state), expanding transitions in ascending label order, so
the first violation found has a shortest, deterministic witness trace.
Whether a pair witnesses a violation depends only on the spec state and
the set of labels the implementation state offers, so each such
combination is judged once per check; counterexamples are unchanged.
Pairs at a spec's CHAOS state (``NormalSpec.chaos``) are never explored:
CHAOS allows every behaviour over the spec's universe, so no pair there
or beyond it can witness a violation, provided the implementation's
visible events lie in that universe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .events import TAU, TICK, EVENTS, fmt_events, fmt_trace
from .lts import Lts

FAILURES = "failures"
REVIVALS = "revivals"


class SpecDivergence(Exception):
    def __init__(self, trace):
        super().__init__(
            "specification diverges after " + fmt_trace(trace)
        )
        self.trace = trace


# ---------------------------------------------------------------------------
# stable behaviours of an LTS


@dataclass
class StableInfo:
    tau_closure: list
    stable: list
    acceptance: list  # visible initials + TICK for stable states, else None
    divergent: list  # state lies on an internal-transition cycle


def stable_behaviours(lts: Lts) -> StableInfo:
    """Tau-closures, stable acceptances and divergence flags, per state.

    Quadratic in the worst case; intended for component-sized systems
    (specifications, individual components, snapshot states), not for raw
    product spaces.
    """
    n = lts.n_states
    tau_succ = [lts.taus(s) for s in range(n)]
    stable = [not tau_succ[s] for s in range(n)]
    closures = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            cur = stack.pop()
            for t in tau_succ[cur]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closures.append(frozenset(seen))
    divergent = []
    for s in range(n):
        divergent.append(any(s in closures[t] for t in tau_succ[s]))
    acceptance = []
    for s in range(n):
        if stable[s]:
            acc = set(lts.visible_initials(s))
            if lts.has_tick(s):
                acc.add(TICK)
            acceptance.append(frozenset(acc))
        else:
            acceptance.append(None)
    return StableInfo(closures, stable, acceptance, divergent)


def _shortest_trace(lts: Lts, found):
    """Shortest visible trace to a state where ``found(state)``, or None."""
    queue = deque([lts.initial])
    parents = {lts.initial: None}
    while queue:
        s = queue.popleft()
        if found(s):
            return _pair_trace(parents, s)
        for l, t in lts.trans[s]:
            if t not in parents:
                parents[t] = (s, l)
                queue.append(t)
    return None


def component_deadlocks(lts: Lts):
    """Shortest trace to a state that offers nothing at all, or None."""
    return _shortest_trace(lts, lambda s: not lts.trans[s])


def first_tick_trace(lts: Lts):
    """Shortest visible trace leading to an enabled termination, or None."""
    return _shortest_trace(lts, lts.has_tick)


# ---------------------------------------------------------------------------
# normalisation


@dataclass
class NormalState:
    min_acceptances: tuple  # antichain of minimal acceptances (may hold TICK)
    acceptances: tuple  # full family from non-terminating stable members
    deadlock_allowed: bool
    tick_allowed: bool


@dataclass
class NormalSpec:
    """Determinised specification automaton annotated with acceptance data.

    ``universe`` is the visible-event universe the spec constrains; refusal
    sets in counterexamples are reported relative to it.  It may be given
    as a function returning it, called only when a refusal set is reported.
    ``chaos`` names a state that allows every behaviour over the universe
    (it loops on every event, may tick and may refuse anything), or is
    None.  Refinement does not explore past it, which is sound only for
    implementations whose visible events all lie in the universe.
    """

    given_universe: object  # frozenset, or a function returning one
    states: list
    trans: list  # per state: dict visible label -> state id
    initial: int = 0
    chaos: int | None = None

    @property
    def universe(self) -> frozenset:
        u = self.given_universe
        return u() if callable(u) else u

    @property
    def n_states(self):
        return len(self.states)


def _min_antichain(sets):
    out = []
    for s in sorted(sets, key=len):
        if not any(m <= s for m in out):
            out.append(s)
    return tuple(out)


def normalize(spec: Lts, universe=None) -> NormalSpec:
    """Subset-construct the deterministic automaton of a specification.

    Divergence anywhere in the explored subsets is an error: a divergent
    specification would make the stable checks vacuous, which is never what
    a specification author means.
    """
    info = stable_behaviours(spec)
    # per spec state: label -> targets, in transition order
    succ = []
    for row in spec.trans:
        by_label = {}
        for l, t in row:
            by_label.setdefault(l, []).append(t)
        succ.append(by_label)
    if universe is None:
        universe = spec.visible_events()
    initial = info.tau_closure[spec.initial]
    ids = {initial: 0}
    order = [initial]
    states: list[NormalState] = []
    trans: list[dict] = []
    queue = deque([(initial, ())])
    while queue:
        members, trace = queue.popleft()
        for m in members:
            if info.divergent[m]:
                raise SpecDivergence(trace)
        stable_accs = [info.acceptance[m] for m in members if info.stable[m]]
        tick_allowed = any(TICK in succ[m] for m in members)
        # termination is urgent: a tick-enabled member (stable or not) lets
        # the spec refuse all of sigma, i.e. grants the acceptance {TICK}
        fail_accs = [acc for acc in stable_accs if TICK not in acc]
        if tick_allowed:
            fail_accs.append(frozenset({TICK}))
        rev_accs = sorted(
            {acc for acc in stable_accs if TICK not in acc}, key=sorted
        )
        states.append(
            NormalState(
                min_acceptances=_min_antichain(fail_accs),
                acceptances=tuple(rev_accs),
                deadlock_allowed=any(acc == frozenset() for acc in stable_accs),
                tick_allowed=tick_allowed,
            )
        )
        row = {}
        labels = sorted({l for m in members for l in succ[m] if l >= 0})
        for l in labels:
            targets = set()
            for m in members:
                for t in succ[m].get(l, ()):
                    targets |= info.tau_closure[t]
            tgt = frozenset(targets)
            sid = ids.get(tgt)
            if sid is None:
                sid = len(order)
                ids[tgt] = sid
                order.append(tgt)
                queue.append((tgt, trace + (l,)))
            row[l] = sid
        trans.append(row)
    return NormalSpec(universe, states, trans)


# ---------------------------------------------------------------------------
# counterexamples


TRACE_VIOLATION = "trace"
REFUSAL_VIOLATION = "refusal"
REVIVAL_VIOLATION = "revival"
DEADLOCK_VIOLATION = "deadlock"


@dataclass
class Counterexample:
    kind: str
    trace: tuple  # visible events leading to the witnessing configuration
    event: int | None = None  # offending event (trace/revival kinds)
    acceptance: frozenset | None = None  # impl acceptance at the witness
    refusal: frozenset | None = None  # reported refusal set (vs universe)

    def describe(self) -> str:
        t = fmt_trace(self.trace)
        if self.kind == TRACE_VIOLATION:
            ev = "tick" if self.event == TICK else EVENTS.name(self.event)
            return f"trace violation: after {t} the implementation performs {ev}"
        if self.kind == REFUSAL_VIOLATION:
            return (
                f"refusal violation: after {t} the implementation accepts only "
                f"{_fmt_acc(self.acceptance)}"
            )
        if self.kind == REVIVAL_VIOLATION:
            return (
                f"revival violation: after {t} the implementation offers "
                f"{EVENTS.name(self.event)} while refusing {fmt_events(self.refusal)}"
            )
        return f"deadlock violation: after {t} the implementation deadlocks"

    def to_json(self):
        data = {
            "kind": self.kind,
            "trace": [EVENTS.name(e) for e in self.trace],
        }
        if self.event is not None:
            data["event"] = "tick" if self.event == TICK else EVENTS.name(self.event)
        if self.acceptance is not None:
            data["acceptance"] = EVENTS.names(e for e in self.acceptance if e >= 0)
            if TICK in self.acceptance:
                data["acceptance"].append("tick")
        if self.refusal is not None:
            data["refusal"] = EVENTS.names(self.refusal)
        return data


def _fmt_acc(acc):
    parts = sorted(EVENTS.name(e) for e in acc if e >= 0)
    if TICK in acc:
        parts.append("tick")
    return "{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# refinement


def refines(spec: NormalSpec, impl: Lts, model: str) -> Counterexample | None:
    """Check ``spec [F= impl`` or ``spec [V= impl``; None means it holds.

    Violations are detected in breadth-first order with transitions taken
    in ascending interned-label order, so the returned counterexample is a
    shortest one and identical across runs.  No pair at ``spec.chaos`` is
    enqueued: those pairs lead only to each other and none is a violation
    when ``impl``'s visible events lie in ``spec.universe``, so the order
    and parent links of every other pair, and the result, are unchanged.
    """
    if model not in (FAILURES, REVIVALS):
        raise ValueError(f"unknown model {model!r}")
    start = (spec.initial, impl.initial)
    visited = {start: None}
    queue = deque([start])
    judged = {}  # (spec state, offered labels) -> violation fields or None
    chaos = spec.chaos
    while queue:
        pair = queue.popleft()
        ns, is_ = pair
        row = impl.trans[is_]
        key = (ns, frozenset([l for (l, _) in row]))
        verdict = judged.get(key, _UNJUDGED)
        if verdict is _UNJUDGED:
            verdict = judged[key] = _judge(spec, ns, row, model)
        if verdict is not None:
            kind, *fields = verdict
            return Counterexample(kind, _pair_trace(visited, pair), *fields)
        spec_row = spec.trans[ns]
        for l, t in row:
            if l == TAU:
                nxt = (ns, t)
            elif l == TICK:
                continue  # nothing is observable beyond termination
            elif (target := spec_row[l]) == chaos:
                continue  # no violation lies at or beyond CHAOS
            else:
                nxt = (target, t)
            if nxt not in visited:
                visited[nxt] = (pair, l)
                queue.append(nxt)
    return None


_UNJUDGED = object()


def _judge(spec: NormalSpec, ns: int, row, model: str):
    """The violation an implementation state with transitions ``row``
    witnesses against normal spec state ``ns``, as ``(kind, event,
    acceptance, refusal)``, or None when it witnesses none."""
    nstate = spec.states[ns]
    stable = all(l != TAU for (l, _) in row)
    has_tick = any(l == TICK for (l, _) in row)
    initials = frozenset(l for (l, _) in row if l >= 0)
    # trace escapes first: the event itself is the evidence
    for l, _t in row:
        if l == TICK and not nstate.tick_allowed:
            return (TRACE_VIOLATION, TICK, None, None)
        if l >= 0 and l not in spec.trans[ns]:
            return (TRACE_VIOLATION, l, None, None)
    if model == FAILURES:
        # tick-enabled states refuse all visibles (termination urgency),
        # whether or not they are stable
        acc = None
        if has_tick:
            acc = frozenset({TICK})
        elif stable:
            acc = initials
        if acc is not None and not any(a <= acc for a in nstate.min_acceptances):
            return (REFUSAL_VIOLATION, None, acc, spec.universe - acc)
    elif stable and not has_tick:
        if not initials:
            if not nstate.deadlock_allowed:
                return (DEADLOCK_VIOLATION, None, frozenset(), spec.universe)
        else:
            # an offered event is revived when some spec acceptance holds
            # it and is itself offered; report the smallest one that is not
            covered = set()
            for acc in nstate.acceptances:
                if acc <= initials:
                    covered |= acc
            for a in sorted(initials):
                if a not in covered:
                    return (REVIVAL_VIOLATION, a, initials, spec.universe - initials)
    return None


def _pair_trace(visited, pair):
    """The visible labels on the parent links from the root to ``pair``."""
    trace = []
    while visited[pair] is not None:
        pair, l = visited[pair]
        if l >= 0:
            trace.append(l)
    trace.reverse()
    return tuple(trace)
