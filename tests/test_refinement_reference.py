"""`normalize` and `refines` against plain reference copies.

The references below are the straightforward versions: `refines` re-runs
the whole acceptance test at every (spec state, implementation state) pair
and `normalize` scans a state's transitions for every label.  The checker
in `dpa.semantics` must return equal normal specs and equal
counterexamples (or None), in both models.
"""

import random
from collections import deque

import pytest

import bundled
from conftest import ev3, random_env, random_live_network, random_term, replay, successors
from dpa import decomposition, models, patterns
from dpa.decomposition import check_conflict_free
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import TAU, TICK, event
from dpa.lts import DEFAULT_STATE_LIMIT, compile_term
from dpa.network import abs_lts, communication_graph
from dpa.report import run_dpa
from dpa.semantics import (
    Counterexample,
    DEADLOCK_VIOLATION,
    FAILURES,
    NormalSpec,
    NormalState,
    REFUSAL_VIOLATION,
    REVIVAL_VIOLATION,
    REVIVALS,
    SpecDivergence,
    TRACE_VIOLATION,
    _min_antichain,
    _pair_trace,
    normalize,
    refines,
    stable_behaviours,
)
from dpa.terms import DefEnv, ExtChoice, IntChoice, Prefix, STOP

MODELS = (FAILURES, REVIVALS)


def _reference_normalize(spec, universe=None):
    info = stable_behaviours(spec)
    if universe is None:
        universe = spec.visible_events()
    initial = info.tau_closure[spec.initial]
    ids = {initial: 0}
    order = [initial]
    states = []
    trans = []
    queue = deque([(initial, ())])
    while queue:
        members, trace = queue.popleft()
        for m in members:
            if info.divergent[m]:
                raise SpecDivergence(trace)
        stable_accs = [info.acceptance[m] for m in members if info.stable[m]]
        tick_allowed = any(
            l == TICK for m in members for (l, _) in spec.trans[m]
        )
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
        labels = sorted(
            {l for m in members for (l, _) in spec.trans[m] if l >= 0}
        )
        for l in labels:
            targets = set()
            for m in members:
                for t in successors(spec, m, l):
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


def _reference_refines(spec, impl, model):
    start = (0, impl.initial)
    visited = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        ns, is_ = pair
        nstate = spec.states[ns]
        row = impl.trans[is_]
        stable = all(l != TAU for (l, _) in row)
        has_tick = any(l == TICK for (l, _) in row)
        initials = frozenset(l for (l, _) in row if l >= 0)
        for l, _t in row:
            if l == TICK and not nstate.tick_allowed:
                return Counterexample(
                    TRACE_VIOLATION, _pair_trace(visited, pair), event=TICK
                )
            if l >= 0 and l not in spec.trans[ns]:
                return Counterexample(
                    TRACE_VIOLATION, _pair_trace(visited, pair), event=l
                )
        if model == FAILURES:
            acc = None
            if has_tick:
                acc = frozenset({TICK})
            elif stable:
                acc = initials
            if acc is not None and not any(
                a <= acc for a in nstate.min_acceptances
            ):
                return Counterexample(
                    REFUSAL_VIOLATION,
                    _pair_trace(visited, pair),
                    acceptance=acc,
                    refusal=spec.universe - acc,
                )
        else:
            if stable and not has_tick:
                if not initials:
                    if not nstate.deadlock_allowed:
                        return Counterexample(
                            DEADLOCK_VIOLATION,
                            _pair_trace(visited, pair),
                            acceptance=frozenset(),
                            refusal=spec.universe,
                        )
                else:
                    for a in sorted(initials):
                        if not any(
                            a in acc and acc <= initials
                            for acc in nstate.acceptances
                        ):
                            return Counterexample(
                                REVIVAL_VIOLATION,
                                _pair_trace(visited, pair),
                                event=a,
                                acceptance=initials,
                                refusal=spec.universe - initials,
                            )
        for l, t in row:
            if l == TAU:
                nxt = (ns, t)
            elif l == TICK:
                continue
            else:
                nxt = (spec.trans[ns][l], t)
            if nxt not in visited:
                visited[nxt] = (pair, l)
                queue.append(nxt)
    return None


class _Tally:
    """Counts what was compared, so a corpus cannot pass by comparing nothing."""

    def __init__(self):
        self.specs = 0
        self.checks = 0
        self.counterexamples = 0
        self.kinds = set()

    def normalize(self, spec_lts, universe=None, limit=DEFAULT_STATE_LIMIT):
        try:
            got = normalize(spec_lts, universe, limit)
        except SpecDivergence as exc:
            with pytest.raises(SpecDivergence) as ref:
                _reference_normalize(spec_lts, universe)
            assert ref.value.trace == exc.trace
            raise
        assert got == _reference_normalize(spec_lts, universe)
        self.specs += 1
        return got

    def refines(self, spec, impl, model):
        results = {}
        for m in MODELS:
            results[m] = refines(spec, impl, m)
            assert results[m] == _reference_refines(spec, impl, m), m
            self.checks += 1
            if results[m] is not None:
                self.counterexamples += 1
                self.kinds.add(results[m].kind)
        return results[model]


@pytest.fixture
def tally(monkeypatch):
    """Route every bridge check and pattern obligation through both
    checkers, in both models."""
    t = _Tally()
    for module in (decomposition, patterns):
        monkeypatch.setattr(module, "refines", t.refines)
    # bridge specs are built in normal form; only patterns normalise
    monkeypatch.setattr(patterns, "normalize", t.normalize)
    return t


def _net(src):
    return elaborate(parse_network(src))


def _check_every_edge(net):
    for (i, j) in communication_graph(net).edges:
        check_conflict_free(net, i, j)


def test_bundled_models_match_reference(tally):
    for name, build in bundled.BUNDLED.items():
        if not name.endswith(".net"):
            continue
        net = _net(build())
        _check_every_edge(net)
        desc_name = name[: -len(".net")] + ".pattern.json"
        descriptors = ()
        if desc_name in bundled.BUNDLED:
            descriptors = [parse_descriptor(bundled.BUNDLED[desc_name](), net)]
        run_dpa(net, descriptors)
    # each spec shape is normalised once per pattern check, so the larger
    # leadership networks add the specs the bundled models share
    for n in range(2, 8):
        net = _net(models.leadership_source(n))
        run_dpa(net, [parse_descriptor(models.leadership_descriptor(n), net)])
    assert tally.specs > 20
    assert tally.checks > 40


def test_ring_buffers_match_reference(tally):
    for ncells in range(2, 7):
        _check_every_edge(_net(models.ring_buffer_source(ncells)))
    assert tally.checks == 2 * sum(range(2, 7))


def test_random_networks_match_reference(tally):
    """Every event-sharing pair of each network, both ways round, with the
    spec and the implementation taken before and after hiding private
    events, plus the bridge check of every edge."""
    for seed in range(150):
        net = random_live_network(random.Random(seed))
        graph = communication_graph(net)
        for (i, j) in graph.edges:
            for a, b in ((i, j), (j, i)):
                for view in (lambda k: net[k].compiled(), lambda k: abs_lts(net, k)):
                    try:
                        spec = tally.normalize(view(a))
                    except SpecDivergence:
                        continue
                    tally.refines(spec, view(b), FAILURES)
            check_conflict_free(net, i, j)
    assert tally.checks > 2000
    assert tally.counterexamples > 1000


def test_random_terms_match_reference(tally):
    """All ordered pairs of small random terms over one three-event
    alphabet: ticks, internal choice, hiding and spec divergence, where
    refusal, revival and deadlock violations are common."""
    events = ev3()
    for seed in range(40):
        rng = random.Random(seed)
        env = random_env(rng, events)
        ltss = [compile_term(env, random_term(rng, 3, events, env)) for _ in range(8)]
        for spec_lts in ltss:
            try:
                spec = tally.normalize(spec_lts, frozenset(events))
            except SpecDivergence:
                continue
            for impl in ltss:
                tally.refines(spec, impl, FAILURES)
    assert tally.kinds == {
        TRACE_VIOLATION, REFUSAL_VIOLATION, REVIVAL_VIOLATION, DEADLOCK_VIOLATION
    }
    assert tally.checks > 2000


def test_revival_reports_smallest_uncovered_event():
    a, b, c = event("rv.a"), event("rv.b"), event("rv.c")
    env = DefEnv()
    abc = ExtChoice((Prefix(a, STOP), Prefix(b, STOP), Prefix(c, STOP)))
    impl = compile_term(env, ExtChoice((Prefix(a, STOP), Prefix(b, STOP))))
    # {a, b, c} is the only acceptance: neither offered event is covered
    spec = normalize(compile_term(env, abc))
    ce = refines(spec, impl, REVIVALS)
    assert ce == Counterexample(
        REVIVAL_VIOLATION, (), min(a, b), frozenset({a, b}), frozenset({c})
    )
    assert replay(impl, ce)
    # {a} covers a, so b is the one reported
    spec = normalize(compile_term(env, IntChoice((Prefix(a, STOP), abc))))
    ce = refines(spec, impl, REVIVALS)
    assert ce.kind == REVIVAL_VIOLATION and ce.event == b
    assert ce == _reference_refines(spec, impl, REVIVALS)
