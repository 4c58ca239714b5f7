import pytest

from conftest import replay
from dpa.events import event
from dpa.lts import compile_term
from dpa.semantics import (
    DEADLOCK_VIOLATION,
    FAILURES,
    REFUSAL_VIOLATION,
    REVIVAL_VIOLATION,
    REVIVALS,
    SpecDivergence,
    TRACE_VIOLATION,
    normalize,
    refines,
    stable_behaviours,
)
from dpa.terms import (
    Call,
    DefEnv,
    Definition,
    ExtChoice,
    Hide,
    IntChoice,
    Prefix,
    SKIP,
    STOP,
)

A, B, C = event("a"), event("b"), event("c")
ENV = DefEnv()


def test_stop_is_a_deadlock_state():
    info = stable_behaviours(compile_term(ENV, STOP))
    assert info.stable[0]
    assert info.acceptance[0] == frozenset()
    assert not info.divergent[0]


def test_internal_choice_stable_members():
    lts = compile_term(ENV, IntChoice((Prefix(A, STOP), Prefix(B, STOP))))
    info = stable_behaviours(lts)
    assert not info.stable[lts.initial]
    accs = {info.acceptance[m] for m in info.tau_closure[lts.initial] if info.stable[m]}
    assert accs == {frozenset({A}), frozenset({B})}


def test_hidden_loop_is_divergent():
    env = DefEnv([Definition("P", (), Prefix(A, Call("P")))])
    lts = compile_term(env, Hide(Call("P"), frozenset({A})))
    info = stable_behaviours(lts)
    assert all(info.divergent)
    assert not any(info.stable)


def test_normalize_prefix():
    spec = normalize(compile_term(ENV, Prefix(A, STOP)))
    assert spec.n_states == 2
    assert spec.states[0].min_acceptances == (frozenset({A}),)
    assert not spec.states[0].deadlock_allowed
    assert spec.states[1].min_acceptances == (frozenset(),)
    assert spec.states[1].deadlock_allowed
    assert spec.trans[0] == {A: 1}


def test_normalize_internal_choice_by_hand():
    # subset construction: one initial normal state holding both branches,
    # with the two acceptances side by side
    spec = normalize(compile_term(ENV, IntChoice((Prefix(A, STOP), Prefix(B, STOP)))))
    init = spec.states[0]
    assert set(init.acceptances) == {frozenset({A}), frozenset({B})}
    assert set(spec.trans[0]) == {A, B}


def test_normalize_rejects_divergent_spec():
    env = DefEnv([Definition("P", (), Prefix(A, Call("P")))])
    with pytest.raises(SpecDivergence):
        normalize(compile_term(env, Hide(Call("P"), frozenset({A}))))


def test_refines_reflexive_on_samples():
    samples = [
        Prefix(A, STOP),
        IntChoice((Prefix(A, STOP), Prefix(B, SKIP))),
        ExtChoice((Prefix(A, Prefix(B, STOP)), Prefix(C, STOP))),
    ]
    for term in samples:
        lts = compile_term(ENV, term)
        spec = normalize(lts)
        assert refines(spec, lts, FAILURES) is None
        assert refines(spec, lts, REVIVALS) is None


def test_trace_violation():
    spec = normalize(compile_term(ENV, Prefix(A, STOP)))
    impl = compile_term(ENV, Prefix(B, STOP))
    ce = refines(spec, impl, FAILURES)
    assert ce.kind == TRACE_VIOLATION
    assert ce.trace == ()
    assert ce.event == B
    assert replay(impl, ce)


def test_refusal_violation_and_replay():
    # spec insists on offering a; an implementation that may refuse it fails
    spec = normalize(compile_term(ENV, Prefix(A, STOP)))
    impl = compile_term(ENV, IntChoice((Prefix(A, STOP), STOP)))
    ce = refines(spec, impl, FAILURES)
    assert ce.kind == REFUSAL_VIOLATION
    assert ce.acceptance == frozenset()
    assert replay(impl, ce)


def test_deadlock_violation_revivals():
    spec = normalize(compile_term(ENV, Prefix(A, STOP)))
    impl = compile_term(ENV, IntChoice((Prefix(A, STOP), STOP)))
    ce = refines(spec, impl, REVIVALS)
    assert ce.kind == DEADLOCK_VIOLATION
    assert replay(impl, ce)


def test_revival_violation():
    # spec: after refusing b, only a may be offered together with it...
    # impl offers b while the spec's acceptances containing b ({a,b}) are
    # not contained in the impl acceptance {b}
    spec_term = IntChoice((Prefix(A, STOP), ExtChoice((Prefix(A, STOP), Prefix(B, STOP)))))
    impl_term = Prefix(B, STOP)
    spec = normalize(compile_term(ENV, spec_term))
    impl = compile_term(ENV, impl_term)
    ce = refines(spec, impl, REVIVALS)
    assert ce.kind == REVIVAL_VIOLATION
    assert ce.event == B
    assert replay(impl, ce)
    # ...while the failures check accepts it (acceptance {a,b} covers {b}?
    # no: minimal antichain is {{a}}, so failures fails too, differently)
    ce_f = refines(spec, impl, FAILURES)
    assert ce_f is not None and ce_f.kind == REFUSAL_VIOLATION


def test_revivals_allows_superset_acceptance():
    # the full acceptance family matters: {a,b} grants the b-revival even
    # though the minimal antichain is {{a}}
    spec_term = IntChoice((Prefix(A, STOP), ExtChoice((Prefix(A, STOP), Prefix(B, STOP)))))
    impl_term = ExtChoice((Prefix(A, STOP), Prefix(B, STOP)))
    spec = normalize(compile_term(ENV, spec_term))
    impl = compile_term(ENV, impl_term)
    assert refines(spec, impl, REVIVALS) is None


def test_tick_refusal_follows_termination_urgency():
    # a pre-termination state refuses all visible events but not the tick
    spec = normalize(compile_term(ENV, SKIP))
    impl = compile_term(ENV, SKIP)
    assert refines(spec, impl, FAILURES) is None
    # a process that only offers a cannot refine SKIP: it refuses the tick
    impl2 = compile_term(ENV, Prefix(A, STOP))
    ce = refines(spec, impl2, FAILURES)
    assert ce is not None
    # and SKIP [] a->STOP may refuse a (it can terminate instead), so it
    # does not failures-refine a->STOP
    spec2 = normalize(compile_term(ENV, Prefix(A, STOP)))
    impl3 = compile_term(ENV, ExtChoice((SKIP, Prefix(A, STOP))))
    ce2 = refines(spec2, impl3, FAILURES)
    assert ce2 is not None
    assert replay(impl3, ce2)


def test_counterexample_is_shortest_and_deterministic():
    env = DefEnv([
        Definition("Spec", (), Prefix(A, Prefix(A, Call("Spec")))),
    ])
    spec = normalize(compile_term(env, Call("Spec")))
    impl = compile_term(
        ENV, Prefix(A, ExtChoice((Prefix(A, Prefix(B, STOP)), Prefix(B, STOP))))
    )
    first = refines(spec, impl, FAILURES)
    second = refines(spec, impl, FAILURES)
    assert first.kind == TRACE_VIOLATION
    assert first.trace == (A,)
    assert first.event == B
    assert (first.kind, first.trace, first.event) == (
        second.kind, second.trace, second.event,
    )


def test_revivals_refinement_implies_failures_on_plain_terms(rng):
    from conftest import random_plain_term

    events = [A, B, C]
    pool = [random_plain_term(rng, 3, events) for _ in range(14)]
    ltss = [compile_term(ENV, t) for t in pool]
    specs = [normalize(l, universe=frozenset(events)) for l in ltss]
    implications = 0
    for i, spec in enumerate(specs):
        for j, impl in enumerate(ltss):
            if refines(spec, impl, REVIVALS) is None:
                implications += 1
                assert refines(spec, impl, FAILURES) is None, (pool[i], pool[j])
    assert implications > len(pool)  # at least the reflexive cases fired
