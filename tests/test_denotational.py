import random

import pytest

from conftest import ev3, random_env, random_term
from denotational import (
    CombinatorialBlowup,
    denotational_oracle,
    diff_behaviours,
    lts_behaviours,
)
from dpa.events import TICK, event
from dpa.lts import compile_term
from dpa.terms import (
    Call,
    DefEnv,
    Definition,
    EventTemplate,
    ExtChoice,
    Lit,
    Prefix,
    SKIP,
    STOP,
    Var,
)


def cell_env():
    """Single storage cell over the value domain {0,1,2}."""
    env = DefEnv()
    t = lambda h, *fs: EventTemplate(h, tuple(fs))
    read_branch = Prefix(t("read", Var("val")), Call("Cell", (Var("val"),)))
    write_branches = tuple(
        Prefix(t("write", Lit(v)), Call("Cell", (Lit(v),))) for v in range(3)
    )
    env.define(
        Definition("Cell", ("val",), ExtChoice((read_branch,) + write_branches))
    )
    return env


def cell_sigma():
    return frozenset(
        [event(f"read.{v}") for v in range(3)] + [event(f"write.{v}") for v in range(3)]
    )


def controller_env():
    """Input-side of a one-slot controller over the value domain {0,1,2}."""
    env = DefEnv()
    t = lambda h, *fs: EventTemplate(h, tuple(fs))
    inputs = tuple(
        Prefix(t("input", Lit(v)), Prefix(t("output", Lit(v)), Call("Ctrl")))
        for v in range(3)
    )
    env.define(Definition("Ctrl", (), ExtChoice(inputs)))
    return env


def test_cell_failures_match_reported_maximal_refusal():
    env = cell_env()
    sigma = cell_sigma()
    beh = denotational_oracle(env, Call("Cell", (Lit(0),)), 4, sigma)
    initials = {event("read.0"), event("write.0"), event("write.1"), event("write.2")}
    max_refusal = frozenset((sigma | {TICK}) - initials)
    assert ((), max_refusal) in beh.failures
    # and nothing larger
    assert ((), max_refusal | {event("read.0")}) not in beh.failures
    # after writing 1 the readable value changes
    after = frozenset(
        (sigma | {TICK})
        - {event("read.1"), event("write.0"), event("write.1"), event("write.2")}
    )
    assert ((event("write.1"),), after) in beh.failures


def test_controller_revivals_membership():
    env = controller_env()
    sigma = frozenset(
        [event(f"input.{v}") for v in range(3)] + [event(f"output.{v}") for v in range(3)]
    )
    beh = denotational_oracle(env, Call("Ctrl"), 4, sigma)
    inputs = {event(f"input.{v}") for v in range(3)}
    refusal = frozenset(sigma - inputs)
    assert ((), refusal, event("input.0")) in beh.revivals
    assert beh.deadlocks == set()


def test_deadlocks_of_primitives():
    sigma = frozenset(ev3())
    env = DefEnv()
    assert denotational_oracle(env, SKIP, 2, sigma).deadlocks == set()
    assert denotational_oracle(env, STOP, 2, sigma).deadlocks == {()}


def test_truncation_flag():
    a = event("a")
    env = DefEnv([Definition("P", (), Prefix(a, Call("P")))])
    sigma = frozenset({a})
    full = denotational_oracle(env, Call("P"), 3, sigma)
    assert full.truncated
    assert (a, a, a) in full.traces
    assert (a, a, a, a) not in full.traces
    flat = denotational_oracle(env, Prefix(a, STOP), 3, sigma)
    assert not flat.truncated


def test_blowup_guard():
    a, b, c = ev3()
    env = DefEnv([Definition("P", (), Prefix(a, Call("P")))])
    with pytest.raises(CombinatorialBlowup):
        denotational_oracle(env, Call("P"), 40, frozenset({a, b, c}), max_size=100)


def test_operational_equals_denotational_on_random_corpus():
    rng = random.Random(7)
    events = ev3()
    sigma = frozenset(events)
    depth = 6
    for i in range(120):
        env = random_env(rng, events)
        term = random_term(rng, 4, events, env)
        den = denotational_oracle(env, term, depth, sigma)
        op = lts_behaviours(compile_term(env, term), sigma, depth)
        mismatch = diff_behaviours(op, den, depth)
        assert mismatch is None, f"case {i}: {term}: {mismatch}"
