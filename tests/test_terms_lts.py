import copy
import pickle

import pytest

from conftest import generate_spec
from denotational import diff_behaviours, lts_behaviours
from dpa import models
from dpa.dsl import _InputPrefix, elaborate, parse_descriptor, parse_network
from dpa.events import EVENTS, TAU, event
from dpa.lts import (
    AlphabetViolation,
    StateLimitExceeded,
    check_alphabet,
    compile_term,
    hide_lts,
    parallel_lts,
)
from dpa.report import PROVEN, run_dpa
from dpa.terms import (
    BinOp,
    Call,
    DefEnv,
    Definition,
    DslValueError,
    EmptyChoiceList,
    EventTemplate,
    ExtChoice,
    FunCall,
    Guard,
    GuardNotClosed,
    Hide,
    IndexedChoice,
    IntChoice,
    Lit,
    Prefix,
    Rename,
    Seq,
    SKIP,
    STOP,
    UnboundCall,
    Var,
    bind,
    free_vars,
    pretty,
)

A, B, C = event("a"), event("b"), event("c")
ENV = DefEnv()


def trace_labels(lts):
    """Follow the unique outgoing transition from each state."""
    out = []
    s = lts.initial
    seen = set()
    while s not in seen:
        seen.add(s)
        row = lts.trans[s]
        if not row:
            break
        assert len(row) == 1
        label, s = row[0]
        out.append(label)
    return out


def test_single_prefix():
    lts = compile_term(ENV, Prefix(A, STOP))
    assert lts.n_states == 2
    assert lts.trans[0] == ((A, 1),)
    assert lts.trans[1] == ()


def test_tail_recursion_single_state():
    env = DefEnv([Definition("P", (), Prefix(A, Call("P")))])
    lts = compile_term(env, Call("P"))
    assert lts.n_states == 1
    assert lts.trans[0] == ((A, 0),)


def phil_env(n=3):
    env = DefEnv(constants={"N": n})
    env.def_fun("next", ("i",), BinOp("%", BinOp("+", Var("i"), Lit(1)), Var("N")))
    t = lambda h, *fs: EventTemplate(h, tuple(fs))
    body = Prefix(t("sit", Var("id")),
        Prefix(t("pickup", Var("id"), Var("id")),
        Prefix(t("pickup", Var("id"), FunCall("next", (Var("id"),))),
        Prefix(t("eat", Var("id")),
        Prefix(t("putdown", Var("id"), Var("id")),
        Prefix(t("putdown", Var("id"), FunCall("next", (Var("id"),))),
        Prefix(t("getup", Var("id")), Call("Phil", (Var("id"),)))))))))
    env.define(Definition("Phil", ("id",), body))
    return env


def test_philosopher_cycle():
    # one state per action in the loop; the trailing call folds back to the
    # initial state, giving a 7-state cycle
    lts = compile_term(phil_env(), Call("Phil", (Lit(0),)))
    assert lts.n_states == 7
    labels = [EVENTS.name(l) for l in trace_labels(lts)]
    assert labels == [
        "sit.0", "pickup.0.0", "pickup.0.1", "eat.0",
        "putdown.0.0", "putdown.0.1", "getup.0",
    ]


def test_guard_false_behaves_like_stop():
    term = Guard(BinOp("<", Lit(3), Lit(1)), Prefix(A, STOP))
    lts = compile_term(ENV, term)
    assert lts.n_states == 1
    assert lts.trans[0] == ()


def test_guard_requires_closed_condition():
    with pytest.raises(GuardNotClosed):
        compile_term(ENV, Guard(Var("free"), STOP))


def test_empty_choice_is_an_error():
    with pytest.raises(EmptyChoiceList):
        compile_term(ENV, ExtChoice(()))
    with pytest.raises(EmptyChoiceList):
        compile_term(ENV, IntChoice(()))
    with pytest.raises(EmptyChoiceList):
        compile_term(ENV, IndexedChoice("[]", "i", (("range", Lit(1), Lit(0)),), STOP))


def test_indexed_choice_binds_its_variable_once_per_value():
    body = Prefix(EventTemplate("a", (Var("i"),)), STOP)
    items = (("value", Lit(1)), ("range", Lit(0), Lit(1)))
    term = IndexedChoice("[]", "i", items, body)
    assert pretty(term) == "[] i : {1, 0..1} @ a.i -> STOP"
    # a repeated value gives one branch, in first-seen order
    assert bind(term, {}, ENV) == ExtChoice(
        (Prefix(event("a.1"), STOP), Prefix(event("a.0"), STOP))
    )
    # one value gives the bare branch; the set is read outside the binder,
    # the body inside it
    single = IndexedChoice("|~|", "i", (("value", BinOp("+", Var("i"), Lit(1))),), body)
    assert bind(single, {"i": 2}, ENV) == Prefix(event("a.3"), STOP)


def test_unbound_call():
    with pytest.raises(UnboundCall):
        compile_term(ENV, Call("Nope"))


# ---------------------------------------------------------------------------
# free variables and the binding memo


def _choice(var, items, body, op="[]"):
    return IndexedChoice(op, var, items, body)


def _upto(hi):
    return (("range", Lit(0), hi),)


def _ev(head, *fields):
    return EventTemplate(head, fields)


X, Y = Var("x"), Var("y")


def test_an_inner_input_shadows_the_outer_one():
    net = elaborate(parse_network(
        "version 1\nchannel c : {0..1}\nchannel d : {2..3}\nchannel e : {0..3}\n"
        "atom PA = alphabet {| c, d, e |} behaviour c?x -> d?x -> e!x -> STOP\n"
        "instance P = PA\n"
    ))
    lts = net[0].compiled()
    after_c = {t for _l, t in lts.trans[lts.initial]}
    assert len(after_c) == 1  # the inner choice does not read the outer x
    (mid,) = after_c
    ends = sorted(EVENTS.name(l) for _l, t in lts.trans[mid] for l, _ in lts.trans[t])
    assert ends == ["e.2", "e.3"]
    inner = _choice("x", _upto(Lit(1)), Prefix(_ev("e", X), STOP))
    outer = _choice("x", _upto(Lit(1)), Prefix(_ev("c", X), inner))
    assert free_vars(inner) == free_vars(outer) == ()
    assert free_vars(Prefix(_ev("e", X), STOP)) == ("x",)


@pytest.mark.parametrize("term, reads", [
    # read only in an inner choice's set
    (Prefix(_ev("a"), _choice("y", _upto(X), Prefix(_ev("b", Y), STOP))), ("x",)),
    # only in a guard
    (Guard(BinOp(">", X, Lit(0)), Prefix(_ev("a"), STOP)), ("x",)),
    # only in a call argument
    (Seq(SKIP, Call("P", (BinOp("+", X, Y),))), ("x", "y")),
    # only in a hide or a rename template
    (Hide(Prefix(_ev("a", Lit(0)), STOP), (_ev("a", X),)), ("x",)),
    (Rename(Prefix(_ev("a", Lit(0)), STOP), ((_ev("a", Lit(0)), _ev("b", Y)),)), ("y",)),
    # a function call reads its arguments, not its body's parameters
    (Prefix(_ev("a", FunCall("f", (Y,))), STOP), ("y",)),
    # the bound variable is not free, the set's variables are
    (_choice("x", (("value", X),), Prefix(_ev("a", X), STOP)), ("x",)),
    (Prefix(event("a.0"), STOP), ()),
], ids=["inner-set", "guard", "call-argument", "hide", "rename", "function-call",
        "choice-set", "ground"])
def test_free_vars_and_memoised_binding_agree_with_the_reference(term, reads):
    from test_bind_reference import reference_bind

    assert free_vars(term) == reads
    env = DefEnv(
        [Definition("P", ("n",), Prefix(_ev("a", Var("n")), STOP))],
        functions={"f": (("n",), BinOp("+", Var("n"), Lit(1)))},
    )
    # bind each choice under the memo, and again under other values of
    # what it reads, against a fresh reference each time
    memoised = _choice("z", _upto(Lit(1)), ExtChoice((term, Prefix(_ev("a", Var("z")), STOP))))
    for values in [{"x": 0, "y": 1}, {"x": 1, "y": 1}, {"x": 1, "y": 0}, {"x": 0, "y": 1}]:
        assert bind(memoised, values, env) is reference_bind(memoised, values, DefEnv(
            env.definitions.values(), functions=env.functions
        ))
    assert len(env.bound) >= 1


def test_a_constant_is_read_through_the_environment():
    term = _choice("i", _upto(Var("N")), Prefix(_ev("a", Var("i")), STOP))
    assert free_vars(term) == ("N",)
    small, large = DefEnv(constants={"N": 0}), DefEnv(constants={"N": 1})
    assert bind(term, {}, small) == Prefix(event("a.0"), STOP)
    assert bind(term, {}, large) == ExtChoice(
        (Prefix(event("a.0"), STOP), Prefix(event("a.1"), STOP))
    )
    # a bound name wins over the constant, and keys the memo apart
    assert bind(term, {"N": 1}, small) is bind(term, {}, large)
    assert {key[1] for key in small.bound} == {(None,), (1,)}


def test_an_error_in_one_branch_is_raised_on_every_attempt():
    guarded = Guard(BinOp("==", X, Lit(1)), Prefix(_ev("a", Y), STOP))
    term = _choice("x", _upto(Lit(1)), ExtChoice((guarded, Prefix(_ev("a", X), STOP))))
    env = DefEnv()
    for _ in range(2):
        with pytest.raises(GuardNotClosed, match="unbound variable 'y'"):
            bind(term, {}, env)
    assert all(key[0] is not term for key in env.bound)
    assert bind(term, {"y": 0}, env) is bind(term, {"y": 0}, DefEnv())


def test_free_vars_rejects_an_unknown_term():
    with pytest.raises(DslValueError):
        free_vars(object())


def test_state_limit():
    # counter process grows without bound
    env = DefEnv([
        Definition("P", ("n",), Prefix(A, Call("P", (BinOp("+", Var("n"), Lit(1)),))))
    ])
    with pytest.raises(StateLimitExceeded):
        compile_term(env, Call("P", (Lit(0),)), limit=50)


def test_unguarded_recursion_is_divergence():
    env = DefEnv([
        Definition("P", (), Call("Q")),
        Definition("Q", (), Call("P")),
    ])
    lts = compile_term(env, Call("P"))
    assert all(l == TAU for row in lts.trans for (l, _t) in row)


def test_recursion_through_hiding_and_renaming_stays_finite():
    env = DefEnv([
        Definition("H", (), Prefix(A, Prefix(B, Call("H")))),
        Definition("R", (), Prefix(A, Call("R"))),
    ])
    from dpa.terms import Rename

    hidden = compile_term(env, Hide(Call("H"), frozenset({A})))
    assert hidden.n_states <= 4
    renamed = compile_term(env, Rename(Call("R"), ((A, B),)))
    assert renamed.n_states <= 2
    assert renamed.visible_events() == {B}


def test_unbounded_sequencing_reports_state_limit():
    # recursion re-wrapped in a sequence context has no finite control
    env = DefEnv([
        Definition("P", (), Prefix(A, Seq(Call("P"), Prefix(B, STOP)))),
    ])
    with pytest.raises(StateLimitExceeded):
        compile_term(env, Call("P"))


def test_a_long_prefix_chain_compiles_and_runs():
    # free_vars and bind walk prefix chains without a stack frame per prefix
    source = ("version 1\nchannel a\nP = " + "a -> " * 600 + "P\n"
              "atom PA = alphabet { a } behaviour P\ninstance X = PA\n")
    net = elaborate(parse_network(source))
    assert net[0].compiled().n_states == 600
    assert run_dpa(net).overall == PROVEN
    chain = STOP
    for _ in range(600):
        chain = Prefix(_ev("e", X), chain)
    assert free_vars(chain) == ("x",)
    bound = bind(chain, {"x": 1}, DefEnv())
    assert compile_term(ENV, bound).n_states == 601


def test_compilation_deterministic():
    env = phil_env()
    l1 = compile_term(env, Call("Phil", (Lit(1),)))
    l2 = compile_term(env, Call("Phil", (Lit(1),)))
    assert l1.trans == l2.trans


def test_seq_converts_tick():
    lts = compile_term(ENV, Seq(SKIP, Prefix(A, STOP)))
    # initial state has a single internal move into the continuation
    assert lts.trans[0] == ((TAU, 1),)
    assert lts.trans[1] == ((A, 2),)


def test_parallel_full_sync():
    p = compile_term(ENV, Prefix(A, STOP))
    prod = parallel_lts(p, frozenset({A}), p, frozenset({A}))
    assert prod.n_states == 2
    assert prod.trans[0] == ((A, 1),)


def test_parallel_interleaving_diamond():
    p = compile_term(ENV, Prefix(A, STOP))
    q = compile_term(ENV, Prefix(B, STOP))
    prod = parallel_lts(p, frozenset({A}), q, frozenset({B}))
    assert prod.n_states == 4
    labels = sorted(l for row in prod.trans for (l, _t) in row)
    assert labels == sorted([A, B, A, B])


def test_parallel_synchronises_on_shared_alphabet_only():
    # philosopher and its own fork share exactly pickup.0.0 / putdown.0.0
    env = phil_env()
    fork_alpha = frozenset(
        event(e) for e in ("pickup.0.0", "pickup.2.0", "putdown.0.0", "putdown.2.0")
    )
    phil_alpha = frozenset(
        event(e)
        for e in (
            "sit.0", "pickup.0.0", "pickup.0.1", "eat.0",
            "putdown.0.0", "putdown.0.1", "getup.0",
        )
    )
    assert phil_alpha & fork_alpha == {event("pickup.0.0"), event("putdown.0.0")}
    fork = compile_term(
        DefEnv([Definition("F", (), ExtChoice((
            Prefix(event("pickup.0.0"), Prefix(event("putdown.0.0"), Call("F"))),
            Prefix(event("pickup.2.0"), Prefix(event("putdown.2.0"), Call("F"))),
        )))]),
        Call("F"),
    )
    phil = compile_term(env, Call("Phil", (Lit(0),)))
    prod = parallel_lts(phil, phil_alpha, fork, fork_alpha)
    # shared events appear only once per step (synchronised)
    shared_labels = [
        l for row in prod.trans for (l, _t) in row
        if l in (event("pickup.0.0"), event("putdown.0.0"))
    ]
    assert shared_labels  # they do happen, jointly
    assert prod.n_states > phil.n_states  # interleaving with the fork's side


def test_alphabet_violation_rejected():
    p = compile_term(ENV, Prefix(A, STOP))
    with pytest.raises(AlphabetViolation):
        parallel_lts(p, frozenset({B}), p, frozenset({A, B}))
    with pytest.raises(AlphabetViolation):
        check_alphabet(p, frozenset({B}))


def test_parallel_commutative_and_associative():
    sigma = frozenset({A, B, C})
    p = compile_term(ENV, Prefix(A, Prefix(B, STOP)))
    q = compile_term(ENV, ExtChoice((Prefix(B, STOP), Prefix(C, STOP))))
    r = compile_term(ENV, Prefix(C, Prefix(A, STOP)))
    aa, ab, ac = frozenset({A, B}), frozenset({B, C}), frozenset({C, A})
    pq = parallel_lts(p, aa, q, ab)
    qp = parallel_lts(q, ab, p, aa)
    assert diff_behaviours(
        lts_behaviours(pq, sigma, 6), lts_behaviours(qp, sigma, 6), 6
    ) is None
    left = parallel_lts(pq, aa | ab, r, ac)
    right = parallel_lts(p, aa, parallel_lts(q, ab, r, ac), ab | ac)
    assert diff_behaviours(
        lts_behaviours(left, sigma, 6), lts_behaviours(right, sigma, 6), 6
    ) is None


def test_hide_then_compile_equals_compile_then_hide():
    sigma = frozenset({A, B, C})
    term = ExtChoice((Prefix(A, Prefix(B, STOP)), Prefix(C, SKIP)))
    hidden = frozenset({A})
    via_term = compile_term(ENV, Hide(term, hidden))
    via_lts = hide_lts(compile_term(ENV, term), hidden)
    assert diff_behaviours(
        lts_behaviours(via_term, sigma, 6), lts_behaviours(via_lts, sigma, 6), 6
    ) is None


# ---------------------------------------------------------------------------
# hash-consing: equal terms are one object


@pytest.mark.parametrize("source", [
    models.philosophers_source(3), models.leadership_source(2), models.ring_buffer_source(3),
], ids=["philosophers", "leadership", "ringbuffer"])
def test_elaborating_a_model_twice_gives_the_same_term_objects(source):
    first, second = (elaborate(parse_network(source)) for _ in range(2))
    for a, b in zip(first.components, second.components, strict=True):
        assert a.env is not b.env
        assert a.term is b.term
        assert len(a.compiled().terms) == len(b.compiled().terms) > 1
        assert all(x is y for x, y in zip(a.compiled().terms, b.compiled().terms))


def test_binding_under_two_environments_gives_the_same_term_objects():
    x = Var("x")
    source = IndexedChoice(
        "[]", "x", (("range", Lit(0), Lit(2)),),
        Prefix(EventTemplate("c", (x,)), Seq(Call("P", (x,)), SKIP)),
    )
    envs = [DefEnv([Definition("P", ("x",), Prefix(EventTemplate("d", (x,)), STOP))])
            for _ in range(2)]
    a, b = (bind(source, {}, env) for env in envs)
    assert type(a) is ExtChoice and len(a.items) == 3
    assert a is b
    assert envs[0].expand("P", (1,)) is envs[1].expand("P", (1,))


def test_generating_a_spec_twice_gives_the_same_term_objects():
    net = elaborate(parse_network(models.philosophers_source(3)))
    desc = parse_descriptor(models.philosophers_descriptor(3), net)
    for role, name in [("resource", "Fork.0"), ("user", "APhil.2")]:
        (env1, term1), (env2, term2) = (generate_spec(desc, role, name) for _ in range(2))
        assert env1 is not env2
        assert term1 is term2
        assert env1.definitions.keys() == env2.definitions.keys()
        for key, d in env1.definitions.items():
            assert d.body is env2.definitions[key].body


def test_terms_differing_in_one_field_are_different_objects():
    assert Prefix(A, STOP) is Prefix(A, STOP)
    assert Prefix(A, STOP) is not Prefix(B, STOP)
    assert Prefix(A, STOP) is not Prefix(A, SKIP)
    assert Call("P") is Call("P", ())
    assert Call("P", (1,)) is not Call("P", (2,))
    assert Call("P", (1,)) is not Call("Q", (1,))
    assert ExtChoice((STOP, SKIP)) is not IntChoice((STOP, SKIP))
    assert ExtChoice((STOP, SKIP)) is not ExtChoice((SKIP, STOP))
    assert Hide(STOP, frozenset({A})) is not Hide(STOP, frozenset({B}))
    assert Prefix(A, STOP) != Prefix(B, STOP)


def test_terms_are_immutable_and_copy_and_print_as_themselves():
    term = Prefix(A, ExtChoice((Call("P", (1,)), SKIP)))
    with pytest.raises(AttributeError):
        term.cont = SKIP
    assert term.cont is ExtChoice((Call("P", (1,)), SKIP))
    assert copy.copy(term) is copy.deepcopy(term) is pickle.loads(pickle.dumps(term)) is term
    assert repr(Prefix(A, STOP)) == f"Prefix(event={A}, cont=Stop())"
    sugar = _InputPrefix(EventTemplate("c", (Var("x"),)), (("x", 0),), STOP)
    assert str(sugar) == repr(sugar) == (
        "_InputPrefix(event=EventTemplate(head='c', fields=(Var(name='x'),)), "
        "inputs=(('x', 0),), cont=Stop())"
    )
