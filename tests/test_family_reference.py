"""Family members renamed from their owner, against each
component compiled and checked on its own.

`dsl.elaborate` groups the calls that one sharing walk per called
definition finds of one shape into families, and their members by
signature: the first
member of a signature compiled is compiled and owns it, every later one is
the owner's LTS with its labels renamed, and liveness, abstraction and
divergence are judged once per owner.  The reference is
the per-instance path: `compile_term` on the component's own term, the
liveness searches on that LTS, and the hide-and-quotient abstraction of
it.  Every component of every corpus model must agree with it: the same
initial state, transitions and state names, the same liveness witnesses,
the same abstraction and the same divergence verdict.  The adversarial
models must be refused a family or have the named members compile on
their own, with the errors a family-less component raises.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bundled
import dpa
import dpa.cli
import dpa.dsl
from conftest import random_live_network
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import EVENTS, event
from dpa.lts import Lts, StateLimitExceeded, bisim_quotient, compile_term, hide_lts, rename_lts
from dpa.network import (
    CompileFailure,
    Component,
    InputError,
    Network,
    _Family,
    abs_divergent,
    abs_lts,
    check_live,
    find_cycle,
)
from dpa.oracle import explore_global
from dpa.patterns import check_pattern, parse_descriptor
from dpa.report import PROVEN, run_dpa
from dpa.semantics import component_deadlocks, first_tick_trace
from dpa.terms import (
    BinOp, Call, DefEnv, Definition, EventTemplate, FunCall, IndexedChoice, Lit, Prefix, Var)

HERE = Path(__file__).resolve().parent


def own_lts(comp):
    return comp.lts if comp.lts is not None else compile_term(comp.env, comp.term)


def names(lts):
    return [lts.state_name(s) for s in range(lts.n_states)]


def renamed(comp):
    """Whether ``comp`` took its LTS from another member, its owner."""
    return comp._share is not None and comp._share[1] is not None


def diff_network(net, order=None):
    """Compile the components in ``order`` (all of them, ascending, by
    default), then check liveness and abstract every component, and diff
    each result against the per-instance path; the names of the members
    renamed."""
    order = range(len(net)) if order is None else order
    got = {i: net[i].compiled() for i in order}
    live = check_live(net)
    abstractions = [abs_lts(net, i) for i in range(len(net))]
    divergent = [abs_divergent(net, i) for i in range(len(net))]
    for i, comp in enumerate(net.components):
        g, want = got[i], own_lts(comp)
        assert (g.initial, g.trans) == (want.initial, want.trans), comp.name
        assert g.n_states == want.n_states, comp.name
        if want.terms is not None:
            assert all(x is y for x, y in zip(g.terms, want.terms, strict=True)), comp.name
            assert names(g) == names(want), comp.name
        assert live.busy[i].trace == component_deadlocks(want), comp.name
        assert live.non_terminating[i].trace == first_tick_trace(want), comp.name
        ref = bisim_quotient(hide_lts(want, comp.alphabet - net.voc))
        a = abstractions[i]
        assert (a.initial, a.trans) == (ref.initial, ref.trans), comp.name
        assert (a.terms is None) == (ref.terms is None), comp.name
        if ref.terms is not None:
            assert names(a) == names(ref), comp.name
        taus = [ref.taus(s) for s in range(ref.n_states)]
        assert divergent[i] == (find_cycle(taus) is not None), comp.name
    return [c.name for c in net.components if renamed(c)]


# ---------------------------------------------------------------------------
# the corpus


FAMILY_HEADER = """\
version 1
const N = {n}
channel a : {{0..N-1}}.{{0..N-1}}
channel b : {{0..N-1}}
fun next(i) = (i + 1) % N
fun prev(i) = (i - 1) % N
"""


def random_family_source(rng, n):
    """A model of one definition ``P(id)`` built at random from prefixes
    over ``a`` and ``b``, choices, replicated choices over sets that may
    collapse for some ids, constant guards and sequences, called at every
    id in ``0..n-1``."""
    values = ["id", "next(id)", "prev(id)", "0", "N-1"]
    fields = [*values[:4], "(N - 1)"]

    def event(scope):
        pick = [*fields, *scope]
        if rng.random() < 0.6:
            return f"a.{rng.choice(pick)}.{rng.choice(pick)}"
        return f"b.{rng.choice(pick)}"

    def process(depth, scope):
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            return rng.choice(["P(id)"] * 6 + ["STOP", "SKIP"])
        if roll < 0.5:
            return f"{event(scope)} -> {process(depth - 1, scope)}"
        if roll < 0.6:
            return f"({process(depth - 1, scope)} [] {process(depth - 1, scope)})"
        if roll < 0.7:
            return f"({process(depth - 1, scope)} |~| {process(depth - 1, scope)})"
        if roll < 0.85:
            var = f"v{len(scope)}"
            items = ", ".join(rng.sample(values, rng.randint(1, 3)))
            op = rng.choice(["[]", "[]", "|~|"])
            body = f"{event(scope + [var])} -> {process(depth - 1, scope + [var])}"
            return f"({op} {var} : {{{items}}} @ {body})"
        if roll < 0.92:
            return f"(N > 2 & {event(scope)} -> {process(depth - 1, scope)})"
        return f"((b.id -> SKIP) ; {process(depth - 1, scope)})"

    body = f"{event([])} -> {process(4, [])}"
    return FAMILY_HEADER.format(n=n) + (
        f"P(id) = {body}\n"
        "atom PA = alphabet {| a, b |} behaviour P(id)\n"
        "instance P = PA {0..N-1}\n"
    )


def special_sources():
    """Families whose verdicts or abstractions take the less common paths:
    a failing liveness verdict, a divergent abstraction, and members whose
    hidden events differ."""
    base = "version 1\nchannel a : {0..2}\nchannel b : {0..2}\n"
    atom = "atom PA = alphabet {| a.id, b.id |} behaviour P(id)\ninstance P = PA {0..2}\n"
    return {
        "deadlocking": base + "P(id) = a.id -> b.id -> STOP\n" + atom,
        "terminating": base + "P(id) = a.id -> (SKIP [] b.id -> P(id))\n" + atom,
        "divergent": base + "P(id) = a.id -> P(id) [] b.id -> STOP\n" + atom,
        "uneven-vocabulary": base + "P(id) = a.id -> b.id -> P(id)\nQ = a.0 -> b.1 -> Q\n"
        + atom + "atom QA = alphabet { a.0, b.1 } behaviour Q\ninstance Q = QA\n",
    }


def corpus():
    out = [(name, build()) for name, build in bundled.BUNDLED.items() if name.endswith(".net")]
    for n in range(1, 9):
        out.append((f"philosophers({n})", models.philosophers_source(n)))
        out.append((f"philosophers({n}, symmetric)", models.philosophers_source(n, True)))
    out += [(f"leadership({n})", models.leadership_source(n)) for n in range(2, 6)]
    out += [(f"ring_buffer({n})", models.ring_buffer_source(n)) for n in range(2, 7)]
    out += list(special_sources().items())
    rng = random.Random(2026)
    out += [(f"random_family[{k}]", random_family_source(rng, rng.randint(1, 4)))
            for k in range(60)]
    return out


CORPUS = corpus()


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_members_match_their_own_compilation(source):
    net = elaborate(parse_network(source))
    diff_network(net)
    # later owners: the last member of each family compiles first
    diff_network(elaborate(parse_network(source)), order=range(len(net) - 1, -1, -1))


def test_most_members_take_the_shared_path():
    shared = {}
    for name, source in CORPUS:
        kind = name.split("[")[0].split("(")[0]
        shared[kind] = shared.get(kind, 0) + len(diff_network(elaborate(parse_network(source))))
    # every philosophers member but the owners: 112 over sizes 1..8, the
    # asymmetric APhil renamed from Phil's owner, which is of its shape
    assert shared["philosophers"] == 112
    # 52 of the 139 random members are renamed; each of the others owns a
    # signature, its choice sets or templates coinciding at ids where no
    # earlier member's do (``{id, 0}`` at id 0, say)
    assert shared["random_family"] >= 52
    assert sum(shared.values()) >= 160


def test_philosophers_300_renames_all_but_one_member_per_family():
    net = elaborate(parse_network(models.philosophers_source(300)))
    assert diff_network(net) == (
        [f"Phil.{i}" for i in range(1, 299)] + ["APhil.299"] + [f"Fork.{i}" for i in range(1, 300)])


@pytest.mark.parametrize("n", range(2, 6))
def test_leadership_renames_every_node_and_bus_from_the_first(n):
    """Written once per instance, the nodes are one sharing shape and the
    buses another."""
    net = elaborate(parse_network(models.leadership_source(n)))
    assert diff_network(net) == [c.name for c in net.components
                                 if c.name not in ("Node.0", "Bus.0.1")]


def test_a_leadership_run_compiles_two_owners_and_two_spec_shapes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_term(*args)

    for module in (dpa.network, dpa.patterns):
        monkeypatch.setattr(module, "compile_term", counted)
    net = elaborate(parse_network(models.leadership_source(7)))
    desc = parse_descriptor(models.leadership_descriptor(7), net)
    assert run_dpa(net, [desc]).overall == PROVEN
    assert [args[1] for args in calls[:2]] == [Call("Node0"), Call("BusOff01")]
    assert len(calls) == 4


def test_the_walk_runs_once_per_definition_and_arity(monkeypatch):
    """When an atom is first planned, never per instance or per compile."""
    walks = []
    original = dpa.dsl._shape

    def counted(env, name, arity):
        walks.append((name, arity))
        return original(env, name, arity)

    monkeypatch.setattr(dpa.dsl, "_shape", counted)
    net = elaborate(parse_network(models.philosophers_source(300)))
    assert sorted(walks) == [("APhil", 1), ("Fork", 1), ("Phil", 1)]
    for comp in net.components:
        comp.compiled()
    assert len(walks) == 3
    walks.clear()
    net = elaborate(parse_network(models.leadership_source(5)))
    for comp in net.components:
        comp.compiled()
    # one atom per node and per bus, each calling a definition of its own
    assert sorted(walks) == sorted({(c.term.name, 0) for c in net.components})
    assert len(walks) == len(net) == 25


MODEL_HEADER = """\
version 1
const N = 3
channel a : {0..2}.{0..2}
channel b : {0..2}
channel c : {0..2}
fun nx(i) = (i + 1) % N
"""


def random_model_source(seed):
    """Definitions ``P`` and ``Q`` of 0 to 2 parameters, built at random
    from prefixes, inputs, choices, replicated choices, guards on the
    parameters and calls to each other at argument expressions, each
    written twice (``P2``, ``Q2``: the same body, calling the twins, its
    event literals 0 and 1 swapped at random), and atoms calling either
    at ``id``-dependent or constant arguments."""
    rng = random.Random(seed)
    arity = {d: rng.randint(0, 2) for d in "PQ"}

    def body(brng, twin, swap):
        def expr(names):
            e = brng.choice([*names, "0", "1", "(N-1)"])
            return f"nx({e})" if names and brng.random() < 0.3 else e

        def lit(e):
            return {"0": "1", "1": "0"}.get(e, e) if swap else e

        def call(names):
            d = brng.choice("PQ")
            args = ", ".join(expr(names) for _ in range(arity[d]))
            return d + twin + (f"({args})" if args else "")

        def process(depth, names):
            roll = brng.random()
            if depth == 0 or roll < 0.2:
                return call(names)
            if roll < 0.35:
                x = f"x{depth}"
                return f"c?{x} -> {process(depth - 1, [*names, x])}"
            if roll < 0.6:
                return f"a.{lit(expr(names))}.{lit(expr(names))} -> {process(depth - 1, names)}"
            if roll < 0.7:
                return f"({process(depth - 1, names)} [] {process(depth - 1, names)})"
            if roll < 0.75:
                return f"({process(depth - 1, names)} |~| {process(depth - 1, names)})"
            if roll < 0.85:
                v = f"v{depth}"
                items = ", ".join(brng.sample([*names, "0", "1", "2"], 2))
                return f"([] {v} : {{{items}}} @ b.{v} -> {process(depth - 1, [*names, v])})"
            return f"({expr(names)} == {brng.choice('012')} & b.{lit(expr(names))} -> {process(depth - 1, names)})"

        return process

    lines = []
    for d in "PQ":
        params = [f"p{i}" for i in range(arity[d])]
        head = d + (f"({', '.join(params)})" if params else "")
        shape = rng.random()  # both copies draw the same body from it
        for twin, swap in (("", False), ("2", rng.random() < 0.5)):
            process = body(random.Random(shape), twin, swap)
            lines.append(f"{head.replace(d, d + twin, 1)} = b.0 -> {process(4, params)}")
    for k in range(rng.randint(2, 4)):
        d = rng.choice(["P", "Q", "P2", "Q2"])
        args = ", ".join(rng.choice(["id", "0", "1", "nx(id)"]) for _ in range(arity[d[0]]))
        call = d + (f"({args})" if args else "")
        lines.append(f"atom A{k} = alphabet {{| a, b, c |}} behaviour {call}\ninstance I{k} = A{k} {{0..2}}")
    return MODEL_HEADER + "\n".join(lines) + "\n"


RANDOM_MODELS = range(60)


@pytest.mark.parametrize("seed", RANDOM_MODELS)
def test_random_models_of_several_definitions_match_their_own_compilation(seed):
    """Verbatim parameters, inputs, calls between definitions, and twins
    that share an owner across definitions."""
    source = random_model_source(seed)
    net = elaborate(parse_network(source))
    diff_network(net)
    diff_network(elaborate(parse_network(source)), order=range(len(net) - 1, -1, -1))


def test_random_models_share_owners_across_definitions():
    shared = across = 0
    for seed in RANDOM_MODELS:
        net = elaborate(parse_network(random_model_source(seed)))
        diff_network(net)
        owners = {id(c._share[0]): c.term.name for c in net.components if not renamed(c)}
        members = [c for c in net.components if renamed(c)]
        shared += len(members)
        across += sum(owners[id(c._share[0])] != c.term.name for c in members)
    # 329 members renamed, 61 of them from a twin's owner
    assert shared >= 300 and across >= 50


@pytest.mark.parametrize("seed", range(40))
def test_random_live_networks_take_the_plain_path(seed):
    net = random_live_network(random.Random(seed), max_components=5, max_states=6)
    assert diff_network(net) == []


# ---------------------------------------------------------------------------
# rows renamed on their first read


def pending(lts):
    """Whether ``lts`` is a renaming whose rows have not been built yet."""
    return "_pending" in lts.__dict__


def eager(lts, phi, terms):
    """The renaming as it was made before rows were renamed on read: all
    rows at once, with the given terms."""
    renamed = rename_lts(lts, {a: (b,) for a, b in phi.items()})
    return Lts(renamed.initial, renamed.trans, terms)


def assert_same(got, want, name):
    assert (got.initial, got.trans) == (want.initial, want.trans), name
    assert names(got) == names(want), name


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_lazy_members_equal_their_eager_renaming(source):
    net = elaborate(parse_network(source))
    check_live(net)
    for i in range(len(net)):
        abs_divergent(net, i)
    members = [i for i, c in enumerate(net.components) if renamed(c)]
    for i in members:
        comp = net[i]
        owner, phi = comp._share
        lts, abstraction = comp.compiled(), abs_lts(net, i)
        # compiling, liveness that holds and divergence read no member's
        # rows, nor does reading its terms
        assert lts.terms is not None
        assert pending(lts) == (owner.live == (None, None)), comp.name
        assert pending(abstraction), comp.name
        shared = net.entries[i][0]
        terms = None if shared.terms is None else lts.terms
        want_abs = eager(shared, phi, terms)
        want = eager(owner.lts, phi, lts.terms)
        assert_same(abstraction, want_abs, comp.name)
        assert_same(lts, want, comp.name)
        # the rows, once built, no longer hold what they were built from
        assert not pending(lts) and not pending(abstraction), comp.name
        assert lts == want and abstraction == want_abs, comp.name


def test_equality_and_repr_read_the_rows():
    net = elaborate(parse_network(models.philosophers_source(3)))
    rep, member = net[0].compiled(), net[1].compiled()
    assert pending(member)
    want = eager(rep, net[1]._share[1], member.terms)
    assert member == want
    assert not pending(member)
    other = elaborate(parse_network(models.philosophers_source(3)))
    other[0].compiled()
    lazy = other[1].compiled()
    assert repr(lazy).startswith("Lts(initial=0, trans=((")
    assert not pending(lazy)
    with pytest.raises(AttributeError):
        lazy.rows


def test_a_proven_run_renames_only_the_rows_it_refines(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rename_lts(*args)

    for module in (dpa.lts, dpa.decomposition):
        monkeypatch.setattr(module, "rename_lts", counted)
    net = elaborate(parse_network(models.philosophers_source(50)))
    desc = parse_descriptor(models.philosophers_descriptor(50), net)
    assert run_dpa(net, [desc]).overall == PROVEN
    # all but the owners of Phil(id), which APhil.49 shares, and Fork(id);
    # only APhil.49's refinement is not the image of one that passed
    assert sum(renamed(c) for c in net.components) == 98
    assert [lts.n_states for lts, _phi in calls] == [7]
    calls.clear()
    # the oracle reads the rows of every member: Phil.1-4, APhil.5 and
    # Fork.1-5
    free = explore_global(elaborate(parse_network(models.philosophers_source(6))))
    assert free.states_explored == 40250
    assert len(calls) == 10
    net = elaborate(parse_network(models.philosophers_source(6, True)))
    plain_net = Network(
        [Component(c.name, c.alphabet, lts=compile_term(c.env, c.term)) for c in net.components],
        sigma=net.sigma)
    witness = explore_global(net)
    assert witness.to_json(net) == explore_global(plain_net).to_json(plain_net)
    assert [dpa.events.EVENTS.name(e) for e in witness.trace] == [
        f"{e}.{i}" + f".{i}" * (e == "pickup") for i in range(6) for e in ("sit", "pickup")]


DIVERGENT_MEMBERS = """\
version 1
channel priv : {0..2}
channel acq : {0..2}
channel rel : {0..2}
P(id) = priv.id -> P(id) [] acq.id -> rel.id -> P(id)
R(id) = acq.id -> rel.id -> R(id)
atom PA = alphabet {| priv.id, acq.id, rel.id |} behaviour P(id)
atom RA = alphabet {| acq.id, rel.id |} behaviour R(id)
instance P = PA {0..2}
instance R = RA {0..2}
"""


def test_divergent_members_warn_as_each_component_would():
    """Each user hides its private ``priv.id``, a loop, so each member's
    abstraction diverges; judged through the family, with the member's
    own abstraction never built."""
    net = elaborate(parse_network(DIVERGENT_MEMBERS))
    doc = {
        "schema": 1, "pattern": "resource-allocation",
        "connections": [{"user": f"P.{i}", "resource": f"R.{i}", "acquire": f"acq.{i}",
                         "release": f"rel.{i}"} for i in range(3)],
        "order": {f"P.{i}": [f"R.{i}"] for i in range(3)},
        "resource_order": [f"R.{i}" for i in range(3)],
    }
    desc = parse_descriptor(doc, net)
    want = {}
    for comp in net.components:
        ref = bisim_quotient(hide_lts(own_lts(comp), comp.alphabet - net.voc))
        want[comp.name] = find_cycle([ref.taus(s) for s in range(ref.n_states)]) is not None
    assert want == {f"{p}.{i}": p == "P" for p in "PR" for i in range(3)}
    got = {c.name: abs_divergent(net, i) for i, c in enumerate(net.components)}
    assert got == want
    members = [i for i, c in enumerate(net.components) if renamed(c)]
    assert [net[i].name for i in members] == ["P.1", "P.2", "R.1", "R.2"]
    assert all(pending(abs_lts(net, i)) for i in members)
    warnings = [f"abstraction of {name} diverges; its stable checks are vacuous"
                for name in sorted(desc.components()) if want[name]]
    assert list(check_pattern(desc, net, desc.components()).warnings) == warnings


# ---------------------------------------------------------------------------
# refused or falling back


def adversarial(body, alphabet="{| a |}", ids="{0..2}", extra=""):
    return (
        "version 1\nchannel a : {0..3}\nchannel b : {0..3}\nchannel c : {0..3}\n"
        f"fun fix(i) = i % 3\n{extra}P(id) = {body}\n"
        f"atom PA = alphabet {alphabet} behaviour P(id)\ninstance P = PA {ids}\n"
    )


# bodies the parent refused a family
NOT_EVENT_ONLY = {
    "guard-reads-the-parameter": adversarial("id == 0 & a.id -> P(id) [] a.id -> P(id)"),
    "self-call-changes-its-argument": adversarial("a.id -> P((id + 1) % 3)"),
    "call-passes-a-choice-variable": adversarial("[] i : {id, 0} @ a.i -> P(i)"),
    "choice-variable-shadows-the-parameter":
        adversarial("([] id : {0, 1} @ a.id -> STOP) [] a.id -> P(id)"),
    "choice-set-reads-a-choice-variable":
        adversarial("[] i : {0..2} @ ([] j : {i} @ a.j -> P(id))"),
    "hiding": adversarial("(a.id -> P(id)) \\ {a.id}"),
    "call-to-another-definition": adversarial("a.id -> Q(id)", extra="Q(id) = a.id -> P(id)\n"),
}
# those the walk makes a family of, and the members renamed: a choice
# variable that shadows the parameter is one more choice, and so is one
# over a set that reads another choice's variable, whose events are all
# of ``a`` at each member; the others read the parameter outside event
# fields, so the walk keeps it verbatim and each member is a group of its
# own, or they hide events
SHARED_NOW = {"choice-variable-shadows-the-parameter": [],
              "choice-set-reads-a-choice-variable": ["P.1", "P.2"]}
STILL_ALONE = [name for name in NOT_EVENT_ONLY if name not in SHARED_NOW]


@pytest.mark.parametrize("name", STILL_ALONE, ids=STILL_ALONE)
def test_definitions_that_are_not_event_only_form_no_family(name):
    net = elaborate(parse_network(NOT_EVENT_ONLY[name]))
    assert all(c.family is None for c in net.components)
    assert diff_network(net) == []


@pytest.mark.parametrize("name", SHARED_NOW, ids=SHARED_NOW.keys())
def test_choices_the_parent_refused_form_a_family(name):
    net = elaborate(parse_network(NOT_EVENT_ONLY[name]))
    assert all(c.family is not None for c in net.components)
    assert diff_network(net) == SHARED_NOW[name]


def test_a_body_with_ground_events_forms_no_family():
    body = Prefix(event("ground.0"), Call("P", (Var("x"),)))
    env = DefEnv([Definition("P", ("x",), body)])
    net = Network([Component(f"P.{i}", frozenset({event("ground.0")}), Call("P", (i,)), env)
                   for i in range(2)])
    assert all(c.family is None for c in net.components)
    assert diff_network(net) == []


FALLING_BACK = {
    # {id, 1} collapses at id = 1
    "choice-set-collapses":
        (adversarial("[] i : {id, 1} @ a.i -> b.i -> P(id)", "{| a, b |}"), ["P.2"]),
    # a.id and a.1 coincide at id = 1, which would merge two states
    "templates-coincide": (adversarial(
        "b.id -> a.id -> P(id) [] c.id -> a.1 -> P(id)", "{| a, b.id, c.id |}"), ["P.2"]),
    # P.1 maps a.1 at both templates, a signature of its own: P.0 owns the
    # other one, and P.2 is renamed from it
    "representative-templates-coincide": (adversarial(
        "b.id -> a.id -> P(id) [] c.id -> a.1 -> P(id)", "{| a, b.id, c.id |}", "{1, 0, 2}"),
        ["P.2"]),
    # {id, id % 2} collapses at ids 0 and 1: two signatures of two members
    "two-signatures": (adversarial(
        "[] i : {id, id % 2} @ a.i -> b.i -> P(id)", "{| a, b |}", "{0..3}"), ["P.1", "P.3"]),
}


@pytest.mark.parametrize("source, shared", FALLING_BACK.values(), ids=FALLING_BACK.keys())
def test_members_whose_renaming_fails_compile_on_their_own(source, shared):
    net = elaborate(parse_network(source))
    assert all(c.family is not None for c in net.components)
    assert diff_network(net) == shared


EAGER_HEADER = """\
version 1
const N = 3
channel a : {0..N-1}
channel b : {0..10}
channel dead : {0..3}
"""
B_READER = "Q = b?x -> Q\natom QA = alphabet {| b |} behaviour Q\ninstance Q = QA\n"

# bodies whose fields the elaborator evaluates for every member, though
# only a branch that never fires, or fires only where they evaluate, reads
# them; and what ``dpa check`` makes of each: its exit code and output
EAGER = {
    # 10 / id fails at P.0 alone, which compiles on its own; P.2 is renamed
    "zero-divisor-under-a-false-guard": (EAGER_HEADER + B_READER + (
        "P(id) = a.id -> P(id) [] N > 5 & b.(10 / id) -> P(id)\n"
        "atom PA = alphabet {| a.id |} behaviour P(id)\ninstance P = PA {0..N-1}\n"),
        ["P.2"], 0, "liveness: ok\ndecomposition: 0 bridge(s), 0 removed, "
        "4 essential subnetwork(s)\noverall: PROVEN\n"),
    # the guard reads the parameter, so no family forms; the guard is false
    # only at P.0, where the field fails, and P.1's b.10 leaves its alphabet
    "zero-divisor-under-a-guard-on-id": (EAGER_HEADER + B_READER + (
        "P(id) = a.id -> P(id) [] id > 0 & b.(10 / id) -> P(id)\n"
        "atom PA = alphabet {| a.id |} behaviour P(id)\ninstance P = PA {0..N-1}\n"),
        None, 2, "error: component 'P.1' has transitions outside the declared alphabet: "
        "b.10\n"),
    # dead.7 to dead.9 lie outside their channel, are never interned, and
    # leave every member without a signature
    "out-of-domain-event-in-a-dead-branch": (EAGER_HEADER + (
        "P(id) = a.id -> P(id) [] N > 5 & dead.(id + 7) -> P(id)\n"
        "atom PA = alphabet {| a.id |} behaviour P(id)\ninstance P = PA {0..N-1}\n"),
        [], 0, "liveness: ok\ndecomposition: 0 bridge(s), 0 removed, "
        "3 essential subnetwork(s)\noverall: PROVEN\n"),
}


@pytest.mark.parametrize("source, shared, code, output", EAGER.values(), ids=EAGER.keys())
def test_planning_member_bodies_adds_no_error(tmp_path, capsys, source, shared, code, output):
    net = elaborate(parse_network(source))
    if shared is None:
        assert all(c.family is None for c in net.components)
    else:
        assert all((c.family is not None) == (c.name != "Q") for c in net.components)
        assert diff_network(net) == shared
    assert all(EVENTS.lookup(f"dead.{v}") is None for v in range(7, 10))
    path = tmp_path / "model.net"
    path.write_text(source)
    capsys.readouterr()
    assert dpa.cli.main(["check", str(path)]) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err) == (f"model: {path}\n" if code == 0 else "") + output


GROUND_HEADER = """\
version 1
const N = 1
channel a : {0..1}.{0..1}.{0..1}
channel b : {0..1}.{0..2}
channel c : {0..1}.{0..1}
channel d : {0..1}.{1..3}
channel e : {0..1}.{2, 1, 0}
"""


def grounded(definitions, alphabets):
    """A model of the given definitions with one instance of each call in
    ``alphabets``, which maps it to its alphabet."""
    atoms = "".join(f"atom {p}A = alphabet {alpha} behaviour {p}\ninstance {p} = {p}A\n"
                    for p, alpha in alphabets.items())
    return GROUND_HEADER + definitions + atoms


GROUND = {
    # P's ground a.0.1.0 is also its head's a.0.1?d at d = 0, which Q's is
    # not: a signature of its own; R overlaps as P does, and is renamed
    "overlap": (grounded(
        "P = a.0.1!0 -> P [] a.0.1?d -> c.0.d -> P\n"
        "Q = a.1.0!1 -> Q [] a.0.0?d -> c.1.d -> Q\n"
        "R = a.1.1!0 -> R [] a.1.1?d -> c.1.d -> R\n",
        {"P": "{| a.0.1, c.0 |}", "Q": "{| a.1.0, a.0.0, c.1 |}", "R": "{| a.1.1, c.1 |}"}),
        ["R"]),
    # one literal each, over channels whose remaining fields have as many
    # values, not the same ones: only P can take x == 0; R reads P's
    # channel, and is renamed
    "remaining-domains-differ": (grounded(
        "P = b.0?x -> (x == 0 & P)\nQ = d.0?x -> (x == 0 & Q)\nR = b.1?x -> (x == 0 & R)\n",
        {"P": "{| b.0 |}", "Q": "{| d.0 |}", "R": "{| b.1 |}"}), ["R"]),
    # the same values in another order: completing the heads over their
    # channels' fields would pair b.0.0 with e.0.2, which is not where
    # y == 0 leads, but each event is named at each value of y, so Q is
    # renamed as well
    "remaining-domains-reordered": (grounded(
        "P = [] y : {0..2} @ b.0.y -> (y == 0 & P)\n"
        "Q = [] y : {0..2} @ e.0.y -> (y == 0 & Q)\n"
        "R = [] y : {0..2} @ b.1.y -> (y == 0 & R)\n",
        {"P": "{| b.0 |}", "Q": "{| e.0 |}", "R": "{| b.1 |}"}), ["Q", "R"]),
    "guards-differ": (grounded(
        "P = N > 0 & a.0.0.0 -> P [] a.0.0.1 -> P\n"
        "Q = N > 1 & a.1.0.0 -> Q [] a.1.0.1 -> Q\n",
        {"P": "{| a.0.0 |}", "Q": "{| a.1.0 |}"}), []),
    "call-arguments-differ": (grounded(
        "P = a.0.0.0 -> PN(0)\nPN(x) = x == 0 & a.0.0.1 -> P [] x == 1 & a.0.1.1 -> P\n"
        "Q = a.1.0.0 -> QN(1)\nQN(x) = x == 0 & a.1.0.1 -> Q [] x == 1 & a.1.1.1 -> Q\n",
        {"P": "{| a.0 |}", "Q": "{| a.1 |}"}), []),
    "hiding": (grounded(
        "P = a.0.0.0 -> PH\nPH = (a.0.0.1 -> PH) \\ {a.0.0.1}\n"
        "Q = a.1.0.0 -> QH\nQH = (a.1.0.1 -> QH) \\ {a.1.0.1}\n",
        {"P": "{| a.0.0 |}", "Q": "{| a.1.0 |}"}), []),
    "renaming": (grounded(
        "P = a.0.0.0 -> PR\nPR = (a.0.0.1 -> PR) [[a.0.0.1 <- a.0.1.1]]\n"
        "Q = a.1.0.0 -> QR\nQR = (a.1.0.1 -> QR) [[a.1.0.1 <- a.1.1.1]]\n",
        {"P": "{| a.0 |}", "Q": "{| a.1 |}"}), []),
}


@pytest.mark.parametrize("source, shared", GROUND.values(), ids=GROUND.keys())
def test_ground_definitions_share_only_a_source_shape(source, shared):
    net = elaborate(parse_network(source))
    assert diff_network(net) == shared
    diff_network(elaborate(parse_network(source)), order=range(len(net) - 1, -1, -1))


def test_a_ground_member_whose_image_leaves_its_alphabet_raises_as_compiling_would():
    # S only interns a.1.0.0, in a shape of its own
    source = grounded("P = a.0.0.0 -> P\nQ = a.1.0.0 -> Q\nS = a.1.0.0 -> a.1.0.0 -> S\n",
                      {"P": "{ a.0.0.0 }", "Q": "{ a.0.0.0 }", "S": "{ a.1.0.0 }"})
    net = elaborate(parse_network(source))
    net[0].compiled()
    member = net[1]
    assert member.family.claim(member)[1] == net[0].family.claim(net[0])[1]
    got = error_of(member.compiled)
    assert got == error_of(plain(member).compiled)
    assert got == (InputError, "component 'Q' has transitions outside the declared "
                               "alphabet: a.1.0.0")
    assert member._share is None


def test_a_ground_owner_with_labels_outside_its_events_owns_no_signature():
    """``a.(x + 1)`` over ``a``'s domain {0, 1} also makes ``a.2``, which
    members joined with the events ``a.0`` and ``a.1`` do not name, so φ
    would not map it: each call compiles on its own.  A hand-built network
    forms no family, so the members join one here."""
    env = DefEnv([Definition(p, (), IndexedChoice("[]", "x", (("field", "a", 0),), Prefix(
        EventTemplate("a", (BinOp("+", Var("x"), Lit(1)),)), Call(p)))) for p in "PQ"])
    env.channels = {"a": [[0, 1]]}
    alphabet = frozenset(map(event, ["a.0", "a.1", "a.2"]))
    net = Network([Component(p, alphabet, Call(p), env) for p in "PQ"])
    family = _Family()
    for comp in net.components:
        family.join(comp, ["a.0", "a.1"], ())
    assert net[0].family.claim(net[0])[1] == net[1].family.claim(net[1])[1] is not None
    assert diff_network(net) == []
    assert family.owners == {}


def plain(comp):
    """The same component outside any family."""
    return Component(comp.name, comp.alphabet, comp.term, comp.env)


def error_of(compile_it):
    with pytest.raises((CompileFailure, InputError)) as err:
        compile_it()
    return type(err.value), str(err.value)


def test_a_limit_below_the_representative_raises_as_compiling_would():
    net = elaborate(parse_network(models.philosophers_source(3)))
    rep = net[0].compiled()
    member = net[1]
    limit = rep.n_states - 1
    assert error_of(lambda: member.compiled(limit)) == error_of(
        lambda: plain(member).compiled(limit))
    with pytest.raises(CompileFailure) as err:
        member.compiled(limit)
    assert isinstance(err.value.cause, StateLimitExceeded)
    # exactly the owner's size is within the limit
    assert member.compiled(rep.n_states).trans == own_lts(member).trans
    assert renamed(member)


def test_a_member_with_an_event_outside_its_alphabet_raises_as_compiling_would():
    source = adversarial("a.id -> b.fix(id) -> P(id)", "{| a.id, b.id |}", "{0..3}")
    net = elaborate(parse_network(source))
    for comp in net.components[:3]:
        comp.compiled()
    assert [c.name for c in net.components if renamed(c)] == ["P.1", "P.2"]
    member = net[3]
    got = error_of(member.compiled)
    assert got == error_of(plain(member).compiled)
    assert got == (InputError, "component 'P.3' has transitions outside the declared "
                               "alphabet: b.0")
    assert member._share is None


def test_an_internal_error_while_planning_a_member_propagates(monkeypatch):
    """Only a DSL value error in a member's body fields makes it compile on
    its own; any other error while the elaborator evaluates them is a bug,
    and is not swallowed.  ``b.fix(id)`` is a field of the body alone."""
    source = adversarial("a.id -> b.fix(id) -> P(id)", "{| a.id, b |}")
    net = elaborate(parse_network(source))
    assert net[1].family.claim(net[1])[1] is not None
    original = dpa.dsl.eval_expr

    def broken(expr, bindings, env):
        if type(expr) is FunCall and expr.name == "fix":
            raise RuntimeError("bug in a member's fields")
        return original(expr, bindings, env)

    monkeypatch.setattr(dpa.dsl, "eval_expr", broken)
    with pytest.raises(RuntimeError, match="bug in a member's fields"):
        elaborate(parse_network(source))


def counted_evaluations(monkeypatch):
    """The expressions ``terms.eval_expr`` evaluates from now on."""
    calls = []
    original = dpa.terms.eval_expr

    def counted(expr, bindings, env):
        calls.append(expr)
        return original(expr, bindings, env)

    monkeypatch.setattr(dpa.terms, "eval_expr", counted)
    return calls


@pytest.mark.parametrize("source", [
    models.philosophers_source(4),
    # P.1 and P.3 fall back and compile on their own
    FALLING_BACK["two-signatures"][0],
], ids=["philosophers", "two-signatures"])
def test_a_renamed_member_compile_evaluates_nothing(monkeypatch, source):
    """Owners and members that fall back bind their terms; a renamed member
    reads the events the elaborator left it."""
    net = elaborate(parse_network(source))
    members = [c for c in net.components if c.family is not None]
    claims = {c.name: c.family.claim(c) for c in members}
    calls = counted_evaluations(monkeypatch)
    for comp in net.components:
        before = len(calls)
        comp.compiled()
        comp.compiled()
        assert (len(calls) == before) == renamed(comp), comp.name
    assert any(renamed(c) for c in members)
    assert {c.name: c.family.claim(c) for c in members} == claims


def test_philosophers_300_members_compile_without_evaluating(monkeypatch):
    net = elaborate(parse_network(models.philosophers_source(300)))
    owners = [net[0], net[300]]  # Phil.0, which APhil.299 shares, and Fork.0
    for comp in owners:
        comp.compiled()
    calls = counted_evaluations(monkeypatch)
    net[1].compiled()
    assert renamed(net[1]) and calls == []
    for comp in net.components:
        comp.compiled()
    assert calls == []
    assert [c for c in net.components if not renamed(c)] == owners


def test_member_terms_read_like_a_sequence():
    net = elaborate(parse_network(models.philosophers_source(4)))
    net[0].compiled()
    comp = net[2]
    terms, want = comp.compiled().terms, own_lts(comp).terms
    assert renamed(comp)
    assert len(terms) == len(want)
    assert terms[1:3] == want[1:3]
    assert terms[-1] is want[-1]
    assert list(terms) == list(want)


# ---------------------------------------------------------------------------
# interning


_INTERN_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_family_reference as ref
from dpa.dsl import elaborate, parse_network
from dpa.events import event
from dpa.events import EVENTS
from dpa.lts import compile_term
for _name, source in ref.CORPUS + ref.INTERNING:
    for comp in elaborate(parse_network(source)).components:
        try:
            comp.compiled() if sys.argv[2] == "family" else compile_term(comp.env, comp.term)
        except Exception:
            pass
print(json.dumps([EVENTS.name(e) for e in range(len(EVENTS._names))]))
"""

# members whose body names events nothing has interned yet
INTERNING = [
    ("uninterned", adversarial("a.id -> c.id -> P(id)")),
    ("uninterned-late", adversarial("a.id -> c.fix(id + 1) -> P(id)", "{| a |}", "{0..3}")),
    ("ground-uninterned", grounded("P = a.0.0.0 -> c.0.0 -> P\nQ = a.1.0.0 -> c.1.0 -> Q\n",
                                   {"P": "{ a.0.0.0 }", "Q": "{ a.1.0.0 }"})),
    *((name, source) for name, (source, _shared) in GROUND.items()),
    *((name, source) for name, (source, *_outcome) in EAGER.items()),
    *((f"random_model[{seed}]", random_model_source(seed)) for seed in RANDOM_MODELS),
]


def test_events_are_interned_in_the_same_order():
    package_root = str(Path(dpa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for mode in ("family", "plain"):
        proc = subprocess.run(
            [sys.executable, "-c", _INTERN_SCRIPT, str(HERE), mode],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) > 100
    assert runs[0] == runs[1]


_RUN_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import bundled
import dpa.dsl
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import EVENTS
from dpa.patterns import parse_descriptor
from dpa.report import run_dpa
if sys.argv[2] == "alone":
    shape = dpa.dsl._shape
    dpa.dsl._shape = lambda env, name, arity: arity and shape(env, name, arity) or None
runs = []
for name, build in bundled.BUNDLED.items():
    pattern = name[:-len(".net")] + ".pattern.json"
    if name.endswith(".net"):
        doc = bundled.BUNDLED[pattern]() if pattern in bundled.BUNDLED else None
        runs.append((build(), doc, True))
runs += [(models.leadership_source(n), models.leadership_descriptor(n), False) for n in (3, 4)]
summaries = []
for source, doc, oracle in runs:
    net = elaborate(parse_network(source))
    descs = [] if doc is None else [parse_descriptor(doc, net)]
    summaries.append(run_dpa(net, descs, with_oracle=oracle).summary())
print(json.dumps([summaries, EVENTS._names]))
"""


def test_a_run_interns_events_as_compiling_each_ground_call_alone():
    """Building and running each bundled model, with its descriptor and the
    oracle, and leadership at 3 and 4 nodes gives the same summaries and
    interns the same events in the same order whether or not calls without
    arguments share owners by the sharing walk."""
    package_root = str(Path(dpa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for mode in ("shared", "alone"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_SCRIPT, str(HERE), mode],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert len(runs[0][0]) == 8 and len(runs[0][1]) > 100
    assert runs[0] == runs[1]
