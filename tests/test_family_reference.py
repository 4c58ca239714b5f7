"""Family members renamed from their owner, against each
component compiled and checked on its own.

`network` groups the components that call one definition at event-only
values into families, and a family's members by signature: the first
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
from conftest import random_live_network
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.events import event
from dpa.lts import Lts, StateLimitExceeded, bisim_quotient, compile_term, hide_lts, rename_lts
from dpa.network import (
    CompileFailure,
    Component,
    InputError,
    Network,
    abs_divergent,
    abs_lts,
    check_live,
    find_cycle,
)
from dpa.oracle import explore_global
from dpa.patterns import check_pattern, parse_descriptor
from dpa.report import PROVEN, run_dpa
from dpa.semantics import component_deadlocks, first_tick_trace
from dpa.terms import Call, DefEnv, Definition, Prefix, Var

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
    # every philosophers member but the owners: 105 over sizes 1..8
    assert shared["philosophers"] == 105
    # 52 of the 139 random members are renamed; each of the others owns a
    # signature, its choice sets or templates coinciding at ids where no
    # earlier member's do (``{id, 0}`` at id 0, say)
    assert shared["random_family"] >= 52
    assert sum(shared.values()) >= 160


def test_philosophers_300_renames_all_but_one_member_per_family():
    net = elaborate(parse_network(models.philosophers_source(300)))
    assert diff_network(net) == (
        [f"Phil.{i}" for i in range(1, 299)] + [f"Fork.{i}" for i in range(1, 300)])


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


def test_a_proven_run_renames_no_rows(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rename_lts(*args)

    for module in (dpa.lts, dpa.decomposition):
        monkeypatch.setattr(module, "rename_lts", counted)
    net = elaborate(parse_network(models.philosophers_source(50)))
    desc = parse_descriptor(models.philosophers_descriptor(50), net)
    assert run_dpa(net, [desc]).overall == PROVEN
    # all but the owners of Phil(id) and Fork(id), and APhil.49
    assert sum(renamed(c) for c in net.components) == 97
    assert calls == []
    # the oracle reads the rows of every member: Phil.1-4 and Fork.1-5
    free = explore_global(elaborate(parse_network(models.philosophers_source(6))))
    assert free.states_explored == 40250
    assert len(calls) == 9
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


@pytest.mark.parametrize("source", [
    adversarial("id == 0 & a.id -> P(id) [] a.id -> P(id)"),
    adversarial("a.id -> P((id + 1) % 3)"),
    adversarial("[] i : {id, 0} @ a.i -> P(i)"),
    adversarial("([] id : {0, 1} @ a.id -> STOP) [] a.id -> P(id)"),
    adversarial("[] i : {0..2} @ ([] j : {i} @ a.j -> P(id))"),
    adversarial("(a.id -> P(id)) \\ {a.id}"),
    adversarial("a.id -> Q(id)", extra="Q(id) = a.id -> P(id)\n"),
], ids=["guard-reads-the-parameter", "self-call-changes-its-argument",
        "call-passes-a-choice-variable", "choice-variable-shadows-the-parameter",
        "choice-set-reads-a-choice-variable", "hiding", "call-to-another-definition"])
def test_definitions_that_are_not_event_only_form_no_family(source):
    net = elaborate(parse_network(source))
    assert all(c.family is None for c in net.components)
    assert diff_network(net) == []


def test_a_body_with_ground_events_forms_no_family():
    body = Prefix(event("ground.0"), Call("P", (Var("x"),)))
    env = DefEnv([Definition("P", ("x",), body)])
    net = Network([Component(f"P.{i}", frozenset({event("ground.0")}), Call("P", (i,)), env)
                   for i in range(2)])
    assert all(c.family is None for c in net.components)
    assert diff_network(net) == []


@pytest.mark.parametrize("source, shared", [
    # {id, 1} collapses at id = 1
    (adversarial("[] i : {id, 1} @ a.i -> b.i -> P(id)", "{| a, b |}"), ["P.2"]),
    # a.id and a.1 coincide at id = 1, which would merge two states
    (adversarial("b.id -> a.id -> P(id) [] c.id -> a.1 -> P(id)", "{| a, b.id, c.id |}"),
     ["P.2"]),
    # P.1 maps a.1 at both templates, a signature of its own: P.0 owns the
    # other one, and P.2 is renamed from it
    (adversarial("b.id -> a.id -> P(id) [] c.id -> a.1 -> P(id)", "{| a, b.id, c.id |}",
                 "{1, 0, 2}"), ["P.2"]),
    # {id, id % 2} collapses at ids 0 and 1: two signatures of two members
    (adversarial("[] i : {id, id % 2} @ a.i -> b.i -> P(id)", "{| a, b |}", "{0..3}"),
     ["P.1", "P.3"]),
], ids=["choice-set-collapses", "templates-coincide", "representative-templates-coincide",
        "two-signatures"])
def test_members_whose_renaming_fails_compile_on_their_own(source, shared):
    net = elaborate(parse_network(source))
    assert all(c.family is not None for c in net.components)
    assert diff_network(net) == shared


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


def test_an_internal_error_while_resolving_a_member_propagates(monkeypatch):
    """Only a DSL value error makes a member compile on its own; any other
    error in ``_resolve`` is a bug, and is not swallowed."""
    net = elaborate(parse_network(models.philosophers_source(3)))
    net[0].compiled()

    def broken(self, args):
        raise RuntimeError("bug in _resolve")

    monkeypatch.setattr(type(net[1].family), "_resolve", broken)
    with pytest.raises(RuntimeError, match="bug in _resolve"):
        net[1].compiled()


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
