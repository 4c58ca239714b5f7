"""``patterns.check_behavioural``, which compiles and normalises each spec
once per shape, against the copy that builds a spec per obligation
(``patterns_reference.py``).  Results must be equal, counterexamples
included, on the bundled families and on seeded descriptor mutants; floors
on what was compared keep the corpus from passing by comparing nothing."""

import copy
import json
import random

import pytest

import bundled
from patterns_reference import check_behavioural_reference
from dpa import models, patterns
from dpa.bench import build_family
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import TICK, event
from dpa.lts import Lts, compile_term
from dpa.network import abs_lts
from dpa.patterns import EmptyRoleSet
from dpa.semantics import SpecDivergence, normalize
from dpa.terms import DIV, Call, DefEnv, Definition, Prefix, STOP

BASES = (
    [(models.philosophers_source(n, sym), models.philosophers_descriptor(n, sym))
     for n in range(2, 7) for sym in (False, True)]
    + [(models.leadership_source(n), models.leadership_descriptor(n))
       for n in range(2, 6)]
    + [(bundled.read("client_server.net"), bundled.client_server_descriptor())]
)


def _some(rng, doc, field):
    """About half the entries of the descriptor's list or map ``field``, and
    at least one."""
    part = doc[field]
    entries = part if isinstance(part, list) else [part[k] for k in sorted(part)]
    picked = [x for x in entries if rng.random() < 0.5]
    return picked or [rng.choice(entries)]


def _swap(a, b):
    def mutate(rng, doc):
        for conn in _some(rng, doc, "connections"):
            conn[a], conn[b] = conn[b], conn[a]
    return mutate


def _shuffle_each(field):
    def mutate(rng, doc):
        for seq in _some(rng, doc, field):
            rng.shuffle(seq)
    return mutate


def _shuffle(field):
    return lambda rng, doc: rng.shuffle(doc[field])


def _reverse_sends(rng, doc):
    for conn in _some(rng, doc, "connections"):
        conn["send"].reverse()


def _empty_responses(rng, doc):
    for responses in _some(rng, doc, "responses"):
        responses.clear()


# pattern -> mutations of its descriptor JSON, each in place
MUTATIONS = {
    "resource-allocation": (
        _shuffle_each("order"),
        _shuffle("resource_order"),
        _swap("acquire", "release"),
        _shuffle("connections"),
    ),
    "client-server": (
        _empty_responses,
        _shuffle("connections"),
        _shuffle("component_order"),
    ),
    "async-dynamic": (
        _shuffle_each("schedule"),
        _swap("on", "off"),
        _reverse_sends,
        _shuffle("connections"),
    ),
}


def _corpus(seed=21, mutants=60):
    """(source, descriptor JSON): the bases, then seeded mutants of them."""
    yield from BASES
    rng = random.Random(seed)
    for _ in range(mutants):
        source, doc = rng.choice(BASES)
        doc = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 2)):
            rng.choice(MUTATIONS[doc["pattern"]])(rng, doc)
        yield source, doc


def test_behavioural_results_match_reference():
    nets = {}
    obligations = failing = counterexamples = 0
    for source, doc in _corpus():
        if source not in nets:
            nets[source] = elaborate(parse_network(source))
        net = nets[source]
        desc = parse_descriptor(doc, net)
        scope = desc.components()
        got = patterns.check_behavioural(desc, net, scope)
        assert got == check_behavioural_reference(desc, net, scope), doc
        obligations += len(got)
        failing += sum(not r.ok for r in got)
        counterexamples += sum(r.counterexample is not None for r in got)
    assert obligations > 700
    assert failing >= 200
    assert counterexamples >= 100


@pytest.mark.parametrize("family, size", [("philosophers", 300), ("leadership", 5)])
def test_each_spec_shape_is_normalised_once(monkeypatch, family, size):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(patterns, "normalize", counted)
    net, (desc,) = build_family(family, size)
    results = patterns.check_behavioural(desc, net, desc.components())
    assert all(r.ok for r in results)
    assert len(calls) == 2


def _refines_calls(monkeypatch):
    """The arguments of every ``refines`` call ``check_behavioural`` makes."""
    calls = []
    refines = patterns.refines

    def counted(*args):
        calls.append(args)
        return refines(*args)

    monkeypatch.setattr(patterns, "refines", counted)
    return calls


@pytest.mark.parametrize("source, doc, refined", [
    (models.philosophers_source(300), models.philosophers_descriptor(300), 2),
    (models.philosophers_source(300, True), models.philosophers_descriptor(300, True), 2),
    (models.leadership_source(5), models.leadership_descriptor(5), 6),
], ids=["philosophers-300", "philosophers-300-symmetric", "leadership-5"])
def test_each_passing_verdict_shape_is_refined_once(monkeypatch, source, doc, refined):
    calls = _refines_calls(monkeypatch)
    net = elaborate(parse_network(source))
    desc = parse_descriptor(doc, net)
    got = patterns.check_behavioural(desc, net, desc.components())
    assert len(calls) == refined
    assert got == check_behavioural_reference(desc, net, desc.components())


@pytest.mark.parametrize("n", [3, 6])
def test_failing_verdicts_are_never_shared(monkeypatch, n):
    """With acquire and release swapped on every connection each refinement
    fails, so each runs and names only its own component's events."""
    doc = copy.deepcopy(models.philosophers_descriptor(n))
    for conn in doc["connections"]:
        conn["acquire"], conn["release"] = conn["release"], conn["acquire"]
    calls = _refines_calls(monkeypatch)
    net = elaborate(parse_network(models.philosophers_source(n)))
    desc = parse_descriptor(doc, net)
    got = patterns.check_behavioural(desc, net, desc.components())
    refined = [r for r in got if r.model != "structural"]
    assert len(calls) == len(refined) == 2 * n
    assert got == check_behavioural_reference(desc, net, desc.components())
    for r in refined:
        ce = r.counterexample
        assert not r.ok and ce.kind == "trace"
        named = set(ce.trace) | {ce.event} | (ce.acceptance or set())
        assert named <= net[net.index_of(r.component)].alphabet


def _bundled_pairs():
    """(source, descriptor JSON) of each bundled model with a descriptor."""
    for name in bundled.BUNDLED:
        if name.endswith(".pattern.json"):
            model = name.replace(".pattern.json", ".net")
            yield bundled.BUNDLED[model](), json.loads(bundled.BUNDLED[name]())


def test_member_shapes_read_through_phi_match_their_abstractions():
    """A family member's abstraction shape is read off its family's shared
    abstraction through φ, without building the member's rows; it must
    equal the shape of the member's abstraction itself, on every
    obligation of the corpus."""
    compared = members = 0
    for source, doc in [*_corpus(), *_bundled_pairs()]:
        net = elaborate(parse_network(source))
        desc = parse_descriptor(doc, net)
        memo, got = {}, []
        for role, name in desc.obligations(frozenset(desc.components())):
            try:
                env, term = desc.roles[role][2](desc, net, name)
            except EmptyRoleSet:
                continue
            events = patterns._canonical(env, term)[1]
            i = net.index_of(name)
            impl = abs_lts(net, i)
            got.append((i, events, patterns._abstraction_shape(net, i, impl, events, memo)))
        renamed = {i for i, c in enumerate(net.components)
                   if c._share is not None and c._share[1] is not None}
        for i in renamed:
            assert "_pending" in abs_lts(net, i).__dict__, net[i].name
        for i, events, shape in got:
            assert shape == patterns._impl_shape(abs_lts(net, i), events), net[i].name
        compared += len(got)
        members += sum(i in renamed for i, _, _ in got)
    assert compared > 700
    assert members > 200


def test_impl_shape_ignores_how_events_and_states_are_numbered():
    a, b, c = event("shape.impl.a"), event("shape.impl.b"), event("shape.impl.c")
    # 0 -a-> 1 -a-> 0 and 0 -b-> 2 -c-> 2, then the same with a and b
    # exchanged and states 1 and 2 exchanged, each row sorted by label
    one = Lts(0, (((a, 1), (b, 2)), ((a, 0),), ((c, 2),)))
    other = Lts(0, (((a, 1), (b, 2)), ((c, 1),), ((b, 0),)))
    shape = patterns._impl_shape(one, (a, b))
    assert shape == (((0, 1), (1, 2)), ((0, 0),), ((2, 2),))
    assert patterns._impl_shape(other, (b, a)) == shape
    assert patterns._impl_shape(other, (a, b)) != shape


def test_mapped_specs_name_only_network_events(monkeypatch):
    seen = []

    def recorded(spec, impl, model):
        seen.append((spec, net.sigma))
        return refines(spec, impl, model)

    refines = patterns.refines
    monkeypatch.setattr(patterns, "refines", recorded)
    nets = {}
    for source, doc in _corpus():
        if source not in nets:
            nets[source] = elaborate(parse_network(source))
        net = nets[source]
        desc = parse_descriptor(doc, net)
        patterns.check_behavioural(desc, net, desc.components())
    assert len(seen) > 100
    for spec, sigma in seen:
        assert spec.universe == sigma
        for row, state in zip(spec.trans, spec.states):
            events = set(row)
            for acc in state.min_acceptances + state.acceptances:
                events |= acc - {TICK}
            assert events <= sigma


def test_canonical_numbers_events_in_walk_order():
    a, b = event("shape.a"), event("shape.b")
    env = DefEnv([Definition("P", (), Prefix(b, Call("Q")))])
    key, events = patterns._canonical(env, Prefix(a, Prefix(b, Prefix(a, STOP))))
    assert events == (b, a)
    assert key == (
        (("P", (), Prefix(0, Call("Q"))),),
        Prefix(1, Prefix(0, Prefix(1, STOP))),
    )


def test_canonical_walks_a_long_prefix_run_without_stack():
    events = [event(f"shape.run.{i}") for i in range(5000)]
    env = DefEnv([Definition("P", (), patterns._chain(events, Call("P")))])
    key, got = patterns._canonical(env, Call("P"))
    assert got == tuple(events)
    assert key == ((("P", (), patterns._chain(range(5000), Call("P"))),), Call("P"))


def test_canonical_rejects_a_term_no_builder_emits():
    with pytest.raises(TypeError, match="no canonical form"):
        patterns._canonical(DefEnv(), Prefix(event("shape.a"), DIV))


def test_spec_divergence_names_real_events():
    a, b = event("shape.a"), event("shape.b")
    env = DefEnv([Definition("D", (), Call("D"))])
    term = Prefix(a, Prefix(b, Call("D")))
    key, events = patterns._canonical(env, term)
    with pytest.raises(SpecDivergence) as got:
        patterns._normal_shape(key, events, 100)
    with pytest.raises(SpecDivergence) as ref:
        normalize(compile_term(env, term))
    assert got.value.trace == ref.value.trace == (a, b)
