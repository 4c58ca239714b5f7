"""The LTS builders against the ones they replaced.

`lts.compile_term` and `lts.parallel_lts` number their states with the one
breadth-first loop `lts._reachable`, and `lts.hide_lts` and
`lts.rename_lts` are both `lts._relabel`.  `lts_reference` keeps the
builders as they were, each with its own loop.  On every component of the
bundled models and the pattern families, on those components hidden and
renamed, on the bridge context of every communication-graph edge (both
ways round, random networks included) and on random terms, both must
build equal `Lts` values: the same initial state, rows and state terms.
Each comparison is made at a state limit of the built LTS's state count,
where both must succeed alike, and one below it, where both must raise
the same `StateLimitExceeded`.
"""

import random

import pytest

import bundled
import lts_reference as ref
from conftest import random_env, random_live_network, random_term, ev3
from dpa import models
from dpa.decomposition import build_context, fresh_req
from dpa.dsl import elaborate, parse_network
from dpa.lts import StateLimitExceeded, compile_term, hide_lts, parallel_lts, rename_lts
from dpa.network import abs_lts, communication_graph


def _net(src):
    return elaborate(parse_network(src))


def networks():
    out = [_net(build()) for name, build in sorted(bundled.BUNDLED.items())
           if name.endswith(".net")]
    out += [_net(models.ring_buffer_source(n)) for n in range(2, 13)]
    for n in range(3, 9):
        out += [_net(models.philosophers_source(n, symmetric)) for symmetric in (False, True)]
    out += [_net(models.leadership_source(n)) for n in range(2, 5)]
    return out


def outcome(build, *args, limit):
    """The built LTS as (initial, rows, terms), or the limit error's text."""
    try:
        lts = build(*args, limit=limit)
    except StateLimitExceeded as exc:
        return str(exc)
    return (lts.initial, lts.trans, lts.terms)


def assert_same(lts, want):
    assert (lts.initial, lts.trans, lts.terms) == (want.initial, want.trans, want.terms)


def assert_same_at_the_limit(build, reference, *args, n_states):
    """Both build the same LTS at a limit of ``n_states``, and both raise
    the same error one below it (unless there is only the start state)."""
    below = outcome(build, *args, limit=n_states - 1)
    assert below == outcome(reference, *args, limit=n_states - 1)
    assert isinstance(below, str) == (n_states > 1)
    assert outcome(build, *args, limit=n_states) == outcome(reference, *args, limit=n_states)


def check_components(net):
    """Each component compiled, hidden and renamed, by both builders."""
    req = fresh_req(net)
    for comp in net.components:
        lts = compile_term(comp.env, comp.term)
        assert_same_at_the_limit(compile_term, ref.compile_term, comp.env, comp.term,
                                 n_states=lts.n_states)
        hidden = comp.alphabet - net.voc
        assert_same(hide_lts(lts, hidden), ref.hide_lts(lts, hidden))
        # the bridge contexts' doubling, and every event merged into one
        doubled = {e: (e, req) for e in comp.alphabet & net.voc}
        assert_same(rename_lts(lts, doubled), ref.rename_lts(lts, doubled))
        merged = dict.fromkeys(comp.alphabet, (min(comp.alphabet),))
        assert_same(rename_lts(lts, merged), ref.rename_lts(lts, merged))


def reference_context(net, i, j, limit):
    """``build_context`` over the reference relabelling and product."""
    shared = net[i].alphabet & net[j].alphabet
    req = fresh_req(net)
    ext_i = ref.rename_lts(abs_lts(net, i), {e: (e, req) for e in shared})
    ext_j = ref.rename_lts(abs_lts(net, j), {e: (e, req) for e in shared})
    return ref.parallel_lts(ext_i, net[i].alphabet | {req}, ext_j, net[j].alphabet | {req},
                            limit)


def check_contexts(net):
    """Every edge's bridge context, both ways round; the number compared."""
    compared = 0
    for (i, j) in communication_graph(net).edges:
        for (x, y) in ((i, j), (j, i)):
            assert_same_at_the_limit(
                lambda limit: build_context(net, x, y, fresh_req(net), limit),
                lambda limit: reference_context(net, x, y, limit),
                n_states=build_context(net, x, y, fresh_req(net)).n_states,
            )
            compared += 1
    return compared


def test_model_components_match_reference():
    nets = networks()
    for net in nets:
        check_components(net)
    assert sum(len(net) for net in nets) == 278


def test_model_bridge_contexts_match_reference():
    assert sum(check_contexts(net) for net in networks()) > 300


def test_random_network_contexts_match_reference():
    rng = random.Random(17)
    compared = 0
    for _ in range(150):
        net = random_live_network(rng)
        check_components(net)
        compared += check_contexts(net)
    assert compared > 600


def test_random_terms_match_reference():
    events = ev3()
    compiled = 0
    for seed in range(60):
        rng = random.Random(seed)
        env = random_env(rng, events)
        for _ in range(8):
            term = random_term(rng, 4, events, env)
            lts = compile_term(env, term)
            assert_same_at_the_limit(compile_term, ref.compile_term, env, term,
                                     n_states=lts.n_states)
            for k, e in enumerate(events):
                relation = {e: tuple(events[: k + 1])}
                assert_same(rename_lts(lts, relation), ref.rename_lts(lts, relation))
                hidden = frozenset(events[k:])
                assert_same(hide_lts(lts, hidden), ref.hide_lts(lts, hidden))
            compiled += 1
    assert compiled == 480


@pytest.mark.parametrize("alphabets", [("a", "a"), ("a", "b"), ("ab", "bc")])
def test_products_of_random_terms_match_reference(alphabets):
    # products with ticks and taus on both sides, which the bridge contexts
    # of live networks never have
    events = ev3()
    names = dict(zip("abc", events))
    alpha_a = frozenset(names[c] for c in alphabets[0])
    alpha_b = frozenset(names[c] for c in alphabets[1])
    rng = random.Random(5)
    for _ in range(60):
        env = random_env(rng, sorted(alpha_a))
        a = compile_term(env, random_term(rng, 3, sorted(alpha_a), env))
        env = random_env(rng, sorted(alpha_b))
        b = compile_term(env, random_term(rng, 3, sorted(alpha_b), env))
        assert_same_at_the_limit(parallel_lts, ref.parallel_lts, a, alpha_a, b, alpha_b,
                                 n_states=parallel_lts(a, alpha_a, b, alpha_b).n_states)
