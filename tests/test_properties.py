"""Cross-cutting invariants: refinement is a preorder, adherent instances
are oracle-deadlock-free, generated specifications stay small."""

import pytest

import bundled
from conftest import generate_spec, random_plain_term, replay

from dpa import models
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import event
from dpa.lts import compile_term
from dpa.oracle import DeadlockFree, explore_global
from dpa.patterns import check_pattern
from dpa.semantics import FAILURES, REVIVALS, normalize, refines
from dpa.terms import DefEnv

ENV = DefEnv()


def net_of(src):
    return elaborate(parse_network(src))


def sample_pool(rng, size=12):
    events = [event("a"), event("b"), event("c")]
    pool = [random_plain_term(rng, 3, events) for _ in range(size)]
    ltss = [compile_term(ENV, t) for t in pool]
    specs = [normalize(l, universe=frozenset(events)) for l in ltss]
    return pool, ltss, specs


def test_refinement_is_reflexive(rng):
    _pool, ltss, specs = sample_pool(rng)
    for spec, lts in zip(specs, ltss):
        assert refines(spec, lts, FAILURES) is None
        assert refines(spec, lts, REVIVALS) is None


def test_refinement_is_transitive(rng):
    _pool, ltss, specs = sample_pool(rng)
    for model in (FAILURES, REVIVALS):
        holds = {
            (i, j)
            for i in range(len(specs))
            for j in range(len(ltss))
            if refines(specs[i], ltss[j], model) is None
        }
        chains = 0
        for (i, j) in holds:
            for k in range(len(ltss)):
                if (j, k) in holds:
                    chains += 1
                    assert (i, k) in holds, (model, i, j, k)
        assert chains > 0


def test_failed_checks_replay(rng):
    _pool, ltss, specs = sample_pool(rng)
    failures = 0
    for model in (FAILURES, REVIVALS):
        for spec in specs:
            for lts in ltss:
                ce = refines(spec, lts, model)
                if ce is not None:
                    failures += 1
                    assert replay(lts, ce), ce.describe()
    assert failures > 20


def test_adherent_philosophers_are_deadlock_free_up_to_six():
    for n in range(3, 7):
        net = net_of(models.philosophers_source(n))
        desc = parse_descriptor(models.philosophers_descriptor(n), net)
        verdict = check_pattern(desc, net, net.names())
        assert verdict.adherent, n
        assert isinstance(explore_global(net), DeadlockFree), n


def test_adherent_client_server_chain_is_deadlock_free():
    net = net_of(bundled.read("client_server.net"))
    desc = parse_descriptor(bundled.client_server_descriptor(), net)
    assert check_pattern(desc, net, net.names()).adherent
    assert isinstance(explore_global(net), DeadlockFree)


@pytest.mark.parametrize("participants", [2, 3])
def test_adherent_transport_layer_is_deadlock_free(participants):
    net = net_of(models.leadership_source(participants))
    desc = parse_descriptor(models.leadership_descriptor(participants), net)
    assert check_pattern(desc, net, net.names()).adherent
    assert isinstance(explore_global(net, 3_000_000), DeadlockFree)


def test_generated_specs_are_deterministic_and_small():
    net = net_of(models.philosophers_source(4))
    desc = parse_descriptor(models.philosophers_descriptor(4), net)
    for role, comp, fan_out in [
        ("user", "Phil.0", 4),
        ("resource", "Fork.0", 2),
    ]:
        env1, t1 = generate_spec(desc, role, comp)
        env2, t2 = generate_spec(desc, role, comp)
        l1 = compile_term(env1, t1)
        l2 = compile_term(env2, t2)
        assert l1.trans == l2.trans
        assert l1.n_states <= 10 * fan_out

    le = net_of(models.leadership_source(3))
    ad = parse_descriptor(models.leadership_descriptor(3), le)
    for role, comp, fan_out in [
        ("transport", "Bus.0.1", 3),
        ("participant", "Node.0", 4),
    ]:
        env, term = generate_spec(ad, role, comp)
        lts = compile_term(env, term)
        assert lts.n_states <= 10 * max(fan_out, len(ad.participants) * 3)

    cs = net_of(bundled.read("client_server.net"))
    csd = parse_descriptor(bundled.client_server_descriptor(), cs)
    env, term = generate_spec(csd, "serverRequests", "C0", cs)
    assert compile_term(env, term).n_states <= 10 * 4


def test_bench_scaling_shape():
    # the global search blows up by a near-constant factor per added
    # philosopher (state counts are deterministic), while the local method
    # stays within a generous quadratic envelope
    from dpa.bench import run_bench

    sizes = (3, 4, 5, 6)
    result = run_bench("philosophers", sizes, oracle_sizes=sizes)
    rows = {r["size"]: r for r in result["rows"]}
    for n in sizes:
        assert rows[n]["proven"]
    for n1, n2 in zip(sizes, sizes[1:]):
        assert rows[n2]["oracle_states"] >= 3 * rows[n1]["oracle_states"]
    floor, slack = 0.05, 4.0
    for n1, n2 in zip(sizes, sizes[1:]):
        bound = max(rows[n1]["dpa_seconds"], floor) * (n2 / n1) ** 2 * slack
        assert rows[n2]["dpa_seconds"] <= bound
