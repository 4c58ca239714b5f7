"""The conflict-freedom spec and the CHAOS stop against their reference.

`decomposition.build_conflict_free_spec` builds the characteristic
process's two-state normal form directly and marks its CHAOS state, where
`refines` stops exploring.  `decomposition_reference` keeps the process as
a term and the builder that compiled and normalised it.  On every
communication-graph edge of the bundled models, the pattern families and
seeded random networks, the two specs must be equal, and
`check_conflict_free` must give the verdict, counterexample and context
size of the reference path (reference spec, `refines` over
`build_context`), both ways round.
"""

import dataclasses
import random

import decomposition_reference as ref
from conftest import random_live_network
from dpa import models
from dpa.decomposition import (
    CONFLICT_FREE,
    build_conflict_free_spec,
    build_context,
    check_conflict_free,
    fresh_req,
)
from dpa.dsl import elaborate, parse_network
from dpa.network import communication_graph
from dpa.semantics import FAILURES, REVIVALS, refines


def _net(src):
    return elaborate(parse_network(src))


def random_networks():
    return [random_live_network(random.Random(seed), max_components=5, max_states=6)
            for seed in range(150)]


def networks():
    out = [_net(build()) for name, build in sorted(models.BUNDLED.items())
           if name.endswith(".net")]
    out += [_net(models.ring_buffer_source(n)) for n in range(2, 9)]
    for n in (3, 4):
        out += [_net(models.philosophers_source(n, symmetric)) for symmetric in (False, True)]
    out += [_net(models.leadership_source(n)) for n in (2, 3)]
    return out + random_networks()


def spec_fields(spec):
    """Everything refinement reads of a normal spec; the minimal acceptances
    as a set, since `normalize` orders them by member-set iteration."""
    return (
        spec.universe,
        spec.initial,
        spec.trans,
        [(set(s.min_acceptances), s.acceptances, s.deadlock_allowed, s.tick_allowed)
         for s in spec.states],
    )


def test_direct_spec_and_checks_equal_the_reference():
    edges = counterexamples = 0
    for net in networks():
        req = fresh_req(net)
        for (i, j) in sorted(communication_graph(net).edges):
            spec = build_conflict_free_spec(net, i, j, req)
            want = ref.build_conflict_free_spec(net, i, j, req)
            assert spec_fields(spec) == spec_fields(want), (net[i].name, net[j].name)
            assert want.chaos is None and spec.chaos == 1
            edges += 1
            for a, b in ((i, j), (j, i)):
                got = check_conflict_free(net, a, b)
                context = build_context(net, a, b, req=req)
                ce = refines(ref.build_conflict_free_spec(net, a, b, req), context, REVIVALS)
                assert got.counterexample == ce, got.names
                assert (got.verdict == CONFLICT_FREE) == (ce is None)
                assert got.context_states == context.n_states
                counterexamples += ce is not None
    assert edges > 500
    assert counterexamples >= 100


def test_stopping_at_chaos_changes_no_result():
    """Both models, with and without the CHAOS stop, on every ordered
    edge's context of the random networks."""
    checks = counterexamples = 0
    for net in random_networks():
        req = fresh_req(net)
        for (i, j) in communication_graph(net).edges:
            for a, b in ((i, j), (j, i)):
                spec = build_conflict_free_spec(net, a, b, req)
                context = build_context(net, a, b, req=req)
                for model in (FAILURES, REVIVALS):
                    ce = refines(spec, context, model)
                    assert ce == refines(dataclasses.replace(spec, chaos=None), context, model)
                    checks += 1
                    counterexamples += ce is not None
    assert checks > 1500
    assert counterexamples >= 100
