import pytest

from conftest import generate_spec, successors
from dpa import models
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import EVENTS, event
from dpa.lts import compile_term
from dpa.network import Component, Network, abs_lts
from dpa.patterns import (
    EmptyRoleSet,
    RaDescriptor,
    UnknownElement,
    check_behavioural,
    check_pattern,
    check_structural,
    respects_order,
)
from dpa.semantics import FAILURES, normalize, refines


def phil_net(n=3, symmetric=False):
    return elaborate(parse_network(models.philosophers_source(n, symmetric)))


def phil_desc(net, n=3, symmetric=False):
    return parse_descriptor(models.philosophers_descriptor(n, symmetric), net)


# ---------------------------------------------------------------------------
# ordering


def rank(order):
    """Each element's position in a greatest-first order."""
    return {x: i for i, x in enumerate(order)}


def test_respects_order_basics():
    order = rank(["Fork.1", "Fork.0"])  # Fork.1 greatest
    assert respects_order(["Fork.1", "Fork.0"], order)
    assert not respects_order(["Fork.0", "Fork.1"], order)
    with pytest.raises(UnknownElement):
        respects_order(["Fork.9"], order)


def test_cyclic_acquisitions_always_break_some_order():
    # the n cyclic acquisition sequences can never all respect one total
    # order (that is what makes the symmetric ring unprovable); the ranking
    # aligned with the indices pins the violation on the single wrap-around
    import itertools

    n = 3
    for ranking in itertools.permutations([f"Fork.{i}" for i in range(n)]):
        violations = [
            not respects_order([f"Fork.{i}", f"Fork.{(i + 1) % n}"], rank(ranking))
            for i in range(n)
        ]
        assert sum(violations) >= 1
    aligned = rank([f"Fork.{i}" for i in range(n)])
    violations = [
        not respects_order([f"Fork.{i}", f"Fork.{(i + 1) % n}"], aligned)
        for i in range(n)
    ]
    assert violations == [False, False, True]  # only the wrap-around pair


# ---------------------------------------------------------------------------
# structural predicates


def test_philosophers_structural_predicates_pass():
    net = phil_net()
    desc = phil_desc(net)
    results = check_structural(desc, net, net.names())
    assert all(r.ok for r in results)
    names = {r.name for r in results}
    assert names == {
        "partitioned",
        "mutually_disjoint_events",
        "controlled_alpha_users",
        "controlled_alpha_resources",
    }


def test_partitioned_failure():
    net = phil_net()
    doc = models.philosophers_descriptor(3)
    doc["connections"].append(
        {
            "user": "Fork.0",
            "resource": "Fork.1",
            "acquire": "pickup.0.1",
            "release": "putdown.0.1",
        }
    )
    doc["order"]["Fork.0"] = ["Fork.1"]
    desc = parse_descriptor(doc, net)
    results = check_structural(desc, net, net.names())
    part = [r for r in results if r.name == "partitioned"][0]
    assert not part.ok and "Fork.0" in part.witness


def test_acquire_equals_release_fails_disjointness():
    net = phil_net()
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["release"] = doc["connections"][0]["acquire"]
    desc = parse_descriptor(doc, net)
    results = check_structural(desc, net, net.names())
    dis = [r for r in results if r.name == "mutually_disjoint_events"][0]
    assert not dis.ok and "pickup.0.0" in dis.witness


def test_structural_checks_do_not_compile_behaviour():
    net = phil_net()
    desc = phil_desc(net)
    check_structural(desc, net, net.names())
    assert all(c._compiled is None for c in net.components)


# ---------------------------------------------------------------------------
# generated characteristic processes


def test_fork_resource_spec_offers_both_users():
    net = phil_net()
    desc = phil_desc(net)
    env, term = generate_spec(desc, "resource", "Fork.0")
    lts = compile_term(env, term)
    offers = {EVENTS.name(e) for e in lts.visible_initials(0)}
    assert offers == {"pickup.0.0", "pickup.2.0"}
    after = successors(lts, 0, event("pickup.2.0"))[0]
    assert {EVENTS.name(e) for e in lts.visible_initials(after)} == {"putdown.2.0"}


def test_user_spec_acquires_then_releases_in_order():
    net = phil_net()
    desc = phil_desc(net)
    env, term = generate_spec(desc, "user", "APhil.2")
    lts = compile_term(env, term)
    s, seen = 0, []
    for _ in range(4):
        (label, s), = lts.trans[s]
        seen.append(EVENTS.name(label))
    assert seen == ["pickup.2.0", "pickup.2.2", "putdown.2.0", "putdown.2.2"]
    assert s == 0  # recurses


def test_transport_spec_three_modes():
    net = elaborate(parse_network(models.leadership_source(2)))
    desc = parse_descriptor(models.leadership_descriptor(2), net)
    env, term = generate_spec(desc, "transport", "Bus.0.1")
    lts = compile_term(env, term)
    # off-state offers power-on and timeout only
    offers = {EVENTS.name(e) for e in lts.visible_initials(0)}
    assert offers == {"on.0.1", "to.0.1"}
    on = successors(lts, 0, event("on.0.1"))[0]
    on_offers = {EVENTS.name(e) for e in lts.visible_initials(on)}
    assert on_offers == {"off.0.1", "snd.0.1.0", "snd.0.1.1"}
    full = successors(lts, on, event("snd.0.1.1"))[0]
    full_offers = {EVENTS.name(e) for e in lts.visible_initials(full)}
    # a full buffer relays exactly the datum it stores, and may be overwritten
    assert full_offers == {"off.0.1", "snd.0.1.0", "snd.0.1.1", "rcv.0.1.1"}


def test_requests_responses_spec_rejects_unconnected_component():
    net = elaborate(parse_network(models.client_server_source()))
    desc = parse_descriptor(models.client_server_descriptor(), net)
    stripped = type(desc)(
        tuple((c, s) for (c, s) in desc.connections if "C1" not in (c, s)),
        {k: v for k, v in desc.requests.items() if "C1" not in k},
        desc.responses,
        desc.cs_order,
    )
    with pytest.raises(EmptyRoleSet):
        generate_spec(stripped, "requestsResponses", "C1")


def test_server_requests_spec_offers_all_server_events():
    net = elaborate(parse_network(models.client_server_source()))
    desc = parse_descriptor(models.client_server_descriptor(), net)
    env, term = desc.server_requests_spec(net, "C0")
    lts = compile_term(env, term)
    spec = normalize(lts, universe=net.sigma)
    init = spec.states[0]
    server_events = {event("req10"), event("req20")}
    # whichever acceptance grants a server request grants them all
    for acc in init.acceptances:
        if acc & server_events:
            assert server_events <= acc


# ---------------------------------------------------------------------------
# behavioural compliance


def test_philosophers_behavioural_compliance():
    net = phil_net()
    desc = phil_desc(net)
    results = check_behavioural(desc, net, net.names())
    assert all(r.ok for r in results)
    kinds = {(r.spec_name) for r in results}
    assert kinds == {"UserSpec", "ResourceSpec", "acquisition-order"}


def test_symmetric_philosophers_fail_only_on_order():
    net = phil_net(symmetric=True)
    desc = phil_desc(net, symmetric=True)
    results = check_behavioural(desc, net, net.names())
    bad = [r for r in results if not r.ok]
    assert len(bad) == 1
    assert bad[0].component == "Phil.2"
    assert bad[0].spec_name == "acquisition-order"
    refinements = [r for r in results if r.spec_name in ("UserSpec", "ResourceSpec")]
    assert all(r.ok for r in refinements)


def test_component_equal_to_its_spec_refines_it():
    net = phil_net()
    desc = phil_desc(net)
    env, term = generate_spec(desc, "user", "Phil.0")
    alphabet = frozenset(
        {desc.acquire[("Phil.0", r)] for r in desc.resources_of("Phil.0")}
        | {desc.release[("Phil.0", r)] for r in desc.resources_of("Phil.0")}
    )
    verbatim = Network(
        [Component("Phil.0", alphabet, term, env),
         Component("Peer", alphabet, term, env)]
    )
    impl = abs_lts(verbatim, 0)
    spec = normalize(compile_term(env, term), universe=verbatim.sigma)
    assert refines(spec, impl, FAILURES) is None


def test_leadership_pattern_adherent():
    net = elaborate(parse_network(models.leadership_source(2)))
    desc = parse_descriptor(models.leadership_descriptor(2), net)
    verdict = check_pattern(desc, net, net.names())
    assert verdict.adherent
    assert all(p.ok for p in verdict.structural)


def test_client_server_pattern_adherent():
    net = elaborate(parse_network(models.client_server_source()))
    desc = parse_descriptor(models.client_server_descriptor(), net)
    verdict = check_pattern(desc, net, net.names())
    assert verdict.adherent
    models_used = {(b.spec_name, b.model) for b in verdict.behavioural}
    assert ("ServerRequestsSpec", "revivals") in models_used
    assert ("RequestsResponsesSpec", "failures") in models_used


def test_behavioural_skipped_when_structure_fails():
    net = phil_net()
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["release"] = doc["connections"][0]["acquire"]
    desc = parse_descriptor(doc, net)
    verdict = check_pattern(desc, net, net.names())
    assert not verdict.adherent
    assert verdict.behavioural == []


BIASED_RESOURCE = """version 1
channel get : {0..1}
channel put : {0..1}
channel zz_unused : {0..2}
User(id) = get.id -> put.id -> User(id)
Res = get.0 -> put.0 -> Res
atom UA = alphabet {| get.id, put.id |} behaviour User(id)
atom RA = alphabet {| get, put |} behaviour Res
instance U = UA {0..1}
instance R = RA
"""


def test_failing_obligation_reports_the_full_refusal_set():
    # R only ever serves U.0, so its ResourceSpec refusal is reported
    # against every declared event, the unused channel included
    net = elaborate(parse_network(BIASED_RESOURCE))
    desc = parse_descriptor({
        "pattern": "resource-allocation",
        "connections": [
            {"user": f"U.{u}", "resource": "R", "acquire": f"get.{u}", "release": f"put.{u}"}
            for u in (0, 1)
        ],
        "order": {"U.0": ["R"], "U.1": ["R"]},
        "resource_order": ["R"],
    }, net)
    assert "sigma" not in net.__dict__
    results = check_behavioural(desc, net, net.names())
    bad = [r for r in results if not r.ok]
    assert [(r.component, r.spec_name) for r in bad] == [("R", "ResourceSpec")]
    assert bad[0].counterexample.to_json() == {
        "kind": "refusal",
        "trace": [],
        "acceptance": ["get.0"],
        "refusal": [
            "get.1", "put.0", "put.1", "zz_unused.0", "zz_unused.1", "zz_unused.2"
        ],
    }


def test_ra_peer_lists_are_sorted_and_deduplicated():
    conns = (("u2", "r1"), ("u1", "r2"), ("u1", "r1"), ("u2", "r1"), ("u0", "r2"))
    desc = RaDescriptor(conns, {}, {}, {}, ())
    assert desc.users == ["u0", "u1", "u2"]
    assert desc.resources == ["r1", "r2"]
    assert desc.resources_of("u1") == ["r1", "r2"]
    assert desc.resources_of("u2") == ["r1"]
    assert desc.users_of("r1") == ["u1", "u2"]
    assert desc.users_of("r2") == ["u0", "u1"]
    assert desc.users_of("nobody") == [] and desc.resources_of("nobody") == []
    desc.users_of("r1").append("x")  # callers get their own list
    assert desc.users_of("r1") == ["u1", "u2"]


# (component, spec, model, ok) per behavioural obligation, in check order
BEHAVIOURAL_ORDER = {
    "philosophers": [
        ("APhil.2", "UserSpec", "failures", True),
        ("Phil.0", "UserSpec", "failures", True),
        ("Phil.1", "UserSpec", "failures", True),
        ("Fork.0", "ResourceSpec", "failures", True),
        ("Fork.1", "ResourceSpec", "failures", True),
        ("Fork.2", "ResourceSpec", "failures", True),
        ("APhil.2", "acquisition-order", "structural", True),
        ("Phil.0", "acquisition-order", "structural", True),
        ("Phil.1", "acquisition-order", "structural", True),
    ],
    "philosophers_symmetric": [
        ("Phil.0", "UserSpec", "failures", True),
        ("Phil.1", "UserSpec", "failures", True),
        ("Phil.2", "UserSpec", "failures", True),
        ("Fork.0", "ResourceSpec", "failures", True),
        ("Fork.1", "ResourceSpec", "failures", True),
        ("Fork.2", "ResourceSpec", "failures", True),
        ("Phil.0", "acquisition-order", "structural", True),
        ("Phil.1", "acquisition-order", "structural", True),
        ("Phil.2", "acquisition-order", "structural", False),
    ],
    "client_server": [
        ("C0", "ServerRequestsSpec", "revivals", True),
        ("C0", "RequestsResponsesSpec", "failures", True),
        ("C1", "ServerRequestsSpec", "revivals", True),
        ("C1", "RequestsResponsesSpec", "failures", True),
        ("C2", "ServerRequestsSpec", "revivals", True),
        ("C2", "RequestsResponsesSpec", "failures", True),
    ],
    "leadership": [
        ("Bus.0.1", "TransportSpec", "failures", True),
        ("Bus.1.0", "TransportSpec", "failures", True),
        ("Node.0", "ParticipantSpec", "failures", True),
        ("Node.1", "ParticipantSpec", "failures", True),
        ("Node.0", "schedule", "structural", True),
        ("Node.1", "schedule", "structural", True),
    ],
}


@pytest.mark.parametrize("name", sorted(BEHAVIOURAL_ORDER))
def test_behavioural_obligations_keep_their_order(name):
    source, descriptor = {
        "philosophers": (models.philosophers_source(3), models.philosophers_descriptor(3)),
        "philosophers_symmetric": (models.philosophers_source(3, symmetric=True),
                                   models.philosophers_descriptor(3, symmetric=True)),
        "client_server": (models.client_server_source(), models.client_server_descriptor()),
        "leadership": (models.leadership_source(2), models.leadership_descriptor(2)),
    }[name]
    net = elaborate(parse_network(source))
    desc = parse_descriptor(descriptor, net)
    results = check_behavioural(desc, net, net.names())
    got = [(r.component, r.spec_name, r.model, r.ok) for r in results]
    assert got == BEHAVIOURAL_ORDER[name]


def test_degenerate_role_fails_after_the_refinements():
    # with C1's connections removed its request-response process is STOP:
    # a failed obligation carrying the note, after every refinement
    net = elaborate(parse_network(models.client_server_source()))
    desc = parse_descriptor(models.client_server_descriptor(), net)
    stripped = type(desc)(
        tuple((c, s) for (c, s) in desc.connections if "C1" not in (c, s)),
        {k: v for k, v in desc.requests.items() if "C1" not in k},
        desc.responses,
        desc.cs_order,
    )
    results = check_behavioural(stripped, net, net.names())
    assert [(r.component, r.spec_name, r.model, r.ok) for r in results] == [
        ("C0", "ServerRequestsSpec", "revivals", True),
        ("C0", "RequestsResponsesSpec", "failures", False),
        ("C1", "ServerRequestsSpec", "revivals", True),
        ("C2", "ServerRequestsSpec", "revivals", True),
        ("C2", "RequestsResponsesSpec", "failures", False),
        ("C1", "RequestsResponsesSpec", "failures", False),
    ]
    assert results[-1].note == (
        "'C1' has no request events in either role; its request-response "
        "process is STOP and violates busyness"
    )
    assert results[-1].counterexample is None
