import pytest

import bundled
from denotational import diff_behaviours, lts_behaviours
from dpa import models
from dpa.dsl import (
    SCHEMA_VERSION,
    ParseError,
    elaborate,
    parse_descriptor,
    parse_network,
)
from dpa.events import EVENTS, event
from dpa.patterns import DuplicateName, UnknownComponent, UnknownEvent, descriptor_echo
from dpa.terms import Call, Prefix, fmt_expr, pretty


def net_of(src):
    return elaborate(parse_network(src))


def names(eids):
    return sorted(EVENTS.name(e) for e in eids)


def test_simple_recursive_definition():
    decl = parse_network("version 1\nchannel a\nP = a -> P\n")
    assert len(decl.process_defs) == 1
    d = decl.process_defs[0]
    assert d.name == "P" and d.params == ()
    assert isinstance(d.body, Prefix)
    assert d.body.cont == Call("P")
    assert pretty(d.body) == "a -> P"


def test_philosopher_sources_parse_with_helpers():
    decl = parse_network(models.philosophers_source(3))
    def_names = {(d.name, len(d.params)) for d in decl.process_defs}
    assert ("Phil", 1) in def_names and ("Fork", 1) in def_names
    assert {f[0] for f in decl.functions} == {"next", "prev"}


def test_syntax_error_produces_diagnostics_only():
    with pytest.raises(ParseError) as err:
        parse_network("version 1\nchannel a\nP = a -> [] \n")
    assert err.value.diagnostics
    d = err.value.diagnostics[0]
    assert d.line >= 3 and d.col > 0
    # a missing operand inside a choice is caught at its own line
    with pytest.raises(ParseError) as err2:
        parse_network("version 1\nchannel a\nP = (a -> STOP []) \nQ = a -> Q\n")
    assert err2.value.diagnostics[0].line == 3
    # an output with no value is a prefix whose value is missing
    with pytest.raises(ParseError) as err3:
        parse_network("version 1\nchannel c : {0..1}\nP = c! -> P\nQ = c.0 -> Q\n")
    assert [str(d) for d in err3.value.diagnostics] == [
        "3:8: expected a value, found '->'"
    ]


def test_constants_evaluate_unary_and_boolean_operators():
    net = net_of(
        "version 1\nconst A = -2\nconst B = 1 and 0 or 3\nconst C = not 1 == 0\n"
        "const D = -A * 2\nconst E = 0 and 1 / 0\nchannel a\n"
        "atom PA = alphabet { a } behaviour a -> STOP\ninstance P = PA\n"
    )
    assert net.components[0].env.constants == {"A": -2, "B": 3, "C": 1, "D": 4, "E": 0}


def test_ring_buffer_alphabets():
    net = net_of(models.ring_buffer_source(3))
    ctrl = net[net.index_of("Controller")]
    assert names(ctrl.alphabet) == names(
        [event(f"read.{i}.{v}") for i in range(3) for v in range(2)]
        + [event(f"write.{i}.{v}") for i in range(3) for v in range(2)]
        + [event(f"input.{v}") for v in range(2)]
        + [event(f"output.{v}") for v in range(2)]
    )
    cell0 = net[net.index_of("Cell.0")]
    assert names(cell0.alphabet) == names(
        [event(f"read.0.{v}") for v in range(2)]
        + [event(f"write.0.{v}") for v in range(2)]
    )


def test_philosopher_alphabets_per_instance():
    net = net_of(models.philosophers_source(3))
    p0 = net[net.index_of("Phil.0")]
    assert names(p0.alphabet) == names(
        [event(e) for e in (
            "sit.0", "pickup.0.0", "pickup.0.1", "eat.0",
            "putdown.0.0", "putdown.0.1", "getup.0",
        )]
    )
    assert len(net) == 6


def test_empty_instance_set_warns_and_adds_nothing():
    src = (
        "version 1\nchannel a\n"
        "P = a -> P\n"
        "atom PA = alphabet {| a |} behaviour P\n"
        "instance Q = PA {1..0}\n"
    )
    net = net_of(src)
    assert len(net) == 0
    assert any("empty id set" in w for w in net.warnings)


def test_input_sugar_equals_explicit_choice():
    base = (
        "version 1\nchannel ch : {0..2}\nchannel done\n"
        "atom XA = alphabet {| ch, done |} behaviour %s\n"
        "instance X = XA\n"
    )
    sugar = net_of(base % "ch?x -> done -> Q(x)\nQ(v) = ch!v -> Q(v)")
    explicit = net_of(
        base % "(ch.0 -> done -> Q(0) [] ch.1 -> done -> Q(1) [] ch.2 -> done -> Q(2))\n"
        "Q(v) = ch!v -> Q(v)"
    )
    sigma = sugar.sigma
    b1 = lts_behaviours(sugar[0].compiled(), sigma, 5)
    b2 = lts_behaviours(explicit[0].compiled(), sigma, 5)
    assert diff_behaviours(b1, b2, 5) is None


def compiled_table(src):
    """Per component: name, alphabet, transitions and state names."""
    out = []
    for comp in net_of(src).components:
        lts = comp.compiled()
        out.append((
            comp.name,
            names(comp.alphabet),
            [[f"{EVENTS.name(l)} {t}" for l, t in row] for row in lts.trans],
            [lts.state_name(s) for s in range(lts.n_states)],
        ))
    return out


# Each input field desugars into an indexed choice that binds its variable;
# the tables below were recorded with the earlier substitution-based
# elaborator, so binding must reproduce them exactly.


def test_desugar_two_inputs_in_one_event():
    assert compiled_table(
        "version 1\nchannel c : {0..1}.{0..2}\nchannel d : {0..3}\n"
        "P = c?x?y -> d!(x+y) -> P\n"
        "atom PA = alphabet {| c, d |} behaviour P\ninstance P = PA\n"
    ) == [(
        "P",
        ["c.0.0", "c.0.1", "c.0.2", "c.1.0", "c.1.1", "c.1.2",
         "d.0", "d.1", "d.2", "d.3"],
        [["c.0.0 1", "c.0.1 2", "c.0.2 3", "c.1.0 2", "c.1.1 3", "c.1.2 4"],
         ["d.0 0"], ["d.1 0"], ["d.2 0"], ["d.3 0"]],
        ["P", "d.0 -> P", "d.1 -> P", "d.2 -> P", "d.3 -> P"],
    )]


def test_desugar_input_shadows_parameter():
    assert compiled_table(
        "version 1\nchannel c : {0..2}\nchannel d : {0..2}\n"
        "P(x) = c?x -> d!x -> P(x)\n"
        "atom PA = alphabet {| c, d |} behaviour P(1)\ninstance P = PA\n"
    ) == [(
        "P",
        ["c.0", "c.1", "c.2", "d.0", "d.1", "d.2"],
        [["c.0 1", "c.1 2", "c.2 3"], ["d.0 4"], ["d.1 0"], ["d.2 5"],
         ["c.0 1", "c.1 2", "c.2 3"], ["c.0 1", "c.1 2", "c.2 3"]],
        ["P(1)", "d.0 -> P(0)", "d.1 -> P(1)", "d.2 -> P(2)", "P(0)", "P(2)"],
    )]


def test_desugar_input_inside_indexed_choice():
    assert compiled_table(
        "version 1\nchannel c : {0..1}.{0..1}\nchannel d : {0..2}\nchannel a\n"
        "P = a -> P\n"
        "atom PA = alphabet {| a, c, d |} "
        "behaviour [] i : {0..1} @ c.i?x -> d!(i+x) -> P\ninstance P = PA\n"
    ) == [(
        "P",
        ["a", "c.0.0", "c.0.1", "c.1.0", "c.1.1", "d.0", "d.1", "d.2"],
        [["c.0.0 1", "c.0.1 2", "c.1.0 2", "c.1.1 3"],
         ["d.0 4"], ["d.1 4"], ["d.2 4"], ["a 4"]],
        ["((c.0.0 -> d.0 -> P) [] (c.0.1 -> d.1 -> P)) [] "
         "((c.1.0 -> d.1 -> P) [] (c.1.1 -> d.2 -> P))",
         "d.0 -> P", "d.1 -> P", "d.2 -> P", "P"],
    )]


def test_desugar_one_value_domain_is_a_bare_prefix():
    assert compiled_table(
        "version 1\nchannel c : {7}\nchannel d : {7}\n"
        "atom PA = alphabet {| c, d |} behaviour c?x -> d!x -> STOP\n"
        "instance P = PA\n"
    ) == [(
        "P",
        ["c.7", "d.7"],
        [["c.7 1"], ["d.7 2"], []],
        ["c.7 -> d.7 -> STOP", "d.7 -> STOP", "STOP"],
    )]


def test_id_in_guard_and_alphabet():
    assert compiled_table(
        "version 1\nchannel a : {0..2}\nchannel b : {0..2}\n"
        "P(n) = a.n -> P(n)\n"
        "atom PA = alphabet {| a.id, b.id |} "
        "behaviour (id > 0 & b.id -> STOP) [] a.id -> P(id)\n"
        "instance P = PA {0..2}\n"
    ) == [
        ("P.0", ["a.0", "b.0"], [["a.0 1"], ["a.0 1"]],
         ["STOP [] (a.0 -> P(0))", "P(0)"]),
        ("P.1", ["a.1", "b.1"], [["a.1 2", "b.1 1"], [], ["a.1 2"]],
         ["(b.1 -> STOP) [] (a.1 -> P(1))", "STOP", "P(1)"]),
        ("P.2", ["a.2", "b.2"], [["a.2 2", "b.2 1"], [], ["a.2 2"]],
         ["(b.2 -> STOP) [] (a.2 -> P(2))", "STOP", "P(2)"]),
    ]


def test_later_field_sees_the_input_value():
    assert compiled_table(
        "version 1\nchannel c : {0..2}.{0..2}\n"
        "P = c?x!x -> P\n"
        "atom PA = alphabet {| c |} behaviour P\ninstance P = PA\n"
    ) == [(
        "P",
        ["c.0.0", "c.0.1", "c.0.2", "c.1.0", "c.1.1", "c.1.2",
         "c.2.0", "c.2.1", "c.2.2"],
        [["c.0.0 0", "c.1.1 0", "c.2.2 0"]],
        ["P"],
    )]


@pytest.mark.parametrize("event", ["c.x?x", "c?x?x", "c.(x + 1)?x"])
def test_input_may_not_rebind_a_variable_of_an_earlier_field(event):
    with pytest.raises(ParseError) as err:
        parse_network(
            "version 1\nchannel c : {0..1}.{0..2}\n"
            f"P(x) = {event} -> P(x)\n"
        )
    diag = err.value.diagnostics[0]
    assert diag.line == 3
    assert diag.message == "input variable 'x' is already used in an earlier field"


def test_hiding_renaming_interrupt_parse_and_compile():
    src = (
        "version 1\nchannel a\nchannel b\nchannel c\n"
        "Q = ((b -> SKIP) [[b <- c]] /\\ (c -> STOP))\n"
        "atom QA = alphabet {| b, c |} behaviour Q\n"
        "instance Q = QA\n"
    )
    net = net_of(src)
    lts = net[0].compiled()
    offers = names(lts.visible_initials(0))
    assert offers == ["c"]  # b renamed away; the interrupt adds another c
    hidden_src = (
        "version 1\nchannel a\nchannel b\n"
        "P = (a -> b -> P) \\ {a}\n"
        "atom PA = alphabet {| a, b |} behaviour P\n"
        "instance P = PA\n"
    )
    hidden = net_of(hidden_src)[0].compiled()
    assert names(hidden.visible_events()) == ["b"]


def emit_network(net):
    """Print an elaborated network back as a parseable model; definitions
    come out symbolically, components as singleton instances with exact
    alphabets."""
    env = next((c.env for c in net.components if c.env is not None), None)
    lines = [f"version {SCHEMA_VERSION}"]
    if env is not None:
        for name, value in sorted(env.constants.items()):
            lines.append(f"const {name} = {value}")
    by_channel = {}
    for e in sorted(net.sigma):
        parts = EVENTS.name(e).split(".")
        head = parts[0]
        fields = tuple(int(p) for p in parts[1:])
        by_channel.setdefault((head, len(fields)), set()).add(fields)
    for (head, arity), combos in sorted(by_channel.items()):
        if arity == 0:
            lines.append(f"channel {head}")
            continue
        domains = [sorted({c[i] for c in combos}) for i in range(arity)]
        rendered = ".".join("{" + ", ".join(str(v) for v in d) + "}" for d in domains)
        lines.append(f"channel {head} : {rendered}")
    if env is not None:
        for name, (params, body) in sorted(env.functions.items()):
            lines.append(f"fun {name}({', '.join(params)}) = {fmt_expr(body)}")
        for (name, _arity), d in sorted(env.definitions.items()):
            params = f"({', '.join(d.params)})" if d.params else ""
            lines.append(f"{name}{params} = {pretty(d.body)}")
    for idx, comp in enumerate(net.components):
        alpha = ", ".join(EVENTS.names(comp.alphabet))
        lines.append(
            f"atom C{idx} = alphabet {{ {alpha} }} behaviour {pretty(comp.term)}"
        )
        lines.append(f"instance {comp.name} = C{idx}")
    return "\n".join(lines) + "\n"


def test_round_trip_through_emission():
    for src in (
        models.ring_buffer_source(3),
        models.philosophers_source(3),
        bundled.read("two_ring.net"),
        bundled.read("client_server.net"),
        models.leadership_source(2),
    ):
        net = net_of(src)
        text = emit_network(net)
        net2 = net_of(text)
        assert net2.names() == net.names()
        assert net2.sigma == net.sigma
        for c1, c2 in zip(net.components, net2.components):
            assert c1.alphabet == c2.alphabet
            assert pretty(c2.term) == pretty(c1.term)
        # definitions survive verbatim (same bodies after re-parse)
        env1 = net.components[0].env
        env2 = net2.components[0].env
        assert {
            k: pretty(d.body) for k, d in env1.definitions.items()
        } == {k: pretty(d.body) for k, d in env2.definitions.items()}


def test_bundled_table_names_every_bundled_file():
    # a corpus that walks the table then sees every bundled model
    assert sorted(bundled.BUNDLED) == sorted(p.name for p in bundled.MODELS.iterdir())
    assert len(bundled.BUNDLED) == 10


def test_bundled_files_match_their_builders(tmp_path):
    import filecmp

    bundled.write_bundled(tmp_path)
    for name in bundled.BUNDLED:
        assert filecmp.cmp(
            tmp_path / name, bundled.MODELS / name, shallow=False
        ), f"{name} is stale; regenerate with bundled.write_bundled"


def test_descriptor_resolution_and_echo():
    net = net_of(models.philosophers_source(3))
    desc = parse_descriptor(models.philosophers_descriptor(3), net)
    assert desc.users == ["APhil.2", "Phil.0", "Phil.1"]
    assert desc.resources == ["Fork.0", "Fork.1", "Fork.2"]
    assert desc.acquire[("Phil.0", "Fork.0")] == event("pickup.0.0")
    echo = descriptor_echo(desc)
    assert "order(Phil.0) = ['Fork.0', 'Fork.1']" in echo


def test_async_dynamic_echo_keeps_the_list_order():
    """Send and receive lists pair up by index, so the echo prints them as
    given: ``snd.0.1.10`` last, and a reversed receive list reversed."""
    net = net_of(models.leadership_source(11))
    doc = models.leadership_descriptor(11)
    doc["connections"][0]["receive"].reverse()
    line = descriptor_echo(parse_descriptor(doc, net)).splitlines()[1]
    sends = [f"snd.0.1.{k}" for k in range(11)]
    assert line == (f"  Node.0 -> Node.1 via Bus.0.1: send {sends}, "
                    f"receive {[f'rcv.0.1.{k}' for k in reversed(range(11))]}")


def test_descriptor_unknown_component():
    net = net_of(models.philosophers_source(3))
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["resource"] = "Fork.9"
    with pytest.raises(UnknownComponent):
        parse_descriptor(doc, net)


def test_descriptor_unknown_event():
    net = net_of(models.philosophers_source(3))
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["acquire"] = "grab.0.0"
    with pytest.raises(UnknownEvent):
        parse_descriptor(doc, net)


def test_a_rejected_event_name_is_not_interned():
    """Interning a name shifts the ids, and so the counterexample
    tie-breaks, of every network built after it."""
    net = net_of(models.philosophers_source(3))
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["acquire"] = "Ghost.never.declared"
    assert EVENTS.lookup("Ghost.never.declared") is None
    count = len(EVENTS._names)
    with pytest.raises(UnknownEvent):
        parse_descriptor(doc, net)
    assert EVENTS.lookup("Ghost.never.declared") is None
    assert len(EVENTS._names) == count


def test_a_declared_event_no_alphabet_uses_is_accepted():
    source = models.philosophers_source(3).replace(
        "channel sit", "channel unused_idle : {0..N-1}\nchannel sit")
    net = net_of(source)
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["acquire"] = "unused_idle.1"
    assert EVENTS.lookup("unused_idle.1") is None
    desc = parse_descriptor(doc, net)
    assert desc.acquire[("Phil.0", "Fork.0")] == EVENTS.lookup("unused_idle.1")


def test_descriptor_duplicate_schedule():
    net = net_of(models.leadership_source(2))
    doc = models.leadership_descriptor(2)
    doc["schedule"]["Node.0"] = ["Node.1", "Node.1"]
    with pytest.raises(DuplicateName):
        parse_descriptor(doc, net)
