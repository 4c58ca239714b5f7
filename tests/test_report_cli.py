import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundled
import dpa
from conftest import CROSSED_MODEL
from dpa import models
from dpa.cli import main
from dpa.dsl import elaborate, parse_descriptor, parse_network
from dpa.events import event
from dpa.lts import compile_term
from dpa.network import CompileFailure, check_live, communication_graph
from dpa.oracle import DeadlockWitness, explore_global, snapshot_graph
from dpa.patterns import RaDescriptor
from dpa.report import (
    INCONCLUSIVE,
    InputError,
    PROVEN,
    emit_dot,
    emit_report_json,
    run_dpa,
)


def net_of(src):
    return elaborate(parse_network(src))


@pytest.fixture
def model_dir(tmp_path):
    bundled.write_bundled(tmp_path)
    return tmp_path


def test_ring_buffer_proven_by_decomposition_alone():
    net = net_of(models.ring_buffer_source(3))
    report = run_dpa(net, model_name="ringbuffer")
    assert report.overall == PROVEN
    assert report.reasons == []
    assert report.decomposition.all_singular
    assert set(report.timings) >= {"compile", "liveness", "bridges", "conflicts", "patterns"}


def test_components_compile_in_their_own_phase_in_order(monkeypatch):
    import dpa.network
    import dpa.report

    phases = []

    def live(net, limit):
        phases.append("liveness")
        return check_live(net, limit)

    def compiling(env, term, limit):
        phases.append("compile")
        return compile_term(env, term, limit)

    monkeypatch.setattr(dpa.report, "check_live", live)
    monkeypatch.setattr(dpa.network, "compile_term", compiling)
    net = net_of(models.ring_buffer_source(3))
    report = run_dpa(net)
    assert phases == ["compile"] * len(net) + ["liveness"]
    assert list(report.timings)[:2] == ["compile", "liveness"]
    # a compile error still names its component: here P.0 compiles and
    # P.1 reads an unbound variable
    broken = net_of(
        "version 1\nchannel a : {0..1}\n"
        "P(n) = (n == 1 & a.m -> STOP) [] a.n -> STOP\n"
        "atom PA = alphabet {| a |} behaviour P(id)\n"
        "instance P = PA {0..1}\n"
    )
    with pytest.raises(CompileFailure, match="unbound variable 'm'") as err:
        run_dpa(broken)
    assert err.value.component == "P.1"


def test_philosophers_proven_by_pattern():
    net = net_of(models.philosophers_source(3))
    desc = parse_descriptor(models.philosophers_descriptor(3), net)
    report = run_dpa(net, [desc])
    assert report.overall == PROVEN
    sub = report.subnetworks[0]
    assert sub.pattern == "resource-allocation"
    assert sub.verdict.adherent


def test_symmetric_philosophers_inconclusive_names_culprit():
    net = net_of(models.philosophers_source(3, symmetric=True))
    desc = parse_descriptor(models.philosophers_descriptor(3, symmetric=True), net)
    report = run_dpa(net, [desc], with_oracle=True)
    assert report.overall == INCONCLUSIVE
    assert any("Phil.2" in r and "acquisition-order" in r for r in report.reasons)
    assert isinstance(report.oracle, DeadlockWitness)


def test_failure_lines_and_reasons_name_who_what_and_why():
    # a structural predicate names no component, hence the double space
    net = net_of(models.philosophers_source(3))
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["release"] = doc["connections"][0]["acquire"]
    report = run_dpa(net, [parse_descriptor(doc, net)])
    sub = "subnetwork ['Phil.0', 'Phil.1', 'APhil.2', 'Fork.0', 'Fork.1', 'Fork.2']"
    assert "    FAIL  mutually_disjoint_events: acquire = release on ['pickup.0.0']" in (
        report.summary().splitlines())
    assert report.reasons[0] == (
        f"{sub}:  fails mutually_disjoint_events (acquire = release on ['pickup.0.0'])")
    # a behavioural failure without a note is explained by its counterexample
    src = models.philosophers_source(3).replace(
        "putdown.id.id -> putdown.id.next(id) -> getup.id -> Phil(id)",
        "putdown.id.next(id) -> putdown.id.id -> getup.id -> Phil(id)",
    )
    net = net_of(src)
    report = run_dpa(net, [parse_descriptor(models.philosophers_descriptor(3), net)])
    why = "trace violation: after <pickup.0.0, pickup.0.1> the implementation performs putdown.0.1"
    assert f"    FAIL Phil.0 UserSpec: {why}" in report.summary().splitlines()
    assert report.reasons[0] == f"{sub}: Phil.0 fails UserSpec ({why})"


def test_missing_descriptor_is_inconclusive():
    net = net_of(models.philosophers_source(3))
    report = run_dpa(net)
    assert report.overall == INCONCLUSIVE
    assert any("no pattern descriptor" in r for r in report.reasons)


def test_unmatched_descriptor_is_an_input_error():
    net = net_of(models.ring_buffer_source(3))
    phils = net_of(models.philosophers_source(3))
    desc = parse_descriptor(models.philosophers_descriptor(3), phils)
    with pytest.raises(InputError):
        run_dpa(net, [desc])


def test_report_json_round_trips():
    net = net_of(models.ring_buffer_source(3))
    report = run_dpa(net, with_oracle=True, model_name="rb")
    text = emit_report_json(report, net)
    data = json.loads(text)
    assert data["schema"] == 1
    assert data["overall"] == "proven"
    assert data["liveness"]["live"] is True
    assert data["oracle"]["result"] == "deadlock-free"
    assert {"liveness", "bridges", "conflicts", "patterns", "oracle"} <= set(
        data["timings"]
    )
    assert data["reasons"] == []
    assert "counterexample" not in text  # proven: nothing to show
    assert json.loads(json.dumps(data)) == data


def test_dot_for_communication_graph():
    net = net_of(models.ring_buffer_source(3))
    text = emit_dot(communication_graph(net))
    assert text.startswith("graph communication {")
    assert text.count(" -- ") == 3
    for name in net.names():
        assert f'"{name}"' in text


def test_dot_for_empty_graph():
    from dpa.network import CommGraph

    text = emit_dot(CommGraph(0, [], {}))
    assert text.splitlines() == ["graph communication {", "}"]


def test_dot_for_snapshot_cycle():
    net = net_of(models.philosophers_source(3, symmetric=True))
    witness = explore_global(net)
    snap = snapshot_graph(net, witness.state)
    text = emit_dot(snap)
    assert text.startswith("digraph snapshot {")
    assert text.count(" -> ") == 6


def test_dot_labels_are_pinned_for_both_graph_kinds():
    """Output recorded before the two writers were merged: only a
    communication edge marks events left out of its label."""
    from dpa.network import CommGraph
    from dpa.oracle import SnapshotGraph

    many = frozenset(event(f"dotlabel.{i}") for i in range(6))
    few = frozenset(event(f"dotlabel.{i}") for i in range(2))
    names = ["A", 'B"q', "C"]
    assert emit_dot(CommGraph(3, names, {(0, 1): many, (1, 2): few})) == (
        'graph communication {\n  "A";\n  "B\\"q";\n  "C";\n'
        '  "A" -- "B\\"q" [label="dotlabel.0, dotlabel.1, dotlabel.2, dotlabel.3, ..."];\n'
        '  "B\\"q" -- "C" [label="dotlabel.0, dotlabel.1"];\n}\n'
    )
    assert emit_dot(SnapshotGraph(3, names, {(2, 0): few, (0, 1): many})) == (
        'digraph snapshot {\n  "A";\n  "B\\"q";\n  "C";\n'
        '  "A" -> "B\\"q" [label="dotlabel.0, dotlabel.1, dotlabel.2, dotlabel.3"];\n'
        '  "C" -> "A" [label="dotlabel.0, dotlabel.1"];\n}\n'
    )


def test_cli_check_exit_codes_stable(model_dir, capsys):
    model = str(model_dir / "ringbuffer.net")
    codes = [main(["check", model]) for _ in range(2)]
    assert codes == [0, 0]
    out = capsys.readouterr().out
    assert "overall: PROVEN" in out

    phl = str(model_dir / "philosophers.net")
    pat = str(model_dir / "philosophers.pattern.json")
    assert main(["check", phl, "--pattern", pat]) == 0
    assert main(["check", phl]) == 1  # no descriptor: inconclusive


def test_cli_input_error_exit_code(model_dir, tmp_path, capsys):
    bogus = tmp_path / "broken.net"
    bogus.write_text("version 1\nchannel a\nP = ->\n")
    assert main(["check", str(bogus)]) == 2
    assert main(["check", str(model_dir / "nope.net")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_filesystem_mistakes_exit_2_with_one_line(model_dir, tmp_path, capsys):
    model = str(model_dir / "ringbuffer.net")
    a_file = tmp_path / "a_file"
    a_file.write_text("")

    def line(cls, code, path):
        return f"error: {cls(code, os.strerror(code), str(path))}\n"

    for argv, expected in [
        (["check", str(model_dir / "nope.net")],
         line(FileNotFoundError, errno.ENOENT, model_dir / "nope.net")),
        (["check", str(tmp_path)], line(IsADirectoryError, errno.EISDIR, tmp_path)),
        (["check", model, "--json", str(tmp_path)],
         line(IsADirectoryError, errno.EISDIR, tmp_path)),
        (["decompose", model, "--dot-dir", str(a_file)],
         line(FileExistsError, errno.EEXIST, a_file)),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == expected


@pytest.fixture
def empty_ids_models(tmp_path):
    """A model whose instance X has an empty id set, and the same model
    without X."""
    model = tmp_path / "empty_ids.net"
    model.write_text(
        "version 1\nchannel a\nP = a -> P\n"
        "atom PA = alphabet {| a |} behaviour P\n"
        "instance P = PA\ninstance X = PA {1..0}\n"
    )
    quiet = tmp_path / "quiet.net"
    quiet.write_text(model.read_text().replace("instance X = PA {1..0}\n", ""))
    return model, quiet


def test_cli_prints_elaboration_warnings(empty_ids_models, capsys):
    model, quiet = empty_ids_models
    for command in ("check", "decompose", "oracle"):
        runs = []
        for path in (model, quiet):
            code = main([command, str(path)])
            captured = capsys.readouterr()
            runs.append((code, captured.out.replace(str(path), "MODEL"), captured.err))
        (code, out, err), (quiet_code, quiet_out, quiet_err) = runs
        assert (code, out) == (quiet_code, quiet_out)
        assert quiet_err == ""
        assert err == "warning: instance 'X' has an empty id set\n"


def test_json_report_carries_elaboration_warnings(empty_ids_models, tmp_path, capsys):
    reports = []
    for path in empty_ids_models:
        out_json = tmp_path / "report.json"
        assert main(["check", str(path), "--json", str(out_json)]) == 0
        reports.append(json.loads(out_json.read_text()))
    capsys.readouterr()
    warned, plain = reports
    assert warned.pop("warnings") == ["instance 'X' has an empty id set"]
    assert "warnings" not in plain  # the key appears only with a warning
    for report in reports:
        del report["model"], report["timings"]
    assert warned == plain


def test_cli_decompose_and_dot_output(model_dir, tmp_path, capsys):
    model = str(model_dir / "ringbuffer.net")
    dot_dir = tmp_path / "dots"
    out_json = tmp_path / "dec.json"
    code = main([
        "decompose", model, "--dot-dir", str(dot_dir), "--json", str(out_json)
    ])
    assert code == 0
    assert (dot_dir / "communication.dot").read_text().count(" -- ") == 3
    # all three bridges were conflict free and removed
    assert (dot_dir / "essential.dot").read_text().count(" -- ") == 0
    data = json.loads(out_json.read_text())
    assert data["all_singular"] is True
    assert len(data["checks"]) == 3


def test_cli_conflict_subcommand(model_dir, capsys):
    model = str(model_dir / "two_ring.net")
    assert main(["conflict", model, "C0", "C3"]) == 0
    assert main(["conflict", model, "0", "3"]) == 0
    out = capsys.readouterr().out
    assert "conflict-free" in out


def test_cli_conflict_rejects_one_component_twice(model_dir, capsys):
    model = str(model_dir / "ringbuffer.net")
    assert main(["conflict", model, "0", "0"]) == 2
    assert main(["conflict", model, "Controller", "0"]) == 2
    captured = capsys.readouterr()
    assert "possible-conflict" not in captured.out
    assert "cannot conflict with itself" in captured.err


@pytest.mark.parametrize("index", ["99", "4", "-1"])
def test_cli_conflict_rejects_out_of_range_index(model_dir, capsys, index):
    model = str(model_dir / "ringbuffer.net")
    assert main(["conflict", model, "0", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"component index {index} is out of range 0..3" in captured.err


@pytest.mark.parametrize("definition, behaviour, error", [
    ("P = a.x -> P", "P",
     "component 'P' failed to compile: unbound variable 'x'"),
    ("Q = b -> Nope", "Q",
     "component 'P' failed to compile: no definition for Nope/0"),
    ("", "a.x -> STOP", "behaviour of 'P': unbound variable 'x'"),
    ("Q = a?x -> (x == 1 & a.y -> Q [] b -> Q)", "Q",
     "component 'P' failed to compile: unbound variable 'y'"),
    ("channel c\nQ = b -> c -> Q", "Q",
     "component 'P' has transitions outside the declared alphabet: c"),
    # inputs are checked against the channels even where no instance reaches
    ("Q = d?x -> Q", "b -> STOP", "undeclared channel 'd'"),
    ("Q = a.0?x -> Q", "Q", "channel 'a' has no field 1"),
    ("atom QA = alphabet {| a |} behaviour d?x -> STOP", "b -> STOP",
     "undeclared channel 'd'"),
    ("Q = a.0 -> $Q -- trailing", "Q", "4:12: stray character '$'"),
], ids=["unbound-variable", "undefined-process", "unbound-in-atom", "unbound-in-one-branch",
        "outside-alphabet", "input-on-undeclared-channel", "input-past-the-last-field",
        "input-in-an-atom-no-instance-uses", "stray-character"])
def test_cli_model_mistake_exits_2(tmp_path, capsys, definition, behaviour, error):
    model = tmp_path / "mistake.net"
    model.write_text(
        "version 1\nchannel a : {0..1}\nchannel b\n"
        f"{definition}\n"
        f"atom PA = alphabet {{| a, b |}} behaviour {behaviour}\n"
        "instance P = PA\n"
    )
    assert main(["check", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("alphabet, error", [
    ("{ c }", "event c needs all fields in exact form"),
    ("{ d.0 }", "undeclared channel 'd'"),
    ("{| d |}", "undeclared channel 'd'"),
    ("{| c.0.1 |}", "channel 'c' has 1 fields, got 2"),
], ids=["exact-missing-field", "exact-undeclared-channel", "extend-undeclared-channel",
        "extend-too-many-fields"])
def test_cli_alphabet_mistake_exits_2(tmp_path, capsys, alphabet, error):
    model = tmp_path / "mistake.net"
    model.write_text(
        "version 1\nchannel c : {0..1}\nP = c.0 -> P\n"
        f"atom PA = alphabet {alphabet} behaviour P\ninstance P = PA\n"
    )
    assert main(["check", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


EXPRESSION_MODEL = """version 1
const X = 1
channel a : {0..1}
channel c : {0..1}
P = a.0 -> P
atom PA = alphabet {| a |} behaviour P
instance P = PA {0..0}
"""


@pytest.mark.parametrize("old, new, error", [
    ("const X = 1", "const X = Y", "constant 'X': unbound variable 'Y'"),
    ("const X = 1", "const X = 1 / 0", "constant 'X': division by zero: 1 / 0"),
    ("c : {0..1}", "c : {0..4 % 0}", "channel 'c': division by zero: 4 % 0"),
    ("{0..0}", "{0..1 / 0}", "instance 'P': division by zero: 1 / 0"),
    ("a.0 -> P", "a.(1 / 0) -> P",
     "component 'P.0' failed to compile: division by zero: 1 / 0"),
    ("behaviour P", "behaviour a.(2 % 0) -> P",
     "behaviour of 'P.0': division by zero: 2 % 0"),
    ("{| a |}", "{| a.(1 / 0) |}", "alphabet of 'P.0': division by zero: 1 / 0"),
    # functions are defined before constants, which are evaluated in order
    ("const X = 1", "fun f(x) = x + K\nconst X = f(1)\nconst K = 2",
     "constant 'X': unbound variable 'K'"),
    ("const X = 1", "fun f(x) = f(x)\nconst X = f(1)",
     "constant 'X': function 'f': calls nested deeper than 100"),
], ids=["unbound-constant", "zero-in-constant", "zero-in-channel-range", "zero-in-id-set",
        "zero-in-definition", "zero-in-atom-behaviour", "zero-in-alphabet",
        "later-constant-in-function", "function-calling-itself"])
def test_cli_expression_mistake_exits_2(tmp_path, capsys, old, new, error):
    # each mistake is reported with the declaration that holds it
    assert EXPRESSION_MODEL.count(old) == 1
    model = tmp_path / "mistake.net"
    model.write_text(EXPRESSION_MODEL.replace(old, new))
    assert main(["check", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_cli_a_constant_may_call_a_function(tmp_path, capsys):
    text = EXPRESSION_MODEL.replace("const X = 1", "fun dbl(x) = 2 * x\nconst X = dbl(2)")
    assert elaborate(parse_network(text))[0].env.constants["X"] == 4
    model = tmp_path / "function.net"
    model.write_text(text)
    assert main(["check", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("overall: PROVEN\n")
    assert captured.err == ""


def test_cli_proves_a_chain_of_2000_prefixes(tmp_path, capsys):
    # the parser reads a run of prefixes in one loop and elaboration walks
    # the chain down and back up, so no layer spends a frame per prefix
    model = tmp_path / "chain.net"
    model.write_text("version 1\nchannel a\nP = " + "a -> " * 2000 + "P\n"
                     "atom PA = alphabet { a } behaviour P\ninstance X = PA\n")
    assert main(["check", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("overall: PROVEN\n")
    assert captured.err == ""


def nested_choices(depth):
    """``(a -> P [] (a -> P [] ... a -> P))``, ``depth`` parentheses deep."""
    return "(a -> P [] " * depth + "a -> P" + ")" * depth


def nested_indexed_choices(depth, parenthesised=False):
    """``[] x : {0..0} @ ... a -> P``, ``depth`` choices deep, each one in
    parentheses when ``parenthesised``."""
    if parenthesised:
        return "([] x : {0..0} @ " * depth + "a -> P" + ")" * depth
    return "[] x : {0..0} @ " * depth + "a -> P"


@pytest.mark.parametrize("body", ["1 == 1 & a -> " * 1000 + "P", nested_choices(150),
                                  nested_indexed_choices(150),
                                  "a -> P -- no newline after this comment"],
                         ids=["1000-guarded-prefixes", "150-nested-parentheses",
                              "150-nested-indexed-choices", "comment-on-the-last-line"])
def test_cli_proves_a_guard_run_and_the_deepest_nesting(tmp_path, capsys, body):
    # binding walks a run of guards in the prefix loop; 150 levels is the
    # deepest nesting the parser takes; no newline follows the last line
    model = tmp_path / "deep.net"
    model.write_text("version 1\nchannel a\natom PA = alphabet { a } behaviour P\n"
                     f"instance X = PA\nP = {body}")
    assert main(["check", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("overall: PROVEN\n")
    assert captured.err == ""


@pytest.mark.parametrize("depth", [151, 1000])
def test_cli_rejects_parentheses_nested_deeper_than_150(tmp_path, capsys, depth):
    model = tmp_path / "deep.net"
    model.write_text(f"version 1\nchannel a\nP = {nested_choices(depth)}\n")
    assert main(["check", str(model)]) == 2
    column = len("P = ") + len("(a -> P [] ") * 150 + 1
    assert capsys.readouterr().err == f"error: 3:{column}: nested deeper than 150\n"


@pytest.mark.parametrize("body, column", [
    (nested_indexed_choices(1000), len("P = ") + len("[] x : {0..0} @ ") * 150 + 1),
    # a parenthesis and an indexed choice each open a level
    (nested_indexed_choices(150, parenthesised=True),
     len("P = ") + len("([] x : {0..0} @ ") * 75 + 1),
], ids=["1000-indexed-choices", "150-parentheses-around-150-indexed-choices"])
def test_cli_rejects_indexed_choices_nested_deeper_than_150(tmp_path, capsys, body, column):
    model = tmp_path / "deep.net"
    model.write_text(f"version 1\nchannel a\nP = {body}\n")
    assert main(["check", str(model)]) == 2
    assert capsys.readouterr().err == f"error: 3:{column}: nested deeper than 150\n"


UNARY_MODEL = """version 1
const M = {}
channel a
P = a -> P
atom PA = alphabet {{ a }} behaviour P
instance X = PA
"""


def test_cli_proves_a_constant_of_150_unary_minus_signs(tmp_path, capsys):
    model = tmp_path / "unary.net"
    model.write_text(UNARY_MODEL.format("- " * 150 + "1"))
    assert main(["check", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("overall: PROVEN\n")
    assert captured.err == ""


@pytest.mark.parametrize("op", ["- ", "not "], ids=["minus", "not"])
def test_cli_rejects_1000_unary_operators_in_a_constant(tmp_path, capsys, op):
    model = tmp_path / "unary.net"
    model.write_text(UNARY_MODEL.format(op * 1000 + "1"))
    assert main(["check", str(model)]) == 2
    column = len("const M = ") + len(op) * 150 + 1
    assert capsys.readouterr().err == f"error: 2:{column}: nested deeper than 150\n"


def plus_chain(terms):
    return "+".join(["1"] * terms)


@pytest.mark.parametrize("terms", [150, 151])
def test_cli_proves_a_constant_of_up_to_150_additions(tmp_path, capsys, terms):
    # each folded binary operator opens one level, like a unary one
    model = tmp_path / "sum.net"
    model.write_text(UNARY_MODEL.format(plus_chain(terms)))
    assert main(["check", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("overall: PROVEN\n")
    assert captured.err == ""


SUM_MODEL = """version 1
const M = {}
channel a : {{0..1}}
P = a.0 -> P
atom PA = alphabet {{| a.({}) |}} behaviour P
instance X = PA
"""


@pytest.mark.parametrize("constant, field, line, levels_before", [
    (plus_chain(3000), "0", 2, 0),
    # the parenthesis around the field opens the first level
    ("1", plus_chain(3000), 5, 1),
], ids=["constant", "alphabet"])
def test_cli_rejects_a_sum_of_3000_terms(tmp_path, capsys, constant, field, line,
                                         levels_before):
    model = tmp_path / "sum.net"
    text = SUM_MODEL.format(constant, field)
    model.write_text(text)
    assert main(["check", str(model)]) == 2
    # the error points at the operator that opens level 151
    source_line = text.splitlines()[line - 1]
    column = source_line.index("1+") + len("1+") * (150 - levels_before) + 2
    assert capsys.readouterr().err == f"error: {line}:{column}: nested deeper than 150\n"


def test_cli_conflict_prints_the_counterexample(tmp_path, capsys):
    model = tmp_path / "crossed.net"
    model.write_text(CROSSED_MODEL)
    assert main(["conflict", str(model), "P", "Q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "edge P -- Q: possible-conflict\n"
        "  revival violation: after <> the implementation offers req while refusing {a, b}\n"
    )
    assert captured.err == ""


def test_cli_state_limit_hit_while_compiling(model_dir, capsys):
    model = str(model_dir / "ringbuffer.net")
    assert main(["check", model, "--state-limit", "3"]) == 2
    err = capsys.readouterr().err
    assert "state limit of 3 states exceeded" in err
    assert "(raise --state-limit)" in err


@pytest.mark.parametrize("command, extra", [
    ("check", []),
    ("decompose", []),
    ("conflict", ["0", "1"]),
    ("pattern", ["philosophers.pattern.json"]),
    ("oracle", []),
    ("bench", None),
])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_cli_rejects_state_limit_below_one(model_dir, capsys, command, extra, limit):
    if extra is None:
        argv = [command, "philosophers:3"]
    else:
        argv = [command, str(model_dir / "philosophers.net")]
        argv += [str(model_dir / a) if a.endswith(".json") else a for a in extra]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--state-limit", limit])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --state-limit: must be at least 1, got {limit}\n" in captured.err


@pytest.mark.parametrize("argv, error", [
    (["bench", "philosophers"], "bench spec needs sizes, e.g. philosophers:3,5,10"),
    (["bench", "philosophers:a"], "bench spec 'philosophers:a': size 'a' is not an integer"),
    (["bench", "nofam:3"],
     "unknown family 'nofam'; pick one of ('philosophers', 'ringbuffer', 'leadership')"),
    (["conflict", "philosophers.net", "0", "2"],
     "components Phil.0 and APhil.2 share no event"),
    (["conflict", "philosophers.net", "nosuch", "1"], "unknown component 'nosuch'"),
    (["pattern", "philosophers.net", "bad.pattern.json"],
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["pattern", "philosophers.net", "missing.pattern.json"],
     "each connection needs a field 'user'"),
    (["pattern", "philosophers.net", "philosophers.pattern.json", "--scope", "Fork.0"],
     "descriptor references 'APhil.2' outside the checked scope"),
    (["pattern", "philosophers.net", "philosophers.pattern.json",
      "--scope", "APhil.2,Phil.0,Phil.1,Fork.0,Fork.1,Fork.2,Nope"],
     "unknown component 'Nope'"),
    (["pattern", "client_server.net", "client_server.pattern.json",
      "--scope", "C0,C1,C2,Nope"], "unknown component 'Nope'"),
    (["pattern", "leadership.net", "leadership.pattern.json",
      "--scope", "Bus.0.1,Bus.1.0,Node.0,Node.1,Nope"], "unknown component 'Nope'"),
    (["check", "extend_out_of_domain.net"], "component alphabets must lie inside sigma"),
    (["decompose", "exact_out_of_domain.net"], "component alphabets must lie inside sigma"),
    (["pattern", "philosophers.net", "list.pattern.json"],
     "the descriptor must be an object"),
    (["pattern", "philosophers.net", "int_connection.pattern.json"],
     "each connection must be an object"),
    (["pattern", "philosophers.net", "list_order.pattern.json"],
     "field 'order' must be an object"),
    (["pattern", "philosophers.net", "int_resource_order.pattern.json"],
     "field 'resource_order' must be a list"),
    (["pattern", "philosophers.net", "int_acquire.pattern.json"],
     "each name in 'acquire' must be a string"),
    (["pattern", "philosophers.net", "empty_ra.pattern.json"],
     "the descriptor names no component"),
    (["pattern", "client_server.net", "empty_cs.pattern.json"],
     "the descriptor names no component"),
    (["pattern", "leadership.net", "empty_ad.pattern.json"],
     "the descriptor names no component"),
    (["check", "client_server.net", "--pattern", "empty_cs.pattern.json"],
     "the descriptor names no component"),
    (["check", "duplicate.net"], "component name 'X.0' is declared twice (by instance 'X')"),
], ids=["no-sizes", "bad-size", "bad-family", "no-shared-event", "unknown-name",
        "malformed-json", "missing-field", "outside-scope", "unknown-in-scope-ra",
        "unknown-in-scope-cs", "unknown-in-scope-ad", "extend-out-of-domain",
        "exact-out-of-domain", "descriptor-not-object", "connection-not-object",
        "order-not-object", "resource-order-not-list", "event-not-string",
        "empty-resource-allocation", "empty-client-server", "empty-async-dynamic",
        "check-empty-client-server", "duplicate-component"])
def test_cli_input_errors_keep_their_lines(model_dir, capsys, argv, error):
    (model_dir / "bad.pattern.json").write_text("{not json")
    (model_dir / "missing.pattern.json").write_text(json.dumps(
        {"pattern": "resource-allocation", "connections": [{"resource": "Fork.0"}]}
    ))
    ra = {"pattern": "resource-allocation"}
    for name, doc in [
        ("list", []),
        ("int_connection", {**ra, "connections": [1]}),
        ("list_order", {**ra, "order": []}),
        ("int_resource_order", {**ra, "resource_order": 3}),
        ("int_acquire", {**ra, "connections": [{
            "user": "Phil.0", "resource": "Fork.0", "acquire": 5, "release": "putdown.0.0",
        }]}),
        ("empty_ra", ra),
        ("empty_cs", {"pattern": "client-server"}),
        ("empty_ad", {"pattern": "async-dynamic"}),
    ]:
        (model_dir / f"{name}.pattern.json").write_text(json.dumps(doc))
    # instance U.2 names get.2, outside the channel's domain {0..1}
    for form, alphabet in [("extend", "{| get.id |}"), ("exact", "{ get.id }")]:
        (model_dir / f"{form}_out_of_domain.net").write_text(
            "version 1\nchannel get : {0..1}\nU(id) = get.id -> U(id)\n"
            f"atom UA = alphabet {alphabet} behaviour U(id)\ninstance U = UA {{0..2}}\n"
        )
    # the id set {0, 0} names X.0 twice
    (model_dir / "duplicate.net").write_text(
        "version 1\nchannel a\nP = a -> P\natom PA = alphabet { a } behaviour P\n"
        "instance X = PA {0, 0}\n"
    )
    argv = [str(model_dir / a) if a.endswith((".net", ".json")) else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


RA_CONNECTION = {"user": "Phil.0", "resource": "Fork.0",
                 "acquire": "pickup.0.0", "release": "putdown.0.0"}
CS_CONNECTION = {"client": "C1", "server": "C0", "requests": ["req10"]}
AD_CONNECTION = {"from": "Node.0", "to": "Node.1", "transport": "Bus.0.1",
                 "send": ["snd.0.1.0"], "receive": ["rcv.0.1.0"],
                 "on": "on.0.1", "off": "off.0.1", "timeout": "to.0.1"}


def _renamed(doc, old, new):
    """``doc`` with its top-level field ``old`` renamed ``new``."""
    doc = dict(doc)
    doc[new] = doc.pop(old)
    return doc


def _misspelt_acquire():
    """The bundled philosophers descriptor with a misspelt extra field on
    its first connection."""
    doc = models.philosophers_descriptor(3)
    doc["connections"][0]["aquire"] = doc["connections"][0]["acquire"]
    return doc


@pytest.mark.parametrize("model, doc, error", [
    ("philosophers", {"connections": [RA_CONNECTION]},
     "no acquisition order for user 'Phil.0'"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": ["Fork.1"]}},
     "order of 'Phil.0' mentions unconnected 'Fork.1'"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": []}},
     "order of 'Phil.0' must cover exactly its connected resources"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": ["Fork.0"]}},
     "resource order does not rank 'Fork.0'"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": ["Fork.0", "Fork.0"]},
                      "resource_order": ["Fork.0"]},
     "order of 'Phil.0' repeats a resource"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": ["Fork.0"]},
                      "resource_order": ["Fork.0", "Fork.0"]},
     "resource order repeats a resource"),
    ("philosophers", {"connections": [RA_CONNECTION], "order": {"Phil.0": ["Fork.0"]},
                      "resource_order": ["Ghost", "Fork.0"]},
     "resource order mentions unconnected 'Ghost'"),
    ("philosophers", {"connections": [RA_CONNECTION], "resource_order": ["Fork.0"],
                      "order": {"Phil.0": ["Fork.0"], "Fork.0": ["Fork.0"]}},
     "order names 'Fork.0', which is no user"),
    ("client_server", {"pattern": "client-server",
                       "connections": [{"client": "C1", "server": "C0", "requests": []}]},
     "connection C1->C0 declares no request events"),
    ("client_server", {"pattern": "client-server", "connections": [CS_CONNECTION],
                       "component_order": ["C1", "C0", "C1"]},
     "component order repeats a component"),
    ("client_server", {"pattern": "client-server", "connections": [CS_CONNECTION],
                       "component_order": ["Ghost", "C1", "C0"]},
     "component order mentions unconnected 'Ghost'"),
    ("leadership", {"pattern": "async-dynamic", "connections": [
        AD_CONNECTION, {**AD_CONNECTION, "from": "Node.1", "to": "Node.0"}]},
     "transport 'Bus.0.1' linked to both ('Node.0', 'Node.1') and ('Node.1', 'Node.0')"),
    ("leadership", {"pattern": "async-dynamic", "connections": [
        {**AD_CONNECTION, "send": ["snd.0.1.0", "snd.0.1.1"]}]},
     "send/receive lists of Node.0->Node.1 must pair up (same length)"),
    ("leadership", {"pattern": "async-dynamic", "connections": [
        {**AD_CONNECTION, "send": [], "receive": []}]},
     "connection Node.0->Node.1 declares no data events"),
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.1": ["Node.0"]}},
     "no schedule for participant 'Node.0'"),
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.0": [], "Node.1": ["Node.0"]}},
     "schedule of 'Node.0' names no peer it is connected to"),
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.0": ["Node.1", "Node.1"], "Node.1": ["Node.0"]}},
     "schedule of 'Node.0' repeats a peer"),
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.0": ["Node.1"], "Node.1": ["Node.0"],
                                 "Bus.0.1": ["Node.0"]}},
     "schedule names 'Bus.0.1', which is no participant"),
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.0": ["Node.1", "Bus.0.1"], "Node.1": ["Node.0"]}},
     "schedule of 'Node.0' mentions unconnected 'Bus.0.1'"),
    ("client_server", {"pattern": "client-server", "connections": [CS_CONNECTION],
                       "responses": {"req10": ["res10"], "res10": []}},
     "responses names 'res10', which is no request"),
    # its participant spec would loop through SR /\ (SKIP |~| STOP) silently
    ("leadership", {"pattern": "async-dynamic", "connections": [AD_CONNECTION],
                    "schedule": {"Node.0": ["Node.1"], "Node.1": ["Node.0"]}},
     "participant 'Node.1' has no outgoing connection"),
    ("philosophers", {"schema": 2}, "unsupported descriptor schema 2"),
    ("philosophers", {"pattern": "ring"}, "unknown pattern 'ring'"),
    ("philosophers", {"connections": [RA_CONNECTION, {**RA_CONNECTION, "acquire": "pickup.0.1"}]},
     "connection Phil.0->Fork.0 appears twice"),
    ("client_server", {"pattern": "client-server", "connections": [
        CS_CONNECTION, {**CS_CONNECTION, "requests": ["req20"]}]},
     "connection C1->C0 appears twice"),
    ("leadership", {"pattern": "async-dynamic", "connections": [
        AD_CONNECTION, {**AD_CONNECTION, "transport": "Bus.1.0"}]},
     "connection Node.0->Node.1 appears twice"),
    ("client_server", _renamed(bundled.client_server_descriptor(), "responses", "response"),
     "unknown descriptor field 'response'"),
    ("client_server",
     _renamed(bundled.client_server_descriptor(), "component_order", "component-order"),
     "unknown descriptor field 'component-order'"),
    ("philosophers", _misspelt_acquire(), "unknown connection field 'aquire'"),
    ("philosophers", {**models.philosophers_descriptor(3), "schema": True},
     "unsupported descriptor schema True"),
    ("philosophers", {**models.philosophers_descriptor(3), "schema": 1.0},
     "unsupported descriptor schema 1.0"),
], ids=["no-order", "order-names-unconnected", "order-misses-a-resource", "unranked-resource",
        "order-repeats-a-resource", "resource-order-repeats", "resource-order-names-unconnected",
        "order-keyed-by-a-non-user",
        "no-requests", "component-order-repeats", "component-order-names-unconnected",
        "transport-linked-twice", "send-receive-unpaired", "no-data-events",
        "no-schedule", "unconnected-schedule", "schedule-repeats-a-peer",
        "schedule-keyed-by-a-non-participant", "schedule-names-unconnected",
        "responses-keyed-by-a-non-request", "participant-without-outgoing-connection",
        "unsupported-schema", "unknown-pattern",
        "repeated-user-resource-pair", "repeated-client-server-pair",
        "repeated-sender-receiver-pair", "unknown-field", "misspelt-component-order",
        "unknown-connection-field", "boolean-schema", "float-schema"])
def test_cli_pattern_rejects_a_malformed_descriptor(model_dir, capsys, model, doc, error):
    descriptor = model_dir / "malformed.pattern.json"
    descriptor.write_text(json.dumps({"pattern": "resource-allocation", **doc}))
    assert main(["pattern", str(model_dir / f"{model}.net"), str(descriptor)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_cli_internal_value_error_is_not_an_input_error(model_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("dpa.cli.run_dpa", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["check", str(model_dir / "ringbuffer.net")])


def test_cli_internal_key_error_in_a_descriptor_is_not_an_input_error(model_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(RaDescriptor, "__init__", broken)
    model = str(model_dir / "philosophers.net")
    with pytest.raises(KeyError, match="internal"):
        main(["pattern", model, str(model_dir / "philosophers.pattern.json")])


def test_cli_oracle_state_limit_bounds_only_the_product(model_dir, capsys):
    model = str(model_dir / "ringbuffer.net")
    assert main(["oracle", model, "--state-limit", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "state limit of 50 states reached (29 expanded, 21 on the frontier)\n"
    )
    assert captured.err == ""
    assert main(["oracle", str(model_dir / "philosophers.net"), "--state-limit", "50"]) == 1
    assert capsys.readouterr().out == (
        "state limit of 50 states reached (34 expanded, 16 on the frontier)\n"
    )
    assert main(["check", model, "--oracle", "--state-limit", "200"]) == 0
    assert (
        "oracle: state limit of 200 states reached (160 expanded, 40 on the frontier)\n"
        in capsys.readouterr().out
    )
    sym = str(model_dir / "philosophers_symmetric.net")
    assert main(["oracle", sym]) == 1
    assert capsys.readouterr().out == (
        "deadlock after <sit.0, pickup.0.0, sit.1, pickup.1.1, sit.2, pickup.2.2>\n"
        "ungranted-request cycle: Phil.0 -> Fork.1 -> Phil.1 -> Fork.2 -> Phil.2 -> Fork.0\n"
    )


def test_cli_pattern_subcommand(model_dir, capsys):
    model = str(model_dir / "client_server.net")
    pat = str(model_dir / "client_server.pattern.json")
    assert main(["pattern", model, pat]) == 0
    out = capsys.readouterr().out
    assert "adherent: True" in out
    assert main(["pattern", model, pat, "--scope", "C0,C1,C2"]) == 0


def test_cli_oracle_warns_on_non_live_model(tmp_path, capsys):
    model = tmp_path / "dead.net"
    model.write_text(
        "version 1\nchannel a\n"
        "atom DA = alphabet {| a |} behaviour STOP\n"
        "atom LA = alphabet {| a |} behaviour L\nL = a -> L\n"
        "instance D = DA\ninstance L2 = LA\n"
    )
    code = main(["oracle", str(model)])
    captured = capsys.readouterr()
    assert "not live" in captured.err
    assert code == 1  # the dead component deadlocks the composition


def test_cli_oracle_subcommand(model_dir, tmp_path, capsys):
    sym = str(model_dir / "philosophers_symmetric.net")
    out_json = tmp_path / "oracle.json"
    code = main(["oracle", sym, "--json", str(out_json), "--dot-dir", str(tmp_path / "d")])
    assert code == 1
    data = json.loads(out_json.read_text())
    assert data["result"] == "deadlock"
    assert len(data["cycle"]) == 6
    assert (tmp_path / "d" / "snapshot.dot").exists()
    out = capsys.readouterr().out
    assert "deadlock after" in out


def test_cli_bench_subcommand(capsys, monkeypatch):
    assert main(["bench", "philosophers:3:oracle=3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "philosophers"
    assert data["rows"][0]["proven"] is True
    assert data["rows"][0]["oracle_result"] == "DeadlockFree"
    assert data["rows"][0]["context_states"] == 0  # a ring: no bridge
    runs = []
    for _ in range(2):
        assert main(["bench", "ringbuffer:3"]) == 0
        runs.append(json.loads(capsys.readouterr().out)["rows"][0])
    assert runs[0]["context_states"] > 0
    assert runs[0]["context_states"] == runs[1]["context_states"]
    # each repeat runs on a freshly built network
    import dpa.bench

    built = []
    original = dpa.bench.build_family

    def building(family, size):
        built.append((family, size))
        return original(family, size)

    monkeypatch.setattr(dpa.bench, "build_family", building)
    assert main(["bench", "ringbuffer:2,3", "--repeat", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert built == [("ringbuffer", 2)] * 2 + [("ringbuffer", 3)] * 2
    assert [r["size"] for r in rows] == [2, 3]
    for row in rows:
        assert 0 < row["dpa_seconds_min"] <= row["dpa_seconds"]
        assert 0 < row["build_seconds_min"] <= row["build_seconds"]
        assert row["proven"] and row["context_states"] > 0
    # a family of 200 components, whose alphabets are planned once per atom
    built.clear()
    assert main(["bench", "philosophers:100", "--repeat", "2"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert built == [("philosophers", 100)] * 2
    assert row["proven"] and row["size"] == 100
    # so does each oracle repeat, after the repeats of run_dpa
    built.clear()
    assert main(["bench", "philosophers:3:oracle=3", "--repeat", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert built == [("philosophers", 3)] * 6
    assert 0 < row["oracle_seconds_min"] <= row["oracle_seconds"]
    assert row["oracle_result"] == "DeadlockFree"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "ringbuffer:3", "--repeat", "0"])
    assert exc.value.code == 2
    assert "--repeat: must be at least 1, got 0" in capsys.readouterr().err



@pytest.mark.parametrize("spec, error", [
    ("ringbuffer:0", "ringbuffer needs sizes of at least 1, got 0"),
    ("ringbuffer:-1", "ringbuffer needs sizes of at least 1, got -1"),
    ("philosophers:0", "philosophers needs sizes of at least 2, got 0"),
    ("philosophers:3,1", "philosophers needs sizes of at least 2, got 1"),
    ("leadership:1", "leadership needs sizes of at least 2, got 1"),
    ("philosophers:2:oracle=5", "oracle sizes [5] are not among the sizes [2]"),
    ("ringbuffer:", "bench spec needs sizes, e.g. philosophers:3,5,10"),
    ("ringbuffer:2:oracle=2:junk", "bench spec has an extra part 'junk'"),
    ("ringbuffer:x", "bench spec 'ringbuffer:x': size 'x' is not an integer"),
    ("ringbuffer:2:oracle=2,junk",
     "bench spec 'ringbuffer:2:oracle=2,junk': oracle size 'junk' is not an integer"),
    ("ringbuffer:2:junk", "bench spec part 'junk' must start with 'oracle='"),
    ("ringbuffer:2:2", "bench spec part '2' must start with 'oracle='"),
], ids=["ringbuffer-0", "ringbuffer-negative", "philosophers-0", "philosophers-1-of-two",
        "leadership-1", "oracle-size-not-listed", "empty-size-list", "extra-part",
        "size-not-an-integer", "oracle-size-not-an-integer", "part-without-oracle-prefix",
        "oracle-sizes-without-prefix"])
def test_cli_bench_rejects_sizes_that_build_no_family_network(capsys, spec, error):
    assert main(["bench", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_cli_bench_runs_each_family_at_its_least_size(capsys):
    for spec in ("ringbuffer:1", "philosophers:2:oracle=2", "leadership:2:oracle=2"):
        assert main(["bench", spec]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["proven"] is True
        assert row.get("oracle_result", "DeadlockFree") == "DeadlockFree"


@pytest.mark.parametrize("spec, owners", [
    ("leadership:7", 2), ("ringbuffer:12", 13), ("philosophers:2,50", 3)])
def test_cli_bench_counts_the_components_compiled_on_their_own(capsys, spec, owners):
    """Every leadership node and bus is renamed from one of two owners;
    each ringbuffer cell compiles on its own; philosophers own Phil, APhil
    and Fork."""
    assert main(["bench", spec]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["owners"] for row in rows] == [owners] * len(rows)


def _leadership_without_bus_01(model_dir):
    """``leadership.net`` without ``Bus.0.1``: decomposition splits it at
    two conflict-free bridges into three singleton subnetworks."""
    text = "".join(line for line in (model_dir / "leadership.net").read_text()
                   .splitlines(keepends=True) if "Bus01A" not in line)
    (model_dir / "drop.net").write_text(text)
    return str(model_dir / "drop.net")


# a resource-allocation descriptor over the three components of drop.net
OVER_DROP = {"schema": 1, "pattern": "resource-allocation", "connections": [
    {"user": "Node.0", "resource": "Bus.1.0", "acquire": "rcv.1.0.0", "release": "to.1.0"},
    {"user": "Node.1", "resource": "Bus.1.0", "acquire": "on.1.0", "release": "off.1.0"}],
    "order": {"Node.0": ["Bus.1.0"], "Node.1": ["Bus.1.0"]}, "resource_order": ["Bus.1.0"]}


def test_cli_check_reports_a_descriptor_decomposition_split_as_unused(model_dir, capsys):
    model = _leadership_without_bus_01(model_dir)
    descriptor = model_dir / "over_drop.json"
    descriptor.write_text(json.dumps(OVER_DROP))
    warning = ("descriptor over ['Bus.1.0', 'Node.0', 'Node.1'] is unused: "
               "decomposition splits it into 3 essential subnetworks")
    assert main(["check", model]) == 0
    alone = capsys.readouterr().out
    out_json = model_dir / "report.json"
    assert main(["check", model, "--pattern", str(descriptor), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    lines = alone.splitlines()
    assert out.splitlines() == lines[:5] + [f"warning: {warning}"] + lines[5:]
    assert lines[2:] == [
        "decomposition: 2 bridge(s), 2 removed, 3 essential subnetwork(s)",
        "  edge Node.0 -- Bus.1.0: conflict-free  [divergent abstraction: Node.0]",
        "  edge Node.1 -- Bus.1.0: conflict-free",
        "overall: PROVEN"]
    data = json.loads(out_json.read_text())
    assert data["overall"] == "proven" and data["warnings"] == [warning]
    assert all("pattern" not in sub for sub in data["subnetworks"])
    # the same set is no union of subnetworks of the whole network, which
    # decomposition leaves as one
    assert main(["check", str(model_dir / "leadership.net"), "--pattern", str(descriptor)]) == 2
    assert capsys.readouterr().err == (
        "error: descriptor over ['Bus.1.0', 'Node.0', 'Node.1'] matches no essential "
        "subnetwork\n")


def test_a_descriptor_over_part_of_a_subnetwork_keeps_its_input_error(model_dir):
    """On drop.net, ``Node.1`` and ``Bus.1.0`` are two whole subnetworks,
    so a descriptor over them is unused; one over part of the network that
    decomposition leaves whole is an input error."""
    net = net_of(Path(_leadership_without_bus_01(model_dir)).read_text())
    doc = {**OVER_DROP, "connections": OVER_DROP["connections"][1:],
           "order": {"Node.1": ["Bus.1.0"]}}
    report = run_dpa(net, [parse_descriptor(doc, net)])
    assert report.overall == PROVEN
    assert report.warnings == ("descriptor over ['Bus.1.0', 'Node.1'] is unused: "
                               "decomposition splits it into 2 essential subnetworks",)
    whole = net_of(models.leadership_source(2))
    with pytest.raises(InputError, match=r"^descriptor over \['Bus.1.0', 'Node.1'\] "
                                         "matches no essential subnetwork$"):
        run_dpa(whole, [parse_descriptor(doc, whole)])


def test_oracle_witness_json_names_local_states(model_dir, tmp_path):
    sym = str(model_dir / "philosophers_symmetric.net")
    out_json = tmp_path / "w.json"
    main(["oracle", sym, "--json", str(out_json)])
    data = json.loads(out_json.read_text())
    locals_ = data["witness"]["locals"]
    assert set(locals_) == {
        "Phil.0", "Phil.1", "Phil.2", "Fork.0", "Fork.1", "Fork.2"
    }
    # local states are named by their canonical terms
    assert locals_ == {
        "Fork.0": "putdown.0.0 -> Fork(0)",
        "Fork.1": "putdown.1.1 -> Fork(1)",
        "Fork.2": "putdown.2.2 -> Fork(2)",
        "Phil.0": "pickup.0.1 -> eat.0 -> putdown.0.0 -> putdown.0.1 "
                  "-> getup.0 -> Phil(0)",
        "Phil.1": "pickup.1.2 -> eat.1 -> putdown.1.1 -> putdown.1.2 "
                  "-> getup.1 -> Phil(1)",
        "Phil.2": "pickup.2.0 -> eat.2 -> putdown.2.2 -> putdown.2.0 "
                  "-> getup.2 -> Phil(2)",
    }
    # {id, id % 2} collapses at ids 0 and 1: two signatures, whose owners are
    # P.0 and P.2; P.3 is renamed from P.2 and names its state by its own term
    two = tmp_path / "two_signatures.net"
    two.write_text(
        "version 1\nchannel a : {0..3}.{0..3}\nchannel b : {0..3}\n"
        "P(id) = [] i : {id, id % 2} @ a.id.i -> b.id -> P(id)\n"
        "atom PA = alphabet {| a.id, b.id |} behaviour P(id)\n"
        "atom GA = alphabet {| b |} behaviour STOP\ninstance P = PA {0..3}\ninstance Gate = GA\n"
    )
    assert main(["oracle", str(two), "--json", str(out_json)]) == 1
    assert json.loads(out_json.read_text())["witness"]["locals"] == {
        **{f"P.{i}": f"b.{i} -> P({i})" for i in range(4)}, "Gate": "STOP"}


def test_state_names_are_rendered_only_for_witnesses(monkeypatch):
    import dpa.lts

    calls = []
    real_pretty = dpa.lts.pretty

    def counting_pretty(term):
        calls.append(term)
        return real_pretty(term)

    monkeypatch.setattr(dpa.lts, "pretty", counting_pretty)

    lead = net_of(models.leadership_source(3))
    desc = parse_descriptor(models.leadership_descriptor(3), lead)
    assert run_dpa(lead, [desc]).overall == PROVEN
    assert run_dpa(net_of(models.ring_buffer_source(3))).overall == PROVEN
    assert calls == []

    sym = net_of(models.philosophers_source(3, symmetric=True))
    witness = explore_global(sym)
    witness.to_json(sym)
    assert len(calls) == len(sym) == 6


def test_cli_check_json_report(model_dir, tmp_path):
    model = str(model_dir / "philosophers_symmetric.net")
    pat = str(model_dir / "philosophers_symmetric.pattern.json")
    out = tmp_path / "report.json"
    code = main(["check", model, "--pattern", pat, "--oracle", "--json", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["overall"] == "inconclusive"
    assert data["oracle"]["result"] == "deadlock"
    assert data["reasons"]


# exit code and full `dpa pattern` output for each bundled descriptor and two mutants
PATTERN_OUTPUT = {
    "philosophers": (0, """\
pattern: resource-allocation
  users     = ['APhil.2', 'Phil.0', 'Phil.1']
  resources = ['Fork.0', 'Fork.1', 'Fork.2']
  acquire(Phil.0,Fork.0) = pickup.0.0, release(Phil.0,Fork.0) = putdown.0.0
  acquire(Phil.0,Fork.1) = pickup.0.1, release(Phil.0,Fork.1) = putdown.0.1
  acquire(Phil.1,Fork.1) = pickup.1.1, release(Phil.1,Fork.1) = putdown.1.1
  acquire(Phil.1,Fork.2) = pickup.1.2, release(Phil.1,Fork.2) = putdown.1.2
  acquire(APhil.2,Fork.0) = pickup.2.0, release(APhil.2,Fork.0) = putdown.2.0
  acquire(APhil.2,Fork.2) = pickup.2.2, release(APhil.2,Fork.2) = putdown.2.2
  order(APhil.2) = ['Fork.0', 'Fork.2']
  order(Phil.0) = ['Fork.0', 'Fork.1']
  order(Phil.1) = ['Fork.1', 'Fork.2']
  resource order (greatest first) = ['Fork.0', 'Fork.1', 'Fork.2']
structural partitioned: ok
structural mutually_disjoint_events: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
behavioural APhil.2 UserSpec [failures]: ok
behavioural Phil.0 UserSpec [failures]: ok
behavioural Phil.1 UserSpec [failures]: ok
behavioural Fork.0 ResourceSpec [failures]: ok
behavioural Fork.1 ResourceSpec [failures]: ok
behavioural Fork.2 ResourceSpec [failures]: ok
behavioural APhil.2 acquisition-order [structural]: ok
behavioural Phil.0 acquisition-order [structural]: ok
behavioural Phil.1 acquisition-order [structural]: ok
adherent: True
"""),
    "philosophers_symmetric": (1, """\
pattern: resource-allocation
  users     = ['Phil.0', 'Phil.1', 'Phil.2']
  resources = ['Fork.0', 'Fork.1', 'Fork.2']
  acquire(Phil.0,Fork.0) = pickup.0.0, release(Phil.0,Fork.0) = putdown.0.0
  acquire(Phil.0,Fork.1) = pickup.0.1, release(Phil.0,Fork.1) = putdown.0.1
  acquire(Phil.1,Fork.1) = pickup.1.1, release(Phil.1,Fork.1) = putdown.1.1
  acquire(Phil.1,Fork.2) = pickup.1.2, release(Phil.1,Fork.2) = putdown.1.2
  acquire(Phil.2,Fork.0) = pickup.2.0, release(Phil.2,Fork.0) = putdown.2.0
  acquire(Phil.2,Fork.2) = pickup.2.2, release(Phil.2,Fork.2) = putdown.2.2
  order(Phil.0) = ['Fork.0', 'Fork.1']
  order(Phil.1) = ['Fork.1', 'Fork.2']
  order(Phil.2) = ['Fork.2', 'Fork.0']
  resource order (greatest first) = ['Fork.0', 'Fork.1', 'Fork.2']
structural partitioned: ok
structural mutually_disjoint_events: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
behavioural Phil.0 UserSpec [failures]: ok
behavioural Phil.1 UserSpec [failures]: ok
behavioural Phil.2 UserSpec [failures]: ok
behavioural Fork.0 ResourceSpec [failures]: ok
behavioural Fork.1 ResourceSpec [failures]: ok
behavioural Fork.2 ResourceSpec [failures]: ok
behavioural Phil.0 acquisition-order [structural]: ok
behavioural Phil.1 acquisition-order [structural]: ok
behavioural Phil.2 acquisition-order [structural]: FAIL  acquisition order ['Fork.2', 'Fork.0'] is not descending under the resource order
adherent: False
"""),
    "client_server": (0, """\
pattern: client-server
  C2 -> C1: requests ['req21']
  C2 -> C0: requests ['req20']
  C1 -> C0: requests ['req10']
  responses(req21) = ['res21']
  responses(req20) = ['res20']
  responses(req10) = ['res10']
  component order (greatest first) = ['C2', 'C1', 'C0']
structural disjoint_events: ok
structural controlled_alpha: ok
structural controlled_alpha: ok
structural controlled_alpha: ok
structural ordered: ok
behavioural C0 ServerRequestsSpec [revivals]: ok
behavioural C0 RequestsResponsesSpec [failures]: ok
behavioural C1 ServerRequestsSpec [revivals]: ok
behavioural C1 RequestsResponsesSpec [failures]: ok
behavioural C2 ServerRequestsSpec [revivals]: ok
behavioural C2 RequestsResponsesSpec [failures]: ok
adherent: True
"""),
    "leadership": (0, """\
pattern: async-dynamic
  Node.0 -> Node.1 via Bus.0.1: send ['snd.0.1.0', 'snd.0.1.1'], receive ['rcv.0.1.0', 'rcv.0.1.1']
  Node.1 -> Node.0 via Bus.1.0: send ['snd.1.0.0', 'snd.1.0.1'], receive ['rcv.1.0.0', 'rcv.1.0.1']
  schedule(Node.0) = ['Node.1']
  schedule(Node.1) = ['Node.0']
structural partitioned: ok
structural mutually_disjoint_events: ok
structural controlled_alpha_participant: ok
structural controlled_alpha_participant: ok
structural controlled_alpha_transport_entity: ok
structural controlled_alpha_transport_entity: ok
behavioural Bus.0.1 TransportSpec [failures]: ok
behavioural Bus.1.0 TransportSpec [failures]: ok
behavioural Node.0 ParticipantSpec [failures]: ok
behavioural Node.1 ParticipantSpec [failures]: ok
adherent: True
"""),
    # each refinement fails on its own events
    "philosophers-swapped": (1, """\
pattern: resource-allocation
  users     = ['APhil.2', 'Phil.0', 'Phil.1']
  resources = ['Fork.0', 'Fork.1', 'Fork.2']
  acquire(Phil.0,Fork.0) = putdown.0.0, release(Phil.0,Fork.0) = pickup.0.0
  acquire(Phil.0,Fork.1) = putdown.0.1, release(Phil.0,Fork.1) = pickup.0.1
  acquire(Phil.1,Fork.1) = putdown.1.1, release(Phil.1,Fork.1) = pickup.1.1
  acquire(Phil.1,Fork.2) = putdown.1.2, release(Phil.1,Fork.2) = pickup.1.2
  acquire(APhil.2,Fork.0) = putdown.2.0, release(APhil.2,Fork.0) = pickup.2.0
  acquire(APhil.2,Fork.2) = putdown.2.2, release(APhil.2,Fork.2) = pickup.2.2
  order(APhil.2) = ['Fork.0', 'Fork.2']
  order(Phil.0) = ['Fork.0', 'Fork.1']
  order(Phil.1) = ['Fork.1', 'Fork.2']
  resource order (greatest first) = ['Fork.0', 'Fork.1', 'Fork.2']
structural partitioned: ok
structural mutually_disjoint_events: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_users: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
structural controlled_alpha_resources: ok
behavioural APhil.2 UserSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.2.0
behavioural Phil.0 UserSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.0.0
behavioural Phil.1 UserSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.1.1
behavioural Fork.0 ResourceSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.0.0
behavioural Fork.1 ResourceSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.0.1
behavioural Fork.2 ResourceSpec [failures]: FAIL  trace violation: after <> the implementation performs pickup.1.2
behavioural APhil.2 acquisition-order [structural]: ok
behavioural Phil.0 acquisition-order [structural]: ok
behavioural Phil.1 acquisition-order [structural]: ok
adherent: False
"""),
    # each datum is paired with another's receive; the echo keeps the given order
    "leadership-reversed": (1, """\
pattern: async-dynamic
  Node.0 -> Node.1 via Bus.0.1: send ['snd.0.1.0', 'snd.0.1.1'], receive ['rcv.0.1.1', 'rcv.0.1.0']
  Node.1 -> Node.0 via Bus.1.0: send ['snd.1.0.0', 'snd.1.0.1'], receive ['rcv.1.0.0', 'rcv.1.0.1']
  schedule(Node.0) = ['Node.1']
  schedule(Node.1) = ['Node.0']
structural partitioned: ok
structural mutually_disjoint_events: ok
structural controlled_alpha_participant: ok
structural controlled_alpha_participant: ok
structural controlled_alpha_transport_entity: ok
structural controlled_alpha_transport_entity: ok
behavioural Bus.0.1 TransportSpec [failures]: FAIL  trace violation: after <on.0.1, snd.0.1.0> the implementation performs rcv.0.1.0
behavioural Bus.1.0 TransportSpec [failures]: ok
behavioural Node.0 ParticipantSpec [failures]: ok
behavioural Node.1 ParticipantSpec [failures]: ok
adherent: False
"""),
}


def _swap_acquire_release(doc):
    for conn in doc["connections"]:
        conn["acquire"], conn["release"] = conn["release"], conn["acquire"]


def _reverse_the_first_receive_list(doc):
    doc["connections"][0]["receive"].reverse()


# a `model-mutant` entry of PATTERN_OUTPUT runs model's bundled descriptor
# changed in place by its mutant
DESCRIPTOR_MUTANTS = {"swapped": _swap_acquire_release, "reversed": _reverse_the_first_receive_list}


@pytest.mark.parametrize("name", sorted(PATTERN_OUTPUT))
def test_cli_pattern_output_is_pinned(model_dir, capsys, name):
    code, expected = PATTERN_OUTPUT[name]
    model, _, mutant = name.partition("-")
    descriptor = model_dir / f"{model}.pattern.json"
    if mutant:
        doc = json.loads(descriptor.read_text())
        DESCRIPTOR_MUTANTS[mutant](doc)
        descriptor = model_dir / f"{name}.pattern.json"
        descriptor.write_text(json.dumps(doc))
    assert main(["pattern", str(model_dir / f"{model}.net"), str(descriptor)]) == code
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize("model, descriptor, code", [
    ("philosophers_symmetric.net", "philosophers_symmetric.pattern.json", 1),
    ("leadership.net", "leadership.pattern.json", 0),
    ("ringbuffer.net", None, 0),
], ids=["philosophers_symmetric", "leadership", "ringbuffer"])
def test_cli_output_is_the_same_under_two_hash_seeds(model_dir, model, descriptor, code):
    """Terms hash by identity and strings by a per-process seed, so output
    that followed hash order would differ between these two processes."""
    argv = [sys.executable, "-m", "dpa.cli", "check", str(model_dir / model), "--oracle"]
    if descriptor is not None:
        argv += ["--pattern", str(model_dir / descriptor)]
    package_root = str(Path(dpa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        out = model_dir / f"report.{seed}.json"
        proc = subprocess.run(
            argv + ["--json", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        report = json.loads(out.read_text())
        del report["timings"]
        runs.append((proc.returncode, proc.stdout, proc.stderr, report))
    assert runs[0][0] == code
    assert runs[0] == runs[1]
