"""Command line front end.

Exit codes: 0 when deadlock freedom was proven (or the subcommand's check
passed), 1 when the analysis is inconclusive or found a problem, 2 on input
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import parse_bench_spec, run_bench
from .decomposition import CONFLICT_FREE, check_conflict_free, decompose
from .dsl import descriptor_echo, load_descriptor, load_network
from .events import fmt_trace
from .lts import DEFAULT_STATE_LIMIT, StateLimitExceeded
from .network import CompileFailure, InputError, NotLive, check_live, communication_graph
from .oracle import DeadlockFree, DeadlockWitness, explore_global
from .patterns import check_pattern
from .report import PROVEN, emit_dot, emit_report_json, run_dpa
from .terms import DslValueError

EXIT_PROVEN = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT_ERROR = 2


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p):
    p.add_argument("model", help="network model file (.net)")
    p.add_argument(
        "--state-limit",
        type=_positive_int,
        default=DEFAULT_STATE_LIMIT,
        help="per-check state-count cap (default %(default)s)",
    )


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dpa",
        description="deadlock-freedom analysis by decomposition and pattern adherence",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the full method")
    _add_common(p)
    p.add_argument(
        "--pattern",
        action="append",
        default=[],
        metavar="FILE",
        help="pattern descriptor (repeatable, one per subnetwork)",
    )
    p.add_argument("--oracle", action="store_true", help="also run the global search")
    p.add_argument("--dot-dir", metavar="DIR", help="write graphviz files here")
    p.add_argument("--json", metavar="OUT", help="write the JSON report here")

    p = sub.add_parser("decompose", help="decomposition phase only")
    _add_common(p)
    p.add_argument("--dot-dir", metavar="DIR")
    p.add_argument("--json", metavar="OUT")

    p = sub.add_parser("conflict", help="conflict-freedom check for one edge")
    _add_common(p)
    p.add_argument("i", help="component index or name")
    p.add_argument("j", help="component index or name")

    p = sub.add_parser("pattern", help="pattern adherence for a descriptor")
    _add_common(p)
    p.add_argument("descriptor", help="pattern descriptor file (.pattern.json)")
    p.add_argument(
        "--scope",
        help="comma-separated component names (default: the descriptor's roles)",
    )

    p = sub.add_parser("oracle", help="exhaustive global deadlock search")
    _add_common(p)
    p.add_argument("--dot-dir", metavar="DIR")
    p.add_argument("--json", metavar="OUT")

    p = sub.add_parser("bench", help="scaling sweep over a bundled family")
    p.add_argument("spec", help="family:sizes[:oracle=sizes], e.g. philosophers:3,5,10")
    p.add_argument("--state-limit", type=_positive_int, default=DEFAULT_STATE_LIMIT)
    p.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="runs per size, each on a freshly built network; rows report "
        "the median and the minimum (default %(default)s)",
    )
    p.add_argument("--json", metavar="OUT")
    return ap


def _component_index(net, ref):
    try:
        index = int(ref)
    except ValueError:
        return net.index_of(ref)
    if not 0 <= index < len(net):
        raise InputError(
            f"component index {index} is out of range 0..{len(net) - 1}"
        )
    return index


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dot_out(directory, name, text):
    os.makedirs(directory, exist_ok=True)
    _write(os.path.join(directory, name), text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InputError, NotLive, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (StateLimitExceeded, CompileFailure) as exc:
        # a component that outgrows the limit while compiling is the same
        # user-fixable problem, and so is a model mistake (an unbound
        # variable, an undefined process) met while compiling; any other
        # compile failure is a bug
        cause = exc.cause if isinstance(exc, CompileFailure) else exc
        if isinstance(cause, DslValueError):
            print(f"error: {exc}", file=sys.stderr)
        elif isinstance(cause, StateLimitExceeded):
            print(f"error: {exc} (raise --state-limit)", file=sys.stderr)
        else:
            raise
        return EXIT_INPUT_ERROR


def _dispatch(args) -> int:
    if args.command == "bench":
        family, sizes, oracle_sizes = parse_bench_spec(args.spec)
        result = run_bench(family, sizes, oracle_sizes, args.state_limit, args.repeat)
        text = json.dumps(result, indent=2)
        print(text)
        if args.json:
            _write(args.json, text)
        return EXIT_PROVEN

    net = load_network(args.model)
    for warning in net.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.command == "check":
        descriptors = [load_descriptor(f, net) for f in args.pattern]
        report = run_dpa(
            net,
            descriptors,
            state_limit=args.state_limit,
            with_oracle=args.oracle,
            model_name=args.model,
        )
        print(report.summary())
        if args.json:
            _write(args.json, emit_report_json(report, net))
        if args.dot_dir:
            _dot_out(args.dot_dir, "communication.dot", emit_dot(communication_graph(net)))
            if report.decomposition is not None:
                _dot_out(
                    args.dot_dir,
                    "essential.dot",
                    emit_dot(report.decomposition.residual_graph()),
                )
            if isinstance(report.oracle, DeadlockWitness):
                _dot_out(args.dot_dir, "snapshot.dot", emit_dot(report.oracle.snapshot))
        return EXIT_PROVEN if report.overall == PROVEN else EXIT_INCONCLUSIVE

    if args.command == "decompose":
        result = decompose(net, args.state_limit)
        for check in result.checks:
            print(f"edge {check.names[0]} -- {check.names[1]}: {check.verdict}")
        print("essential subnetworks:")
        for names in result.subnetwork_names(net):
            print("  " + ", ".join(names))
        print(f"all singular: {result.all_singular}")
        if args.json:
            _write(args.json, json.dumps(result.to_json(net), indent=2))
        if args.dot_dir:
            _dot_out(args.dot_dir, "communication.dot", emit_dot(result.graph))
            _dot_out(args.dot_dir, "essential.dot", emit_dot(result.residual_graph()))
        return EXIT_PROVEN if result.all_singular else EXIT_INCONCLUSIVE

    if args.command == "conflict":
        i = _component_index(net, args.i)
        j = _component_index(net, args.j)
        check = check_conflict_free(net, i, j, args.state_limit)
        print(f"edge {check.names[0]} -- {check.names[1]}: {check.verdict}")
        if check.counterexample is not None:
            print("  " + check.counterexample.describe())
        for warn in check.divergent_abstractions:
            print(f"  warning: abstraction of {warn} diverges")
        return EXIT_PROVEN if check.verdict == CONFLICT_FREE else EXIT_INCONCLUSIVE

    if args.command == "pattern":
        desc = load_descriptor(args.descriptor, net)
        print(descriptor_echo(desc))
        scope = (
            [s.strip() for s in args.scope.split(",") if s.strip()]
            if args.scope
            else sorted(desc.components())
        )
        verdict = check_pattern(desc, net, scope, args.state_limit)
        for pr in verdict.structural:
            print(f"structural {pr.name}: {'ok' if pr.ok else 'FAIL ' + pr.witness}")
        for br in verdict.behavioural:
            who, what, detail = br.failure_parts()
            print(
                f"behavioural {who} {what} [{br.model}]: {'ok' if br.ok else 'FAIL'}"
                + (f"  {detail}" if detail else "")
            )
        for warn in verdict.warnings:
            print(f"warning: {warn}")
        print(f"adherent: {verdict.adherent}")
        return EXIT_PROVEN if verdict.adherent else EXIT_INCONCLUSIVE

    if args.command == "oracle":
        # as in the search itself, --state-limit bounds the product only
        liveness = check_live(net, max(args.state_limit, DEFAULT_STATE_LIMIT))
        if not liveness.live:
            print("warning: network is not live; searching anyway", file=sys.stderr)
            print(liveness.summary(), file=sys.stderr)
        result = explore_global(net, args.state_limit)
        if isinstance(result, DeadlockFree):
            print(f"deadlock free ({result.states_explored} states)")
            code = EXIT_PROVEN
        elif isinstance(result, DeadlockWitness):
            print(f"deadlock after {fmt_trace(result.trace)}")
            if result.cycle:
                print(
                    "ungranted-request cycle: "
                    + " -> ".join(net[i].name for i in result.cycle)
                )
            if args.dot_dir:
                _dot_out(args.dot_dir, "snapshot.dot", emit_dot(result.snapshot))
            code = EXIT_INCONCLUSIVE
        else:
            print(result.describe())
            code = EXIT_INCONCLUSIVE
        if args.json:
            _write(args.json, json.dumps(result.to_json(net), indent=2))
        if args.dot_dir:
            _dot_out(args.dot_dir, "communication.dot", emit_dot(communication_graph(net)))
        return code

    raise InputError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
