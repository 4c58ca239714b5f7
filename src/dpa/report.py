"""Full method orchestration and report emission.

``run_dpa`` executes the two phases -- decompose, then prove pattern
adherence for each non-singular essential subnetwork -- and assembles a
machine-readable report.  The overall verdict is ``proven`` exactly when
liveness holds and every essential subnetwork is either singular or covered
by an adherent pattern descriptor; anything else is ``inconclusive``, with
reasons.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .decomposition import DecompositionResult, decompose
from .events import EVENTS, fmt_trace
from .lts import DEFAULT_STATE_LIMIT
from .network import CommGraph, InputError, LivenessReport, Network, check_live
from .oracle import DeadlockFree, DeadlockWitness, SnapshotGraph, explore_global
from .patterns import PatternVerdict, check_pattern

REPORT_SCHEMA = 1

PROVEN = "proven"
INCONCLUSIVE = "inconclusive"


@dataclass
class SubnetworkOutcome:
    components: list  # names
    pattern: str | None
    verdict: PatternVerdict | None

    @property
    def discharged(self):
        if len(self.components) == 1:
            return True
        return self.verdict is not None and self.verdict.adherent

    def to_json(self):
        data = {"components": self.components, "singular": len(self.components) == 1}
        if self.pattern is not None:
            data["pattern"] = self.pattern
        if self.verdict is not None:
            data["verdict"] = self.verdict.to_json()
        data["discharged"] = self.discharged
        return data


@dataclass
class DpaReport:
    model: str
    liveness: LivenessReport
    decomposition: DecompositionResult | None
    subnetworks: list  # SubnetworkOutcome
    overall: str
    reasons: list
    timings: dict
    oracle: object | None = None
    warnings: tuple = ()

    def to_json(self, net: Network):
        data = {
            "schema": REPORT_SCHEMA,
            "model": self.model,
            "overall": self.overall,
            "reasons": self.reasons,
            "liveness": self.liveness.to_json(),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if self.decomposition is not None:
            data["decomposition"] = self.decomposition.to_json(net)
        data["subnetworks"] = [s.to_json() for s in self.subnetworks]
        if self.oracle is not None:
            data["oracle"] = self.oracle.to_json(net)
        if net.warnings or self.warnings:
            data["warnings"] = [*net.warnings, *self.warnings]
        return data

    def summary(self) -> str:
        lines = [f"model: {self.model}"]
        lines.append(f"liveness: {'ok' if self.liveness.live else 'FAILED'}")
        if self.decomposition is not None:
            d = self.decomposition
            lines.append(
                f"decomposition: {len(d.bridge_edges)} bridge(s), "
                f"{len(d.removed_edges)} removed, "
                f"{len(d.subnetworks)} essential subnetwork(s)"
            )
            for c in d.checks:
                note = ""
                if c.divergent_abstractions:
                    # A note, not a weaker verdict: in a network deadlock no
                    # component can do a private event or an internal move,
                    # so each one's state is stable in its abstraction and
                    # the check, which judges stable failures, sees it.  Only
                    # a tau cycle elsewhere goes unjudged.  This is the
                    # setting of Brookes and Roscoe's ungranted-request
                    # theorem (Distributed Computing 4, 1991).
                    note = f"  [divergent abstraction: {', '.join(c.divergent_abstractions)}]"
                lines.append(
                    f"  edge {c.names[0]} -- {c.names[1]}: {c.verdict}{note}"
                )
        for warn in self.warnings:
            lines.append(f"warning: {warn}")
        for sub in self.subnetworks:
            if len(sub.components) == 1:
                continue
            tag = "no descriptor" if sub.verdict is None else (
                f"{sub.pattern}: {'adherent' if sub.verdict.adherent else 'NOT adherent'}"
            )
            lines.append(f"subnetwork {sub.components}: {tag}")
            if sub.verdict is not None:
                for fail in sub.verdict.failures():
                    who, what, detail = fail.failure_parts()
                    lines.append(f"    FAIL {who} {what}: {detail}")
                for warn in sub.verdict.warnings:
                    lines.append(f"    warning: {warn}")
        if self.oracle is not None:
            if isinstance(self.oracle, DeadlockFree):
                lines.append(
                    f"oracle: deadlock free ({self.oracle.states_explored} states)"
                )
            elif isinstance(self.oracle, DeadlockWitness):
                lines.append(f"oracle: DEADLOCK after {fmt_trace(self.oracle.trace)}")
                if self.oracle.cycle:
                    names = self.oracle.snapshot.names
                    lines.append(
                        "  ungranted-request cycle: "
                        + " -> ".join(names[i] for i in self.oracle.cycle)
                    )
            else:
                lines.append(f"oracle: {self.oracle.describe()}")
        lines.append(f"overall: {self.overall.upper()}")
        for r in self.reasons:
            lines.append(f"  reason: {r}")
        return "\n".join(lines)


def _bind_descriptors(net: Network, subnetworks, descriptors):
    """Match descriptors to subnetworks by component-name-set equality;
    with a warning for each descriptor whose set decomposition has split
    into two or more essential subnetworks, which leaves it unused."""
    outcome = {}
    for desc in descriptors:
        key = frozenset(desc.components())
        if key in outcome:
            raise InputError(
                f"two descriptors cover the same component set {sorted(key)}"
            )
        outcome[key] = desc
    bound = {}
    warnings = []
    part = {}  # component name -> the names of its subnetwork
    for sub in subnetworks:
        names = frozenset(net[i].name for i in sub)
        part.update(dict.fromkeys(names, names))
        if names in outcome:
            bound[tuple(sorted(sub))] = outcome.pop(names)
    for key in outcome:
        parts = {part.get(name) for name in key}
        if None in parts or frozenset().union(*parts) != key:
            raise InputError(
                f"descriptor over {sorted(key)} matches no essential subnetwork"
            )
        warnings.append(f"descriptor over {sorted(key)} is unused: decomposition "
                        f"splits it into {len(parts)} essential subnetworks")
    return bound, tuple(warnings)


def run_dpa(
    net: Network,
    descriptors=(),
    state_limit: int = DEFAULT_STATE_LIMIT,
    with_oracle: bool = False,
    model_name: str = "<network>",
) -> DpaReport:
    timings = {}
    reasons = []
    t0 = time.perf_counter()
    for comp in net.components:
        comp.compiled(state_limit)
    timings["compile"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    liveness = check_live(net, state_limit)
    timings["liveness"] = time.perf_counter() - t0
    decomposition = None
    subnetworks = []
    warnings = ()
    if not liveness.live:
        reasons.append("network is not live; nothing can be concluded")
        overall = INCONCLUSIVE
        timings.update(bridges=0.0, conflicts=0.0, patterns=0.0)
    else:
        decomposition = decompose(net, state_limit, precheck_live=False, timings=timings)
        binding, warnings = _bind_descriptors(net, decomposition.subnetworks, descriptors)
        t0 = time.perf_counter()
        for sub in decomposition.subnetworks:
            names = [net[i].name for i in sub]
            desc = binding.get(tuple(sorted(sub)))
            verdict = None
            if len(sub) > 1 and desc is not None:
                verdict = check_pattern(desc, net, names, state_limit)
            subnetworks.append(
                SubnetworkOutcome(
                    names,
                    desc.pattern if desc is not None else None,
                    verdict,
                )
            )
        timings["patterns"] = time.perf_counter() - t0
        undischarged = [s for s in subnetworks if not s.discharged]
        if not undischarged:
            overall = PROVEN
        else:
            overall = INCONCLUSIVE
            for s in undischarged:
                if s.verdict is None:
                    reasons.append(
                        f"subnetwork {s.components} has no pattern descriptor"
                    )
                else:
                    for fail in s.verdict.failures():
                        who, what, detail = fail.failure_parts()
                        reasons.append(
                            f"subnetwork {s.components}: {who} fails {what}"
                            + (f" ({detail})" if detail else "")
                        )
    oracle_result = None
    if with_oracle:
        t0 = time.perf_counter()
        oracle_result = explore_global(net, state_limit)
        timings["oracle"] = time.perf_counter() - t0
        if isinstance(oracle_result, DeadlockWitness):
            reasons.append(
                "oracle found a deadlock after " + fmt_trace(oracle_result.trace)
            )
    # the overall verdict is the method's own; the oracle result sits beside
    # it so a disagreement (which would be a soundness bug) stays visible
    return DpaReport(
        model=model_name,
        liveness=liveness,
        decomposition=decomposition,
        subnetworks=subnetworks,
        overall=overall,
        reasons=reasons,
        timings=timings,
        oracle=oracle_result,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# DOT emission


def _dot_escape(name):
    return '"' + name.replace('"', '\\"') + '"'


def emit_dot(g) -> str:
    """Graphviz text for a communication graph (undirected) or snapshot
    graph (directed); node order follows component order."""
    if isinstance(g, CommGraph):
        return _dot("graph communication", "--", g.names, g.edges, more=", ...")
    if isinstance(g, SnapshotGraph):
        return _dot("digraph snapshot", "->", g.names, g.arcs, more="")
    raise TypeError(f"cannot render {g!r}")


def _dot(header, op, names, edges, more):
    """Nodes in order, then one edge per (i, j) labelled with its first four
    events; ``more`` marks a label with events left out."""
    lines = [header + " {"]
    for name in names:
        lines.append(f"  {_dot_escape(name)};")
    for (i, j), events in sorted(edges.items()):
        label = ", ".join(EVENTS.names(events)[:4])
        if len(events) > 4:
            label += more
        lines.append(
            f"  {_dot_escape(names[i])} {op} {_dot_escape(names[j])}"
            f" [label=\"{label}\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_report_json(report: DpaReport, net: Network) -> str:
    return json.dumps(report.to_json(net), indent=2)
