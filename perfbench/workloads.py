"""The benchmark's workloads and their hand-written known answers.

Every family is deterministic and each workload uses one size, so its
latency distribution has one mode.  The seed only orders the instances
within a pass.  The expected verdicts below are written by hand from the
models' construction, never derived from ``dpa``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

PROVEN = "proven"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Instance:
    label: str
    model: str  # .net text
    descriptor: str | None  # descriptor JSON text
    with_oracle: bool
    expect: str  # overall verdict
    expect_reason: str = ""  # text some reason must contain


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    size: int
    why: str

    def instances(self, models) -> list:
        """Model and descriptor texts of one pass, generated in memory."""
        n = self.size
        if self.family == "ringbuffer":
            return [Instance(f"ringbuffer:{n}", models.ring_buffer_source(n),
                             None, False, PROVEN)]
        if self.family == "leadership":
            return [Instance(f"leadership:{n}", models.leadership_source(n),
                             json.dumps(models.leadership_descriptor(n)),
                             False, PROVEN)]
        oracle = self.family == "oracle"
        out = [Instance(f"philosophers:{n}", models.philosophers_source(n),
                        json.dumps(models.philosophers_descriptor(n)),
                        oracle, PROVEN)]
        if not oracle:
            # every philosopher takes the left fork first, so the cyclic
            # acquisition order is what the resource-allocation check rejects
            out.append(Instance(
                f"philosophers:{n}:symmetric",
                models.philosophers_source(n, symmetric=True),
                json.dumps(models.philosophers_descriptor(n, symmetric=True)),
                False, INCONCLUSIVE, "acquisition order"))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ringbuffer", "ringbuffer", 12,
            "star of 13 components proven by decomposition alone: few, large "
            "refinement and product calls; no patterns, no oracle",
        ),
        Workload(
            "leadership", "leadership", 5,
            "25 components, no bridges, proven via async-dynamic: compiling "
            "terms (and naming their states) dominates; refinement is under 1%",
        ),
        Workload(
            "philosophers", "philosophers", 300,
            "600 components, asymmetric (proven) and symmetric (inconclusive) "
            "alternating: parsing, elaboration and 600 small refinements",
        ),
        Workload(
            "oracle", "oracle", 6,
            "asymmetric philosophers(6) with the global oracle: a BFS over "
            "40,250 states is over 99% of the time and holds the most memory",
        ),
    )
}


def check(dpa, inst: Instance, report, summary: str) -> str | None:
    """None when the report carries the known answer, else what is wrong."""
    if report.overall != inst.expect:
        return f"{inst.label}: overall {report.overall}, expected {inst.expect}"
    if f"overall: {inst.expect.upper()}" not in summary:
        return f"{inst.label}: summary does not state the verdict"
    if inst.expect_reason and not any(inst.expect_reason in r for r in report.reasons):
        return f"{inst.label}: no reason names the {inst.expect_reason}"
    if inst.with_oracle and not isinstance(report.oracle, dpa.oracle.DeadlockFree):
        # soundness: proven must imply the oracle finds no deadlock
        return f"{inst.label}: proven but the oracle returned {report.oracle!r}"
    return None


def check_oracle_finds_deadlock(dpa) -> str | None:
    """The oracle must still find the symmetric philosophers' deadlock, so
    an oracle that always answers "free" cannot pass the oracle workload."""
    net = dpa.dsl.elaborate(
        dpa.dsl.parse_network(dpa.models.philosophers_source(5, symmetric=True))
    )
    result = dpa.oracle.explore_global(net)
    if not isinstance(result, dpa.oracle.DeadlockWitness):
        return f"oracle missed the symmetric philosophers' deadlock: {result!r}"
    cycle = dpa.oracle.find_ungranted_cycle(dpa.oracle.snapshot_graph(net, result.state))
    if not cycle:
        return "oracle deadlock witness has no ungranted-request cycle"
    return None
