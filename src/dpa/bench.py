"""Scaling benchmark over the bundled model families.

Runs the local method through ``run_dpa`` (and optionally the global
oracle) across a size sweep of one family and reports wall-clock times
together with deterministic work measures (the states of every bridge
check's conflict context, oracle states explored), which is what the trend
assertions in the test-suite key on.  With ``repeat`` above one, each size
runs that many times, each on a freshly built network (compiled LTSs are
cached on components), and the row reports the median and the minimum; so
does the oracle, whose times include compiling the components, as a
``dpa oracle`` run does.  Building each network (parsing, elaborating and
reading the descriptor) is timed apart from the run, into
``build_seconds`` and ``build_seconds_min``.
"""

from __future__ import annotations

import statistics
import time

from . import models
from .dsl import elaborate, parse_network
from .network import InputError
from .oracle import explore_global
from .patterns import parse_descriptor
from .report import PROVEN, run_dpa

# family -> (model source, descriptor source or None, least size that
# builds a network of the family)
_FAMILIES = {
    "philosophers": (models.philosophers_source, models.philosophers_descriptor, 2),
    "ringbuffer": (models.ring_buffer_source, None, 1),
    "leadership": (models.leadership_source, models.leadership_descriptor, 2),
}
FAMILIES = tuple(_FAMILIES)


def _family(family: str):
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; pick one of {FAMILIES}")
    return _FAMILIES[family]


def build_family(family: str, size: int):
    """Network + descriptors for one instance of a benchmark family."""
    source, descriptor, _least = _family(family)
    net = elaborate(parse_network(source(size)))
    descs = [parse_descriptor(descriptor(size), net)] if descriptor else []
    return net, descs


def _spread(times):
    return round(statistics.median(times), 4), round(min(times), 4)


def _timed(family: str, size: int, repeat: int, run):
    """``run(net, descs)`` on ``repeat`` freshly built networks: the last
    network and result, and the (median, minimum) of the run's wall times
    and of the builds'."""
    runs, builds = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        net, descs = build_family(family, size)
        t1 = time.perf_counter()
        result = run(net, descs)
        runs.append(time.perf_counter() - t1)
        builds.append(t1 - t0)
    return net, result, _spread(runs), _spread(builds)


def run_bench(
    family: str, sizes, oracle_sizes=(), state_limit=1_000_000, repeat=1
) -> dict:
    rows = []
    for size in sizes:
        net, report, (median, least), (build, build_least) = _timed(
            family, size, repeat, lambda net, descs: run_dpa(net, descs, state_limit))
        checks = report.decomposition.checks if report.decomposition else ()
        row = {
            "size": size,
            "components": len(net),
            "dpa_seconds": median,
            "dpa_seconds_min": least,
            "build_seconds": build,
            "build_seconds_min": build_least,
            "proven": report.overall == PROVEN,
            "context_states": sum(c.context_states for c in checks),
        }
        if size in oracle_sizes:
            _net, result, (median, least), _build = _timed(
                family, size, repeat, lambda net, _descs: explore_global(net, state_limit))
            row["oracle_seconds"] = median
            row["oracle_seconds_min"] = least
            row["oracle_states"] = result.states_explored
            row["oracle_result"] = type(result).__name__
        rows.append(row)
    return {"family": family, "rows": rows}


def _sizes(spec: str, what: str, text: str) -> list:
    """The integers of a comma-separated list in ``spec``."""
    sizes = []
    for s in text.split(","):
        if s:
            try:
                sizes.append(int(s))
            except ValueError:
                raise InputError(
                    f"bench spec {spec!r}: {what} {s!r} is not an integer") from None
    return sizes


def parse_bench_spec(spec: str):
    """'family:3,5,10[:oracle=3,4]' -> (family, sizes, oracle_sizes).

    The sizes must be non-empty and at least the family's least size, and
    every oracle size must be among them."""
    parts = spec.split(":")
    family = parts[0]
    if len(parts) > 3:
        raise InputError(f"bench spec has an extra part {':'.join(parts[3:])!r}")
    sizes = _sizes(spec, "size", parts[1]) if len(parts) > 1 else []
    oracle_sizes = []
    if len(parts) > 2:
        if not parts[2].startswith("oracle="):
            raise InputError(f"bench spec part {parts[2]!r} must start with 'oracle='")
        oracle_sizes = _sizes(spec, "oracle size", parts[2][len("oracle="):])
    if not sizes:
        raise InputError("bench spec needs sizes, e.g. philosophers:3,5,10")
    _source, _descriptor, least = _family(family)
    if min(sizes) < least:
        raise InputError(f"{family} needs sizes of at least {least}, got {min(sizes)}")
    extra = sorted(set(oracle_sizes) - set(sizes))
    if extra:
        raise InputError(f"oracle sizes {extra} are not among the sizes {sizes}")
    return family, sizes, oracle_sizes
