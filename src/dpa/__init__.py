"""Deadlock-freedom analysis for networks of communicating finite-state
processes: topology decomposition over conflict-free disconnecting edges,
behavioural-pattern adherence checked by a stable-failures / stable-revivals
refinement engine, and a brute-force global oracle for validation."""

from .events import EVENTS, TAU, TICK, event
from .terms import (
    Call,
    DefEnv,
    Definition,
    ExtChoice,
    Guard,
    Hide,
    IntChoice,
    Interrupt,
    Prefix,
    Rename,
    Seq,
    DIV,
    SKIP,
    STOP,
)
from .lts import Lts, StateLimitExceeded, compile_term, parallel_lts
from .semantics import FAILURES, REVIVALS, normalize, refines, stable_behaviours
from .network import Component, Network, check_live, communication_graph, abs_lts
from .decomposition import bridges, check_conflict_free, decompose
from .patterns import (
    AdDescriptor,
    CsDescriptor,
    RaDescriptor,
    check_pattern,
    parse_descriptor,
    respects_order,
)
from .oracle import explore_global, find_ungranted_cycle, snapshot_graph
from .dsl import elaborate, load_descriptor, load_network, parse_network
from .report import run_dpa, emit_dot

__version__ = "0.1.0"
