"""The conflict-freedom specification's reference: the characteristic
process as a term, and the builder that compiled and normalised it.

``conflict_free_spec_term`` is the paper's refinement expression for a
bridge: recurring offers over the union alphabet, with the fresh ``req``
available exactly alongside a (nondeterministically chosen) shared event,
and unconstrained CHAOS once a req has been taken.  ``dpa.decomposition``
now builds that process's two-state normal form directly;
``tests/test_decomposition_reference.py`` diffs it against
``build_conflict_free_spec`` below, which leaves ``chaos`` as None.
"""

from __future__ import annotations

from dpa.decomposition import fresh_req
from dpa.lts import compile_term
from dpa.network import Network
from dpa.semantics import NormalSpec, normalize
from dpa.terms import Call, DefEnv, Definition, ExtChoice, IntChoice, Prefix, SKIP, STOP


def conflict_free_spec_term(union_events, shared_events, req: int):
    """The characteristic process: recurring offers over the union alphabet,
    with req available exactly alongside a (nondeterministically chosen)
    shared event, and unconstrained chaos once a req has been taken."""
    env = DefEnv()
    chaos_events = sorted(union_events | {req})
    env.define(
        Definition(
            "CHAOS",
            (),
            IntChoice(
                (SKIP, STOP)
                + tuple(Prefix(e, Call("CHAOS")) for e in chaos_events)
            ),
        )
    )
    shared_branch = IntChoice(
        tuple(Prefix(e, Call("CF")) for e in sorted(shared_events))
    )
    guarded = ExtChoice((shared_branch, Prefix(req, Call("CHAOS"))))
    any_branch = IntChoice(tuple(Prefix(e, Call("CF")) for e in sorted(union_events)))
    env.define(Definition("CF", (), IntChoice((guarded, any_branch))))
    return env, Call("CF")


def build_conflict_free_spec(
    net: Network, i: int, j: int, req: int | None = None
) -> NormalSpec:
    if req is None:
        req = fresh_req(net)
    union = net[i].alphabet | net[j].alphabet
    shared = net[i].alphabet & net[j].alphabet
    env, term = conflict_free_spec_term(union, shared, req)
    lts = compile_term(env, term)
    return normalize(lts, universe=union | {req})
