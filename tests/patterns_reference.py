"""Reference copy of the behavioural check ``dpa`` ran before each spec was
compiled and normalised once per shape: every obligation compiles and
normalises its own spec term.  Kept verbatim, apart from its names, so that
``test_spec_shape_reference.py`` can diff ``patterns.check_behavioural``
against it."""

from dpa.lts import DEFAULT_STATE_LIMIT, compile_term
from dpa.network import Network, abs_lts
from dpa.patterns import BehaviouralResult, EmptyRoleSet
from dpa.semantics import normalize, refines


def _refine_against_reference(net, name, spec_env, spec_term, model, limit, spec_name):
    idx = net.index_of(name)
    spec_lts = compile_term(spec_env, spec_term, limit)
    nspec = normalize(spec_lts, universe=lambda: net.sigma)
    impl = abs_lts(net, idx, limit)
    ce = refines(nspec, impl, model)
    return BehaviouralResult(name, spec_name, model, ce is None, ce)


def check_behavioural_reference(desc, net: Network, scope, limit=DEFAULT_STATE_LIMIT) -> list:
    """Run every behavioural obligation of the pattern over the scope: the
    refinements in the descriptor's order, then the roles whose process
    degenerates (each a failed obligation carrying its note), then the
    side conditions."""
    refined, degenerate = [], []
    for role, name in desc.obligations(frozenset(scope)):
        spec_name, model, build = desc.roles[role]
        try:
            env, term = build(desc, net, name)
        except EmptyRoleSet as exc:
            degenerate.append(
                BehaviouralResult(name, spec_name, model, False, note=str(exc))
            )
        else:
            refined.append(
                _refine_against_reference(net, name, env, term, model, limit, spec_name)
            )
    return refined + degenerate + desc.side_conditions()
