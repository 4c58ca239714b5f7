"""Reference copies of the behavioural check as ``dpa`` ran it before each
spec was compiled and normalised once per shape, and of the canonicaliser
that keyed each ground spec by its shape before the role builders wrote
their specs over event positions.  Kept verbatim, apart from their names
and from reading each builder's spec over its real events
(``conftest.generate_spec``), so that ``test_spec_shape_reference.py`` can
diff ``patterns.check_behavioural`` and its spec keys against them."""

from conftest import generate_spec
from dpa.lts import DEFAULT_STATE_LIMIT, compile_term
from dpa.network import Network, abs_lts
from dpa.patterns import BehaviouralResult, EmptyRoleSet
from dpa.semantics import normalize, refines
from dpa.terms import Call, DefEnv, ExtChoice, Guard, IntChoice, Interrupt, Prefix, Seq, SKIP, STOP, Term


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
            env, term = generate_spec(desc, role, name, net)
        except EmptyRoleSet as exc:
            degenerate.append(
                BehaviouralResult(name, spec_name, model, False, note=str(exc))
            )
        else:
            refined.append(
                _refine_against_reference(net, name, env, term, model, limit, spec_name)
            )
    return refined + degenerate + desc.side_conditions()


def canonical_reference(env: DefEnv, term: Term):
    """The shape of a spec: ``(key, events)``.  ``key`` is ``(definitions,
    term)``, each definition a ``(name, params, body)`` triple, with every
    ground event replaced by its position in ``events``: the distinct events
    in the order the walk meets them, the definitions in definition order
    first, then ``term``.  Two specs with one key differ only in their
    events, so they compile to the same LTS up to the labels.

    Terms are hash-consed, so the canonical term is its own key, and each
    distinct subterm is walked once."""
    position = {}  # real event -> its position in ``events``
    memo = {}  # real term -> canonical term
    definitions = tuple(
        (d.name, d.params, _walk(d.body, position, memo)) for d in env.definitions.values()
    )
    return (definitions, _walk(term, position, memo)), tuple(position)


def _walk(term, position, memo):
    """:func:`canonical_reference`'s walk of ``term``.  A run of prefixes is
    walked in a loop, so its length costs no stack; the walk is no closure,
    so it leaves no reference cycle."""
    run = []
    while type(term) is Prefix and term not in memo:
        run.append(term)
        position.setdefault(term.event, len(position))
        term = term.cont
    out = memo.get(term)
    if out is None:
        t = type(term)
        if t in (ExtChoice, IntChoice):
            out = t(tuple(_walk(i, position, memo) for i in term.items))
        elif t is Guard:
            out = Guard(term.cond, _walk(term.body, position, memo))
        elif t is Seq:
            out = Seq(_walk(term.first, position, memo), _walk(term.second, position, memo))
        elif t is Interrupt:
            out = Interrupt(_walk(term.body, position, memo), _walk(term.handler, position, memo))
        elif t is Call or term is SKIP or term is STOP:
            out = term
        else:
            raise TypeError(f"no canonical form for spec term {term!r}")
        memo[term] = out
    for node in reversed(run):
        out = memo[node] = Prefix(position[node.event], out)
    return out
