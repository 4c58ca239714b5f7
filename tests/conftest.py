"""Shared fixtures, models, random-model generators and the reference
helpers that more than one test file reads: an LTS's successors under a
label, counterexample replay, the plain product BFS's reachable states and
a role's characteristic process."""

import random
from collections import deque

import pytest

from dpa.events import TICK, event
from dpa.lts import DEFAULT_STATE_LIMIT
from dpa.network import Component, Network
from dpa.oracle import GlobalState
from dpa.semantics import (
    DEADLOCK_VIOLATION,
    REFUSAL_VIOLATION,
    REVIVAL_VIOLATION,
    TRACE_VIOLATION,
)
from dpa.terms import (
    Call,
    DefEnv,
    Definition,
    DIV,
    ExtChoice,
    Hide,
    IntChoice,
    Interrupt,
    Prefix,
    Rename,
    Seq,
    SKIP,
    STOP,
)


# two components that each wait for the other's first event: the one edge
# is a possible conflict
CROSSED_MODEL = """version 1
channel a
channel b
A = a -> b -> A
B = b -> a -> B
atom AC = alphabet { a, b } behaviour A
atom BC = alphabet { a, b } behaviour B
instance P = AC
instance Q = BC
"""


def ev3():
    return [event("a"), event("b"), event("c")]


# ---------------------------------------------------------------------------
# random closed terms over a tiny alphabet, for oracle cross-validation


def random_env(rng: random.Random, events, n_defs=2):
    """Definitions whose bodies are prefix-guarded, so every recursive call
    consumes at least one visible event per unfolding."""
    env = DefEnv()
    names = [f"D{i}" for i in range(n_defs)]

    def body(depth):
        return Prefix(
            rng.choice(events), random_term(rng, depth, events, env, calls_ok=True)
        )

    for name in names:
        env.define(Definition(name, (), STOP))  # placeholder for call checks
    for name in names:
        env.definitions[(name, 0)] = Definition(name, (), body(2))
    return env


def random_term(rng: random.Random, depth, events, env, calls_ok=True):
    """Random closed term.

    Two generator constraints keep the comparison harness sound and finite:
    calls never sit under hiding (so the depth-limited reference semantics
    stays exact on short observations), and calls only appear in tail
    positions -- under prefixing and choices, in a sequence's second
    operand -- never inside contexts that would be re-wrapped around the
    unfolding (sequence left side, interrupt, renaming), which is what
    keeps every generated term finite-control.
    """
    leaves = ["stop", "skip", "div"]
    if calls_ok and env.definitions:
        leaves += ["call", "call"]
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(
            ["prefix", "prefix", "ext", "int", "seq", "hide", "rename", "interrupt"]
            + leaves
        )
    if kind == "stop":
        return STOP
    if kind == "skip":
        return SKIP
    if kind == "div":
        return DIV
    if kind == "call":
        name = rng.choice(sorted(n for (n, _a) in env.definitions))
        return Call(name)
    if kind == "prefix":
        return Prefix(rng.choice(events), random_term(rng, depth - 1, events, env, calls_ok))
    if kind == "ext":
        return ExtChoice(
            tuple(
                random_term(rng, depth - 1, events, env, calls_ok)
                for _ in range(rng.randint(2, 3))
            )
        )
    if kind == "int":
        return IntChoice(
            tuple(
                random_term(rng, depth - 1, events, env, calls_ok)
                for _ in range(2)
            )
        )
    if kind == "seq":
        return Seq(
            random_term(rng, depth - 1, events, env, calls_ok=False),
            random_term(rng, depth - 1, events, env, calls_ok),
        )
    if kind == "hide":
        return Hide(
            random_term(rng, depth - 1, events, env, calls_ok=False),
            frozenset({rng.choice(events)}),
        )
    if kind == "rename":
        a = rng.choice(events)
        image = tuple(sorted({a, rng.choice(events)}))
        pairs = tuple(sorted((a, b) for b in image))
        return Rename(
            random_term(rng, depth - 1, events, env, calls_ok=False), pairs
        )
    if kind == "interrupt":
        return Interrupt(
            random_term(rng, depth - 1, events, env, calls_ok=False),
            random_term(rng, depth - 1, events, env, calls_ok=False),
        )
    raise AssertionError(kind)


def random_plain_term(rng: random.Random, depth, events):
    """Divergence-free, termination-free term (no SKIP/DIV/hide/seq), for
    the refinement-law suite."""
    if depth <= 0:
        return STOP
    kind = rng.choice(["prefix", "prefix", "prefix", "ext", "int", "stop"])
    if kind == "stop":
        return STOP
    if kind == "prefix":
        return Prefix(rng.choice(events), random_plain_term(rng, depth - 1, events))
    items = tuple(
        Prefix(rng.choice(events), random_plain_term(rng, depth - 1, events))
        for _ in range(2)
    )
    return ExtChoice(items) if kind == "ext" else IntChoice(items)


# ---------------------------------------------------------------------------
# random live networks, for the soundness fuzz harness


def random_live_network(rng: random.Random, max_components=4, max_states=5):
    """Live by construction: every component is a strongly cycling machine
    (busy, never terminates) and each shared event belongs to exactly one
    pair of components."""
    n = rng.randint(2, max_components)
    tree_bias = rng.random() < 0.5
    pairs = []
    for j in range(1, n):
        i = rng.randrange(j)
        pairs.append((i, j))
    if not tree_bias:
        extra = rng.randint(0, n - 1)
        for _ in range(extra):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j and (min(i, j), max(i, j)) not in pairs:
                pairs.append((min(i, j), max(i, j)))
    tag = rng.randrange(10**6)
    alphabets = [set() for _ in range(n)]
    for (i, j) in pairs:
        for k in range(rng.randint(1, 2)):
            e = event(f"s{tag}.{i}.{j}.{k}")
            alphabets[i].add(e)
            alphabets[j].add(e)
    for i in range(n):
        alphabets[i].add(event(f"p{tag}.{i}"))
    env = DefEnv()
    comps = []
    for c in range(n):
        events = sorted(alphabets[c])
        k = rng.randint(2, max_states)
        for s in range(k):
            branches = tuple(
                Prefix(rng.choice(events), Call(f"S{tag}_{c}_{rng.randrange(k)}"))
                for _ in range(rng.randint(1, 2))
            )
            if len(branches) == 1:
                body = branches[0]
            elif rng.random() < 0.8:
                body = ExtChoice(branches)
            else:
                body = IntChoice(branches)
            env.define(Definition(f"S{tag}_{c}_{s}", (), body))
        comps.append(
            Component(f"C{c}", frozenset(alphabets[c]), Call(f"S{tag}_{c}_0"), env)
        )
    return Network(comps)


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# counterexample replay


def successors(lts, s, label):
    """The targets of ``s``'s transitions labelled ``label``."""
    return [t for (l, t) in lts.trans[s] if l == label]


def replay(impl, ce) -> bool:
    """Re-execute a counterexample trace on the implementation and confirm it
    reaches a configuration witnessing the reported violation."""
    current = _closure(impl, {impl.initial})
    for e in ce.trace:
        nxt = set()
        for s in current:
            nxt.update(successors(impl, s, e))
        if not nxt:
            return False
        current = _closure(impl, nxt)
    if ce.kind == TRACE_VIOLATION:
        if ce.event == TICK:
            return any(impl.has_tick(s) for s in current)
        return any(ce.event in impl.visible_initials(s) for s in current)
    for s in current:
        acc = impl.visible_initials(s)
        tick = impl.has_tick(s)
        if ce.kind == REFUSAL_VIOLATION and tick and ce.acceptance == {TICK}:
            return True
        if impl.taus(s):
            continue
        if ce.kind == DEADLOCK_VIOLATION and not acc and not tick:
            return True
        if ce.kind == REFUSAL_VIOLATION and not tick and acc == ce.acceptance:
            return True
        if ce.kind == REVIVAL_VIOLATION and not tick:
            if ce.event in acc and acc == ce.acceptance:
                return True
    return False


def _closure(lts, states):
    seen = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in lts.taus(s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


# ---------------------------------------------------------------------------
# reference: the plain product BFS, which tests every owned event against
# every owner at every global state


class ReferenceProduct:
    def __init__(self, net, limit):
        ltss = [c.compiled(max(limit, DEFAULT_STATE_LIMIT)) for c in net.components]
        self.taus = [[lts.taus(s) for s in range(lts.n_states)] for lts in ltss]
        self.vis = [
            [{e: successors(lts, s, e) for e in lts.visible_initials(s)}
             for s in range(lts.n_states)]
            for lts in ltss
        ]
        self.tick = [[lts.has_tick(s) for s in range(lts.n_states)] for lts in ltss]
        self.owners = {}
        for i, c in enumerate(net.components):
            for e in c.alphabet:
                self.owners.setdefault(e, []).append(i)
        self.initial = tuple(lts.initial for lts in ltss)

    def moves(self, state):
        out = []
        for i, s in enumerate(state):
            for t in self.taus[i][s]:
                nxt = list(state)
                nxt[i] = t
                out.append((None, tuple(nxt)))
        for e in self.enabled_events(state):
            succs = [list(state)]
            for i in self.owners[e]:
                expanded = []
                for base in succs:
                    for t in self.vis[i][state[i]][e]:
                        nxt = list(base)
                        nxt[i] = t
                        expanded.append(nxt)
                succs = expanded
            out.extend((e, tuple(s)) for s in succs)
        return out

    def enabled_events(self, state):
        return sorted(
            e for e, owners in self.owners.items()
            if all(e in self.vis[i][state[i]] for i in owners)
        )

    def is_stable(self, state):
        return all(not self.taus[i][s] for i, s in enumerate(state))

    def all_tick(self, state):
        return all(self.tick[i][s] for i, s in enumerate(state))


def reference_reachable(net, state_limit=DEFAULT_STATE_LIMIT):
    """Yield the reachable global states, each with a shortest trace, in BFS
    order, until the limit is met."""
    prod = ReferenceProduct(net, state_limit)
    seen = {prod.initial: ()}
    queue = deque([prod.initial])
    while queue:
        state = queue.popleft()
        trace = seen[state]
        yield GlobalState(state, prod.is_stable(state), trace)
        for e, nxt in prod.moves(state):
            if nxt not in seen:
                if len(seen) >= state_limit:
                    return
                seen[nxt] = trace if e is None else trace + (e,)
                queue.append(nxt)


# ---------------------------------------------------------------------------
# characteristic processes


def generate_spec(desc, role, name, net=None):
    """``(env, term)`` of one component's characteristic process in one of
    the descriptor's roles, over its real events: the builder writes it with
    each event at its own id.  Only the server-requests role reads ``net``."""
    _spec_name, _model, build = desc.roles[role]
    definitions, term = build(desc, net, name, lambda e: e)
    return DefEnv(Definition(*d) for d in definitions), term
