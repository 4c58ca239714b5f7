"""``oracle._Product.moves`` against the product it replaced
(``product_reference.py``) on every reachable state of a corpus: the corpus
of ``test_oracle.py``, ``philosophers_source(6)`` both ways,
``leadership_source(3)`` and small networks written to take each path of
``moves``.  The move lists must be equal item for item, since the order of
successors decides which shortest witness the breadth-first search finds.
Floors on how often each path was taken keep a corpus from passing by
comparing nothing."""

from collections import Counter

import pytest

from product_reference import ProductReference
from test_oracle import GROUPS, _corpus, net_of
from dpa import models
from dpa.events import TAU
from dpa.lts import DEFAULT_STATE_LIMIT
from dpa.oracle import _Product


def _paths(net, trans, prod, code, moves):
    """The path of ``moves`` behind each event enabled at ``code``, and
    behind its tau moves, named by the owners and their targets."""
    local = prod.locals(code)
    for e, k in Counter(e for e, _ in moves).items():
        if e == TAU:
            movers = sum(any(l == TAU for l, _ in trans[i][s]) for i, s in enumerate(local))
            yield "tau in two components" if movers > 1 else "tau"
            continue
        owners = net.owners[e]
        leader = owners[0]
        if len(owners) == 1:
            yield "solo, two targets" if k > 1 else "solo"
        elif len(owners) > 2:
            yield "three owners"
        elif sum(l == e for l, _ in trans[leader][local[leader]]) > 1:
            yield "leader, two targets"
        else:
            yield "duo, other has two targets" if k > 1 else "duo"


def _diff(net, limit=DEFAULT_STATE_LIMIT):
    """Compare the moves of every reachable state; count the paths taken."""
    want, got = ProductReference(net, limit), _Product(net, limit)
    assert got.initial == want.initial and got.strides == want.strides
    trans = [c.compiled().trans for c in net.components]
    paths = Counter()
    seen = {want.initial}
    order = [want.initial]
    for code in order:
        moves = want.moves(code)
        assert got.moves(code) == moves
        paths.update(_paths(net, trans, got, code, moves))
        for _e, nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    paths["states"] = len(order)
    return paths


# the least count of each path over each group
FLOORS = {
    "bundled": {"states": 1_000, "solo": 1_000, "duo": 1_000, "tau": 50,
                "tau in two components": 25},
    "philosophers": {"states": 10_000, "solo": 20_000, "duo": 20_000},
    "ring_buffer_leadership": {"states": 2_000, "solo": 2_000, "duo": 1_000, "tau": 50,
                               "tau in two components": 25},
    "random": {"states": 500, "solo": 500, "solo, two targets": 50, "duo": 200,
               "duo, other has two targets": 10, "leader, two targets": 25,
               "tau": 100, "tau in two components": 15},
    "large": {"states": 200_000, "solo": 200_000, "duo": 500_000, "tau": 40_000,
              "tau in two components": 50_000},
}


def _group(group):
    if group == "large":
        return [net_of(models.philosophers_source(6)),
                net_of(models.philosophers_source(6, symmetric=True)),
                net_of(models.leadership_source(3))]
    return _corpus(group)


@pytest.mark.parametrize("group", GROUPS + ("large",))
def test_moves_match_reference(group):
    paths = Counter()
    for net in _group(group):
        paths += _diff(net)
    for path, floor in FLOORS[group].items():
        assert paths[path] >= floor, (path, paths)


# a lone component's private event with two targets
SOLO_BRANCH = """
version 1
channel a
channel b
P = a -> P [] a -> b -> P
Q = b -> Q
atom PA = alphabet { a, b } behaviour P
atom QA = alphabet { b } behaviour Q
instance X = PA
instance Y = QA
"""

# X leads ``a`` with one target and Y follows with two
DUO_BRANCH = """
version 1
channel a
channel b
channel c
P = a -> (b -> P [] c -> P)
Q = a -> b -> Q [] a -> c -> Q
atom PA = alphabet { a, b, c } behaviour P
atom QA = alphabet { a, b, c } behaviour Q
instance X = PA
instance Y = QA
"""

# X leads ``a`` with two targets and Y follows with one
LEADER_BRANCH = """
version 1
channel a
channel b
channel c
P = a -> b -> P [] a -> c -> P
Q = a -> (b -> Q [] c -> Q)
atom PA = alphabet { a, b, c } behaviour P
atom QA = alphabet { a, b, c } behaviour Q
instance X = PA
instance Y = QA
"""

# ``a`` has three owners, the last with two targets for it
THREE_OWNERS = """
version 1
channel a
channel b
P = a -> P
Q = a -> b -> Q
R = a -> R [] a -> b -> R
atom PA = alphabet { a } behaviour P
atom QA = alphabet { a, b } behaviour Q
atom RA = alphabet { a, b } behaviour R
instance X = PA
instance Y = QA
instance Z = RA
"""

# both components start with tau moves
TAU_BOTH = """
version 1
channel a
channel b
P = (a -> P) |~| (b -> P)
Q = (a -> Q) |~| (b -> Q)
atom PA = alphabet { a, b } behaviour P
atom QA = alphabet { a, b } behaviour Q
instance X = PA
instance Y = QA
"""

PATHS = {
    "solo, two targets": SOLO_BRANCH,
    "duo, other has two targets": DUO_BRANCH,
    "leader, two targets": LEADER_BRANCH,
    "three owners": THREE_OWNERS,
    "tau in two components": TAU_BOTH,
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_moves_match_reference_on_each_path(path):
    assert _diff(net_of(PATHS[path]))[path] >= 1
