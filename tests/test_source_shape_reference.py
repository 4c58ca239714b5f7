"""Owners shared by the elaborator's one sharing walk, against the parent's
two groupers (`source_shape_reference.py`): families of calls with
event-only arguments, and calls without arguments grouped by source
shape when they compiled.

Every pair of components that compiled from one owner under the parent
must still compile from one.  The walk may share more; each class of
components it shares that joins classes of the parent is listed below,
with why.  Every family member the parent's resolver does not resolve is
listed too, so that with `test_resolve_reference.py` each model's members
are pinned.  That the shared members compile as they would on their own
is `test_family_reference.py`'s diff.
"""

import pytest

import bundled
import test_family_reference as family
from dpa import models
from dpa.dsl import elaborate, parse_network
from resolve_reference import reference_members
from source_shape_reference import owner_classes, parent_owners


def corpus():
    out = [(name, build()) for name, build in bundled.BUNDLED.items() if name.endswith(".net")]
    out += [(f"leadership({n})", models.leadership_source(n)) for n in range(2, 8)]
    out += [(f"ring_buffer({n})", models.ring_buffer_source(n)) for n in range(2, 7)]
    out += [(name, source) for name, (source, _shared) in family.GROUND.items()]
    return out


CORPUS = corpus()

# classes that join classes of the parent: the ring buffer's cells, all
# Cell(id, 0), whose stored value the walk keeps verbatim at 0, so they are
# one group (the parent refused the family: the self-call changes it);
# APhil, the asymmetric philosopher, which is Phil's shape up to its
# events; and Q, whose events the walk names at each value of y rather
# than by completing its channel's field, which the parent paired in
# another order
COARSER = {
    "ringbuffer.net": [["Cell.0", "Cell.1", "Cell.2"]],
    "philosophers.net": [["Phil.0", "Phil.1", "APhil.2"]],
    **{f"ring_buffer({n})": [[f"Cell.{i}" for i in range(n)]] for n in range(2, 7)},
    "remaining-domains-reordered": [["P", "Q", "R"]],
}



def leadership_names(n):
    return [f"Node.{i}" for i in range(n)] + [
        f"Bus.{i}.{j}" for i in range(n) for j in range(n) if i != j]


# every family member the parent's resolver does not resolve (the members
# it resolves are test_resolve_reference.py's): calls without arguments
# that share a walk's key with another call, and the coarser classes above
EXTRA = {
    "ringbuffer.net": ["Cell.0", "Cell.1", "Cell.2"],
    "philosophers.net": ["APhil.2"],
    "two_ring.net": ["C1", "C2", "C4", "C5"],
    "client_server.net": ["C1", "C2"],
    "leadership.net": leadership_names(2),
    **{f"leadership({n})": leadership_names(n) for n in range(2, 8)},
    **{f"ring_buffer({n})": [f"Cell.{i}" for i in range(n)] for n in range(2, 7)},
    "overlap": ["P", "Q", "R"],
    "remaining-domains-differ": ["P", "R"],
    "remaining-domains-reordered": ["P", "Q", "R"],
}


@pytest.mark.parametrize("name, source", CORPUS, ids=[n for n, _ in CORPUS])
def test_the_walk_adds_exactly_the_listed_members(name, source):
    net = elaborate(parse_network(source))
    resolved = reference_members(net)
    extra = {c.name for c in net.components if c.family is not None and c.name not in resolved}
    assert sorted(extra) == sorted(EXTRA.get(name, []))


@pytest.mark.parametrize("name, source", CORPUS, ids=[n for n, _ in CORPUS])
def test_no_owner_the_parent_shared_is_split(name, source):
    got = owner_classes(elaborate(parse_network(source)))
    want = parent_owners(source)
    where = {n: k for k, names in enumerate(got) for n in names}
    assert [names for names in want if len({where[n] for n in names}) > 1] == []
    parent = {n: k for k, names in enumerate(want) for n in names}
    joined = [names for names in got if len({parent[n] for n in names}) > 1]
    assert joined == COARSER.get(name, [])


def test_the_corpus_shares_owners_of_every_kind():
    """Calls without arguments and with them share owners under the parent
    in the corpus, and so does the walk."""
    shared = []
    for _name, source in CORPUS:
        shared += [names for names in parent_owners(source) if len(names) > 1]
    assert any(names[0].startswith("Bus") for names in shared)
    assert any(names[0].startswith("Phil") for names in shared)
    assert sum(map(len, shared)) >= 150
