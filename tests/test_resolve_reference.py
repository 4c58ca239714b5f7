"""Each family member's events and signature, which `dsl.elaborate` plans
with the member's alphabet, against the resolver that evaluated them again
when the member compiled (`resolve_reference.py`).

Right after a model is elaborated, every member's `(events, signature)`
must equal the reference's, in the same order, since φ pairs the owner's
events with the member's position by position; and the components the
reference resolves must be exactly the family members.  The corpus holds
the bundled models, `philosophers_source(2..6)` both ways,
`leadership_source(2..5)` (which forms no family of calls with arguments),
the random families of `test_family_reference.py` and its adversarial
sources, and bodies whose fields evaluate only at some members or name
events that nothing interns.
"""

import pytest

import bundled
import test_family_reference as family
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.network import _Family
from resolve_reference import reference_members


def corpus():
    out = [(name, build()) for name, build in bundled.BUNDLED.items() if name.endswith(".net")]
    for n in range(2, 7):
        out.append((f"philosophers({n})", models.philosophers_source(n)))
        out.append((f"philosophers({n}, symmetric)", models.philosophers_source(n, True)))
    out += [(f"leadership({n})", models.leadership_source(n)) for n in range(2, 6)]
    out += [(name, source) for name, source in family.CORPUS if name.startswith("random_family")]
    out += list(family.special_sources().items())
    out += list(family.NOT_EVENT_ONLY.items())
    out += [(name, source) for name, (source, _shared) in family.FALLING_BACK.items()]
    out += [(name, source) for name, (source, _shared) in family.GROUND.items()]
    out += [(name, source) for name, (source, *_outcome) in family.EAGER.items()]
    out += [(name, source) for name, source in family.INTERNING[:3]]
    out.append(("field-only-in-the-body",
                family.adversarial("a.id -> b.fix(id) -> P(id)", "{| a.id, b |}")))
    return out


CORPUS = corpus()


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_member_events_match_the_reference(source):
    net = elaborate(parse_network(source))
    want = reference_members(net)
    got = {c.name: c.family.claim(c) for c in net.components if type(c.family) is _Family}
    assert got == want


def test_the_corpus_resolves_members_of_every_kind():
    """Members that share a signature, members without one, and members
    whose fields do not evaluate."""
    claims = []
    for _name, source in CORPUS:
        claims += reference_members(elaborate(parse_network(source))).values()
    assert len(claims) >= 265
    assert sum(signature is not None for _events, signature in claims) >= 250
    # at least the three members whose dead branch names dead.7 to dead.9,
    # which nothing interns, and P.0, whose 10 / id does not evaluate
    assert sum(events is not None and signature is None for events, signature in claims) >= 3
    assert sum(events is None for events, _signature in claims) >= 1
