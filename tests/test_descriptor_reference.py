"""`patterns.parse_descriptor`, which reads every connection table through
`_table` and checks every totality rule through `_total`, against the three
hand-written readers it replaced (`descriptor_reference.py`).

On the bundled and family descriptors, the 60 seeded descriptor mutants of
`test_spec_shape_reference.py` and a seeded single-fault corpus, both must
give equal descriptors, or the same exception class and message.  The
documents whose reading deliberately changed are pinned instead: an
unknown top-level or connection field, a `schema` that equals 1 without
being the integer 1 and an async-dynamic participant with no outgoing
connection (whose spec would diverge) are now rejected, and a missing
connection field is named in a sentence.  Floors on what was compared keep the corpus from
passing by comparing nothing."""

import copy
import json
import random
import re

import bundled
from descriptor_reference import parse_descriptor_reference
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.network import InputError
from dpa.patterns import DESCRIPTORS, DescriptorError, NonTotalMap, parse_descriptor
from test_spec_shape_reference import _corpus

BASES = (
    [(models.philosophers_source(n, sym), models.philosophers_descriptor(n, sym))
     for n in range(2, 9) for sym in (False, True)]
    + [(models.leadership_source(n), models.leadership_descriptor(n)) for n in range(2, 6)]
    + [(bundled.read("client_server.net"), bundled.client_server_descriptor())]
)

# names a fault may add as a map key: misspelt fields, and names the
# bundled models use in another role
STRAY_KEYS = ("response", "component-order", "aquire", "Fork.0", "C0", "Bus.0.1", "req10")

# the field names of every pattern, top-level and per connection
FIELDS = {key for _source, doc in BASES for part in (doc, doc["connections"][0]) for key in part}


def _positions(value, path=()):
    """(path, container, key) of every value nested in ``value``; the path
    holds the field names on the way, and "*" for each list index or map
    key."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in list(items):
        here = path + (key if key in FIELDS else "*",)
        yield here, value, key
        if isinstance(inner, (dict, list)):
            yield from _positions(inner, here)


# faults: each changes ``box[key]`` of ``doc`` in place, or returns False
# where it does not apply


def _drop(rng, doc, box, key):
    del box[key]


def _retype(rng, doc, box, key):
    box[key] = rng.choice([5, "x", [], {}, None, True, 1.0])


def _unknown_name(rng, doc, box, key):
    if not isinstance(box[key], str):
        return False
    box[key] = "Ghost"


def _rename_key(rng, doc, box, key):
    if not isinstance(box, dict):
        return False
    box["Ghost"] = box.pop(key)


def _repeat(rng, doc, box, key):
    if not isinstance(box, list):
        return False
    box.insert(key, copy.deepcopy(box[key]))


def _borrow(rng, doc, box, key):
    """A connection field takes the value it has in another connection."""
    others = [c for c in doc["connections"] if c is not box and key in c]
    if box not in doc["connections"] or not others:
        return False
    box[key] = copy.deepcopy(rng.choice(others)[key])


def _extra_key(rng, doc, box, key):
    stray = rng.choice(STRAY_KEYS)
    if not isinstance(box, dict) or stray in box:
        return False
    box[stray] = copy.deepcopy(box[key])


def _empty(rng, doc, box, key):
    if not isinstance(box[key], list) or not box[key]:
        return False
    box[key] = []


FAULTS = (_drop, _retype, _unknown_name, _rename_key, _repeat, _borrow, _extra_key, _empty)


def _single_faults(seed=29, count=1200):
    """(source, descriptor JSON): seeded mutants of the bases, each with one
    fault.  A pattern, then a base of it, then a path through the document
    and a position on it are picked at random, so that every field is hit
    about as often, whatever the size of the base."""
    rng = random.Random(seed)
    patterns = sorted({doc["pattern"] for _source, doc in BASES})
    made = 0
    while made < count:
        pattern = rng.choice(patterns)
        source, doc = rng.choice([b for b in BASES if b[1]["pattern"] == pattern])
        doc = copy.deepcopy(doc)
        by_path = {}
        for path, box, key in _positions(doc):
            by_path.setdefault(path, []).append((box, key))
        box, key = rng.choice(by_path[rng.choice(sorted(by_path))])
        if rng.choice(FAULTS)(rng, doc, box, key) is False:
            continue
        made += 1
        yield source, doc


def _outcome(parse, doc, net):
    """("ok", descriptor) or ("error", exception class, message)."""
    try:
        return "ok", parse(doc, net)
    except InputError as exc:
        return "error", type(exc), str(exc)


def _pinned(doc, reference):
    """What the reader now gives where it deliberately differs from the
    reference on ``doc`` (with one fault at most), else None."""
    schema = doc.get("schema", 1)
    if schema == 1 and type(schema) is not int:
        return "error", DescriptorError, f"unsupported descriptor schema {schema}"
    cls = DESCRIPTORS.get(doc.get("pattern")) if isinstance(doc.get("pattern"), str) else None
    if cls is None:
        return None
    stray = [k for k in doc if k not in ("schema", "pattern") + cls.sections]
    if stray:
        return "error", NonTotalMap, f"unknown descriptor field '{stray[0]}'"
    fields = _connection_fields(doc)
    for conn in doc.get("connections") if isinstance(doc.get("connections"), list) else ():
        stray = [k for k in conn if k not in fields] if isinstance(conn, dict) else ()
        if stray:
            return "error", NonTotalMap, f"unknown connection field '{stray[0]}'"
    missing = reference[0] == "error" and re.fullmatch(r"'(\w+)'", reference[2])
    if missing:
        return "error", NonTotalMap, f"each connection needs a field {reference[2]}"
    if reference[0] == "ok" and cls.pattern == "async-dynamic":
        senders = {i for (i, _j) in reference[1].connections}
        for p in reference[1].participants:
            if p not in senders:
                return "error", NonTotalMap, f"participant '{p}' has no outgoing connection"
    return None


def _connection_fields(doc):
    """The keys a connection of ``doc``'s pattern has, read off the bases."""
    for _source, base in BASES:
        if base["pattern"] == doc["pattern"]:
            return set(base["connections"][0])


# what is left out of a message to tell its kind: quoted names, pairs,
# tuples and lists
NAMES = r"'[^']*'|\S+->\S+|\(.*\)|\[.*\]"


def test_readers_match_reference():
    nets = {}
    kinds = {}  # outcome, with the names left out of a message -> documents
    pinned = {}  # the same, of the documents whose reading changed
    corpus = [*BASES, *_corpus(), *_single_faults()]
    for source, doc in corpus:
        if source not in nets:
            nets[source] = elaborate(parse_network(source))
        net = nets[source]
        reference = _outcome(parse_descriptor_reference, doc, net)
        got = _outcome(parse_descriptor, doc, net)
        expected = _pinned(doc, reference)
        assert got == (expected or reference), json.dumps(doc)
        kind = "ok" if got[0] == "ok" else (got[1], re.sub(NAMES, "_", got[2]))
        for tally in (kinds, pinned) if expected else (kinds,):
            tally[kind] = tally.get(kind, 0) + 1
    assert len(corpus) > 1200
    assert kinds["ok"] >= 200
    assert len(corpus) - kinds["ok"] >= 900
    assert len(kinds) >= 35
    assert pinned[NonTotalMap, "unknown descriptor field _"] >= 100
    assert pinned[NonTotalMap, "unknown connection field _"] >= 100
    assert pinned[NonTotalMap, "each connection needs a field _"] >= 50
    assert pinned[NonTotalMap, "participant _ has no outgoing connection"] >= 3
    assert pinned[DescriptorError, "unsupported descriptor schema 1.0"] >= 1
    assert pinned[DescriptorError, "unsupported descriptor schema True"] >= 1
