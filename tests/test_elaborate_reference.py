"""`dsl.elaborate`, which plans each atom's alphabet once and checks every
field value against its channel where it evaluates it, against the
elaborator it replaced (`elaborate_reference.py`).

Each model is elaborated twice, once by each, on copies whose channel
names carry a fresh prefix, so that every event name either run interns is
new.  Both must give the same component names, alphabets, ground terms
(printed), owners and warnings, and intern the same new names in the same
order, since event ids decide counterexample tie-breaks; or both must
raise the same error class with the same message.  The corpus holds the
bundled models, the three families at several sizes, the family corpus of
`test_family_reference.py`, the random live networks of `conftest.py`
written out as models, seeded random alphabets and every single and
double alphabet fault of a small model.  Two deliberate differences are
pinned apart: a rejected alphabet no longer interns its out-of-domain
names, and a repeated component name's message says that the name is
declared twice, and by which instance, where the reference gave the name
alone.
"""

import itertools
import random
import re

import pytest

import bundled
from conftest import random_live_network
from dpa import models
from dpa.dsl import DuplicateComponentName, elaborate, parse_network
from dpa.events import EVENTS
from dpa.network import InputError
from dpa.terms import Call, ExtChoice, Prefix
from elaborate_reference import reference_elaborate
from test_family_reference import CORPUS as FAMILY_CORPUS

_fresh = itertools.count()


def with_prefix(source, prefix):
    """``source`` with every declared channel name, wherever it occurs as a
    name, spelled with ``prefix`` in front."""
    channels = [c.name for c in parse_network(source).channels if c.name != "id"]
    if not channels:
        return source
    names = "|".join(sorted(map(re.escape, channels), key=len, reverse=True))
    return re.sub(rf"(?<![\w'])({names})(?![\w'])", prefix + r"\1", source)


def outcome(elaborator, source):
    """What ``elaborator`` makes of a fresh copy of ``source``: the network
    written out, or its error, and the names it interned, in order; both
    with the copy's prefix taken out again."""
    prefix = f"Zq{next(_fresh)}_"
    copy = with_prefix(source, prefix)
    before = len(EVENTS._names)
    try:
        net = elaborator(parse_network(copy))
    except InputError as exc:
        result = ("error", type(exc), str(exc))
    else:
        result = (
            [c.name for c in net.components],
            [sorted(EVENTS.names(c.alphabet)) for c in net.components],
            [str(c.term) for c in net.components],
            sorted((EVENTS.name(e), ix) for e, ix in net.owners.items()),
            net.warnings,
        )
    return unprefixed(result, prefix), unprefixed(EVENTS._names[before:], prefix)


def unprefixed(value, prefix):
    """``value`` with ``prefix`` taken out of every string it holds."""
    if isinstance(value, str):
        return value.replace(prefix, "")
    if isinstance(value, (list, tuple)):
        return type(value)(unprefixed(v, prefix) for v in value)
    return value


def assert_same(source):
    """Diff the two elaborators on ``source``; the new outcome."""
    want, want_order = outcome(reference_elaborate, source)
    got, got_order = outcome(elaborate, source)
    if want[:2] == ("error", DuplicateComponentName):
        # the reference named the repeated component and nothing more
        assert got[:2] == want[:2]
        assert got[2].startswith(f"component name '{want[2]}' is declared twice")
    else:
        assert got == want
    if got[0] != "error":
        assert got_order == want_order
    return got


# ---------------------------------------------------------------------------
# the corpus


def live_network_source(net):
    """A random live network of ``conftest.py`` written out as a model: a
    channel per event head over the field values its events use, the
    definitions its components call, and an atom per component, its
    alphabet exact or an extension by turns."""
    names = sorted({EVENTS.name(e) for c in net.components for e in c.alphabet})
    domains = {}
    for name in names:
        head, *fields = name.split(".")
        for k, v in enumerate(fields):
            domains.setdefault(head, [set() for _ in fields])[k].add(int(v))
    lines = ["version 1"]
    for head, fields in domains.items():
        spelled = ".".join("{" + ", ".join(map(str, sorted(f))) + "}" for f in fields)
        lines.append(f"channel {head} : {spelled}")

    def process(term):
        if type(term) is Prefix:
            return f"{EVENTS.name(term.event)} -> {process(term.cont)}"
        if type(term) is Call:
            return term.name
        op = " [] " if type(term) is ExtChoice else " |~| "
        return "(" + op.join(process(i) for i in term.items) + ")"

    env = net.components[0].env
    for (name, _arity), d in env.definitions.items():
        lines.append(f"{name} = {process(d.body)}")
    for k, c in enumerate(net.components):
        events = ", ".join(sorted(EVENTS.names(c.alphabet)))
        alphabet = f"{{ {events} }}" if k % 2 else f"{{| {events} |}}"
        lines.append(f"atom {c.name}A = alphabet {alphabet} behaviour {c.term.name}")
        lines.append(f"instance {c.name} = {c.name}A")
    return "\n".join(lines) + "\n"


RANDOM_HEADER = """\
version 1
const N = {n}
channel a : {{0..N-1}}.{{0..2}}
channel b : {{0..N-1}}
channel c
channel d : {{0..1}}.{{0..N-1}}.{{0..1}}
fun next(i) = (i + 1) % N
"""
# field expressions, mostly in a domain; a few are unbound, divide by
# zero or fall outside
FIELDS = ["id", "id", "next(id)", "0", "1", "(N - 1)", "((id + 1) / 2)", "N", "7", "x", "(id / 0)"]
HEADS = {"a": 2, "b": 1, "c": 0, "d": 3}


def random_alphabet_source(rng):
    """Atoms whose alphabets mix exact and partial templates over four
    channels, now and then with a fault: an undeclared channel, a field
    too many or too few, a field that does not evaluate or a value outside
    its field's domain."""
    lines = [RANDOM_HEADER.format(n=rng.randint(1, 4))]
    for k in range(rng.randint(1, 3)):
        exact = rng.random() < 0.4
        templates = []
        for _ in range(rng.randint(1, 5)):
            head = rng.choice([*HEADS] * 8 + ["e"])
            arity = HEADS.get(head, 1)
            if exact:
                given = arity if rng.random() < 0.95 else max(0, arity - 1)
            else:
                given = rng.randint(0, arity)
            if rng.random() < 0.03:
                given += 1
            picks = FIELDS[:6] if rng.random() < 0.9 else FIELDS
            templates.append(".".join([head] + [rng.choice(picks) for _ in range(given)]))
        body = ", ".join(templates)
        alphabet = f"{{ {body} }}" if exact else f"{{| {body} |}}"
        behaviour = rng.choice(["STOP", "b.0 -> STOP", "c -> STOP"])
        lines.append(f"atom A{k} = alphabet {alphabet} behaviour {behaviour}")
        ids = rng.choice(["", " {0..N-1}", " {N-1, 0}", " {1..0}"])
        lines.append(f"instance I{k} = A{k}{ids}")
    return "\n".join(lines) + "\n"


FAULT_BASE = """\
version 1
const N = 3
channel c : {{0..1}}
channel d : {{0..N-1}}.{{0..1}}
channel e
fun next(i) = (i + 1) % N
P(id) = d.id.0 -> e -> P(id)
atom PA = alphabet {{| {pa1}, e, {pa3}, {pa4} |}} behaviour P(id)
atom QA = alphabet {{ {qa1}, {qa2}, {qa3} }} behaviour {qb}
instance P = PA {{0..N-1}}
instance Q = QA {{0..1}}
"""
FAULT_SLOTS = dict(pa1="d.id", pa3="c", pa4="d.0", qa1="c.1", qa2="d.next(id).1", qa3="e",
                   qb="e -> STOP")
# each fault rewrites one slot; every two of them rewrite different slots
FAULTS = {
    "unbound-variable": ("pa1", "d.x"),
    "undeclared-channel": ("qa3", "f"),
    "too-many-fields": ("pa3", "c.0.1"),
    "exact-missing-field": ("qa2", "d.next(id)"),
    "exact-out-of-domain": ("qa1", "c.7"),
    "partial-out-of-domain": ("pa4", "d.(id + N)"),
    "unbound-in-behaviour": ("qb", "P(x)"),
}


def fault_source(*faults):
    slots = dict(FAULT_SLOTS)
    for fault in faults:
        slot, text = FAULTS[fault]
        slots[slot] = text
    return FAULT_BASE.format(**slots)


def corpus():
    out = [(name, build()) for name, build in bundled.BUNDLED.items() if name.endswith(".net")]
    for n in (2, 3, 5, 20, 60):
        out.append((f"philosophers({n})", models.philosophers_source(n)))
        out.append((f"philosophers({n}, symmetric)", models.philosophers_source(n, True)))
    out += [(f"leadership({n})", models.leadership_source(n)) for n in (2, 3, 5)]
    out += [(f"ring_buffer({n})", models.ring_buffer_source(n)) for n in (2, 3, 6)]
    out += [(f"family:{name}", source) for name, source in FAMILY_CORPUS]
    rng = random.Random(31)
    out += [(f"live[{k}]", live_network_source(random_live_network(rng))) for k in range(20)]
    rng = random.Random(32)
    out += [(f"alphabet[{k}]", random_alphabet_source(rng)) for k in range(150)]
    out.append(("no-fault", fault_source()))
    out += [(f"fault:{f}", fault_source(f)) for f in FAULTS]
    out += [(f"faults:{f}+{g}", fault_source(f, g)) for f, g in itertools.combinations(FAULTS, 2)]
    return out


CORPUS = corpus()


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_elaborate_matches_reference(source):
    assert_same(source)


def test_the_corpus_reaches_every_outcome():
    """Floors, so that the diff cannot pass by comparing nothing: the random
    alphabets elaborate, and fail in each of the ways an alphabet can, and
    every seeded fault is an error."""
    outcomes = [assert_same(s) for name, s in CORPUS if name.startswith("alphabet[")]
    assert sum(o[0] != "error" for o in outcomes) >= 60
    assert {o[1].__name__ for o in outcomes if o[0] == "error"} >= {
        "NonGroundAlphabet", "UnknownChannel", "RangeOverflow", "InputError",
        "DuplicateComponentName"}
    assert all(assert_same(s)[0] == "error" for name, s in CORPUS if name.startswith("fault"))


def test_two_faults_report_the_first_one_the_old_elaborator_did():
    """The out-of-domain check waits for every instance: an error raised
    while a later instance elaborates comes first."""
    got = assert_same(fault_source("partial-out-of-domain", "undeclared-channel"))
    assert got[2] == "undeclared channel 'f'"
    got = assert_same(fault_source("exact-out-of-domain", "unbound-in-behaviour"))
    assert "unbound variable 'x'" in got[2]
    got = assert_same(fault_source("exact-out-of-domain", "exact-missing-field"))
    assert got[2] == "event d needs all fields in exact form"


def test_intern_order_follows_the_templates():
    """An extension that mixes whole channels and exact events interns
    them in template order, exact events where they stand."""
    source = (
        "version 1\nchannel a : {0..1}\nchannel b : {0..2}\nchannel c : {0..1}.{0..1}\n"
        "atom M = alphabet {| a, b.id, c.id, b.2 |} behaviour STOP\n"
        "instance M = M {1, 0}\n"
    )
    got, order = outcome(elaborate, source)
    assert order == ["a.0", "a.1", "b.1", "c.1.0", "c.1.1", "b.2", "b.0", "c.0.0", "c.0.1"]
    assert_same(source)


@pytest.mark.parametrize("fault", ["exact-out-of-domain", "partial-out-of-domain"])
def test_a_rejected_alphabet_interns_no_out_of_domain_name(fault):
    """The reference interned ``c.7`` (or ``d.3.0`` and ``d.3.1``) before
    the network rejected it, which shifted every later event id; now the
    event table grows by declared events only."""
    _, want_order = outcome(reference_elaborate, fault_source(fault))
    assert "c.7" in want_order or "d.3.0" in want_order
    prefix = f"Zq{next(_fresh)}_"
    declared = {prefix + e for e in ["c.0", "c.1", "e", "d.0.0", "d.0.1", "d.1.0", "d.1.1",
                                     "d.2.0", "d.2.1"]}
    before = len(EVENTS._names)
    with pytest.raises(InputError, match="^component alphabets must lie inside sigma$"):
        elaborate(parse_network(with_prefix(fault_source(fault), prefix)))
    assert set(EVENTS._names[before:]) <= declared
    assert len(EVENTS._names) <= before + len(declared)
