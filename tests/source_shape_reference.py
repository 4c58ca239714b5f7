"""How the parent shared owners among calls without arguments, before
the elaborator's one sharing walk replaced ``network._Sources`` and
``network._source_shape``.

``Network.__init__`` grouped the components whose behaviour is a call
without arguments by their environment; each group of two or more was a
``_Sources``, whose members claimed their events and signature, by a walk
over their source definitions, when they compiled.  Calls with arguments
formed families in the elaborator, whose members' events are what
``resolve_reference.py`` resolves.  :func:`parent_owners` compiles a
network's components as the parent shared them;
``tests/test_source_shape_reference.py`` checks that every pair that
shared an owner there still shares one.
"""

from __future__ import annotations

from itertools import chain, product

from dpa.dsl import elaborate, parse_network
from dpa.events import EVENTS
from dpa.terms import (
    Call, Div, ExtChoice, Guard, IndexedChoice, IntChoice, Interrupt, Lit, Prefix, Seq, Skip,
    Stop)
from resolve_reference import reference_members


class _Sources:
    """The components whose behaviour is a call without arguments, to
    definitions written once per instance (``BusOff01``, ``BusOff10``).
    Two calls of one source shape (:func:`_source_shape`) bind to ground
    terms that differ only in their definition names and events, so their
    LTSs are one LTS up to the event map φ that pairs their events
    position by position, as a family's members are.  A member's events
    are its fully literal events, then each head's completions over its
    channel's remaining fields, looked up without interning; its signature
    is its shape and their equality pattern, so φ is one-to-one.  A renamed
    member binds nothing, so a value outside its channel's domain, which
    only a branch that never fires can name, is interned only once the
    member's states are named; no label is such an event."""

    def __init__(self, env):
        self.env = env
        self.owners = {}  # signature -> its _Owner

    def claim(self, comp):
        """``comp``'s events and signature, or ``(None, None)`` when it has
        no source shape or one of its events is not interned."""
        shape = _source_shape(self.env, comp.term.name)
        if shape is None:
            return None, None
        key, ground, heads = shape
        completions = (".".join([head, *map(str, values)])
                       for head, domains in heads for values in product(*domains))
        events = []
        for name in chain(ground, completions):
            e = EVENTS.lookup(name)
            if e is None:
                return None, None
            events.append(e)
        first = {}
        return events, (key, tuple([first.setdefault(e, len(first)) for e in events]))


def _source_shape(env, name: str):
    """``(key, ground, heads)`` for a call to ``name`` without arguments,
    from one preorder walk over the source definitions it reaches, each
    looked up by (name, arity) when first reached; None where the walk
    meets a call to no definition, a template whose field count is not its
    channel's, or a term it does not know, Hide and Rename among them.

    The key has one token per term.  A definition name is the position
    where it is first reached.  A fully literal event (``on.0.1``) is its
    position in ``ground``, the names in first-occurrence order.  A
    template with a literal head (``snd.0.1?d``: its channel and leading
    literal fields) is its head's position in ``heads``, each head with
    its channel's remaining domains, and its channel, literal count and
    remaining fields.  Parameters, guards, call arguments and
    indexed-choice items are kept verbatim.  A term met again is the index
    of its first token, so shared terms are walked once."""
    positions = {(name, 0): 0}  # (name, arity) -> position, as first reached
    order = [(name, 0)]
    ground, heads = {}, {}  # name -> position; head -> (position, domains)
    seen = {}  # term -> index of its token
    key = []
    for ref in order:  # grows while it is read
        d = env.definitions.get(ref)
        if d is None:
            return None
        key.append(d.params)
        stack = [d.body]
        while stack:
            term = stack.pop()
            if term in seen:
                key.append(seen[term])
                continue
            seen[term] = len(key)
            t = type(term)
            if t is Prefix:
                ev = term.event
                if type(ev) is int:  # a ground event in a source term
                    key.append((t, ground.setdefault(EVENTS.name(ev), len(ground))))
                else:
                    fields = ev.fields
                    k = 0
                    while k < len(fields) and type(fields[k]) is Lit:
                        k += 1
                    head = ".".join([ev.head, *(str(f.value) for f in fields[:k])])
                    if k == len(fields):
                        key.append((t, ground.setdefault(head, len(ground))))
                    else:
                        domains = env.channels.get(ev.head)
                        if domains is None or len(domains) != len(fields):
                            return None
                        at = heads.setdefault(head, (len(heads), domains[k:]))[0]
                        key.append((t, at, ev.head, k, fields[k:]))
                stack.append(term.cont)
            elif t is ExtChoice or t is IntChoice:
                key.append((t, len(term.items)))
                stack.extend(reversed(term.items))
            elif t is Seq:
                key.append(t)
                stack.extend((term.second, term.first))
            elif t is Interrupt:
                key.append(t)
                stack.extend((term.handler, term.body))
            elif t is Guard:
                key.append((t, term.cond))
                stack.append(term.body)
            elif t is IndexedChoice:
                key.append((t, term.op, term.var, term.items))
                stack.append(term.body)
            elif t is Call:
                ref = (term.name, len(term.args))
                if ref not in positions:
                    positions[ref] = len(order)
                    order.append(ref)
                key.append((t, positions[ref], term.args))
            elif t is Stop or t is Skip or t is Div:
                key.append(t)
            else:
                return None
    return tuple(key), list(ground), [(h, domains) for h, (_, domains) in heads.items()]


class _Members:
    """A parent family: its members' claims, made when it elaborated."""

    def __init__(self, claims):
        self.owners, self.claims = {}, claims

    def claim(self, comp):
        return self.claims[comp.name]


def owner_classes(net):
    """The names of ``net``'s components by the owner each compiles from,
    compiled in order, the classes in order of their first member."""
    classes = {}
    for comp in net.components:
        comp.compiled()
        classes.setdefault(id(comp._share[0]), []).append(comp.name)
    return list(classes.values())


def parent_owners(source):
    """:func:`owner_classes` of ``source``'s network with its components
    grouped as the parent grouped them."""
    net = elaborate(parse_network(source))
    claims = reference_members(net)
    families, calls = {}, {}
    for c in net.components:
        c.family = None
        if c.name in claims:
            families.setdefault((c.term.name, len(c.term.args)), {})[c.name] = claims[c.name]
        elif c.lts is None and type(c.term) is Call and not c.term.args:
            calls.setdefault(c.env, []).append(c)
    for members in families.values():
        family = _Members(members)
        for c in net.components:
            if c.name in members:
                c.family = family
    for env, members in calls.items():
        if len(members) > 1:
            sources = _Sources(env)
            for c in members:
                c.family = sources
    return owner_classes(net)
