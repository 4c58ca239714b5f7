"""The descriptor readers' reference: the three hand-written ``from_json``
readers and the envelope check that ``dpa.patterns`` replaced with one
connection-table reader and one totality check.

Each reader here walks its own ``connections`` loop, rejects a repeated
pair through ``_new_pair``, reads each connection field through ``_need``
and checks each "every X, and no other, has a Y" rule in its own loop.
They build the same descriptor classes as ``dpa.patterns``, so the two
readers' results compare with ``==``; ``tests/test_descriptor_reference.py``
diffs them.  Unknown top-level and connection fields are ignored here,
``schema`` is compared with ``==`` (so ``true`` and ``1.0`` read as 1), and
a missing connection field is reported as the bare ``KeyError`` repr.
"""

from __future__ import annotations

import json

from dpa.events import event
from dpa.network import Network
from dpa.patterns import (
    DESCRIPTOR_SCHEMA,
    AdDescriptor,
    CsDescriptor,
    DescriptorError,
    DuplicateName,
    NonTotalMap,
    RaDescriptor,
    UnknownComponent,
    UnknownEvent,
)

_LIST = (list, tuple)
_KINDS = {dict: "an object", _LIST: "a list", str: "a string"}


def _typed(value, types, what):
    """``value``, which must be one of ``types`` (a key of ``_KINDS``)."""
    if not isinstance(value, types):
        raise DescriptorError(f"{what} must be {_KINDS[types]}")
    return value


def _section(doc, key, types):
    """An optional top-level field, empty when absent."""
    return _typed(doc.get(key, {} if types is dict else ()), types, f"field '{key}'")


def _name(value, key):
    return _typed(value, str, f"each name in '{key}'")


def _names(value, key):
    """The names a list-valued field holds."""
    return tuple(_name(x, key) for x in _typed(value, _LIST, f"field '{key}'"))


def _order(value, key, whose, noun):
    """The names a list-valued order field holds, none of them twice;
    ``whose`` and ``noun`` name the list and its entries."""
    names = _names(value, key)
    if len(set(names)) != len(names):
        raise DuplicateName(f"{whose} repeats a {noun}")
    return names


def _connected(names, known, whose):
    """Reject an order that names what the descriptor does not connect."""
    for x in names:
        if x not in known:
            raise NonTotalMap(f"{whose} mentions unconnected '{x}'")


def _new_pair(pair, seen):
    """Reject a connection whose pair an earlier connection has."""
    if pair in seen:
        raise DuplicateName(f"connection {pair[0]}->{pair[1]} appears twice")
    return pair


def _resolve_component(net: Network, name, key):
    try:
        net.index_of(_name(name, key))
    except KeyError:
        raise UnknownComponent(f"unknown component '{name}'")
    return name


def _resolve_event(net: Network, name, key):
    eid = event(_name(name, key))
    if not net.declares(eid):
        raise UnknownEvent(f"event '{name}' is not part of the network alphabet")
    return eid


def _resolve_events(net: Network, names, key):
    return tuple(_resolve_event(net, e, key) for e in _names(names, key))


def _need(net: Network, conn, key, resolve):
    """A field a descriptor connection must have, resolved by ``resolve``."""
    try:
        value = _typed(conn, dict, "each connection")[key]
    except KeyError:
        raise DescriptorError(str(KeyError(key))) from None
    return resolve(net, value, key)


def read_ra(doc, net):
    """No user and resource are connected twice; every user, and no
    other component, has an acquisition order over exactly its
    connected resources, and the resource order ranks every resource;
    no order repeats a resource or names one the connections lack."""
    connections = []
    acquire = {}
    release = {}
    for conn in _section(doc, "connections", _LIST):
        u = _need(net, conn, "user", _resolve_component)
        r = _need(net, conn, "resource", _resolve_component)
        connections.append(_new_pair((u, r), acquire))
        acquire[(u, r)] = _need(net, conn, "acquire", _resolve_event)
        release[(u, r)] = _need(net, conn, "release", _resolve_event)
    order = {}
    for u, seq in _section(doc, "order", dict).items():
        u = _resolve_component(net, u, "order")
        order[u] = _order(seq, "order", f"order of '{u}'", "resource")
    desc = RaDescriptor(
        tuple(connections),
        acquire,
        release,
        order,
        _order(doc.get("resource_order", ()), "resource_order",
               "resource order", "resource"),
    )
    for u in desc.users:
        if u not in order:
            raise NonTotalMap(f"no acquisition order for user '{u}'")
        _connected(order[u], desc.resources_of(u), f"order of '{u}'")
        if set(order[u]) != set(desc.resources_of(u)):
            raise NonTotalMap(
                f"order of '{u}' must cover exactly its connected resources"
            )
    users = set(desc.users)
    for u in order:
        if u not in users:
            raise NonTotalMap(f"order names '{u}', which is no user")
    _connected(desc.ra_order, desc.resources, "resource order")
    for r in desc.resources:
        if r not in desc.ra_order:
            raise NonTotalMap(f"resource order does not rank '{r}'")
    return desc


def read_cs(doc, net):
    """No client and server are connected twice, and every connection
    declares a request event; every request, and no other event, has a
    (possibly empty) response set; the component order repeats no
    component and names only connected ones."""
    connections = []
    requests = {}
    for conn in _section(doc, "connections", _LIST):
        c = _need(net, conn, "client", _resolve_component)
        s = _need(net, conn, "server", _resolve_component)
        connections.append(_new_pair((c, s), requests))
        requests[(c, s)] = frozenset(_need(net, conn, "requests", _resolve_events))
        if not requests[(c, s)]:
            raise NonTotalMap(f"connection {c}->{s} declares no request events")
    all_requests = frozenset().union(*requests.values())
    responses = dict.fromkeys(all_requests, frozenset())
    for ev_name, resp in _section(doc, "responses", dict).items():
        e = _resolve_event(net, ev_name, "responses")
        if e not in all_requests:
            raise NonTotalMap(f"responses names '{ev_name}', which is no request")
        responses[e] = frozenset(_resolve_events(net, resp, "responses"))
    desc = CsDescriptor(
        tuple(connections),
        requests,
        responses,
        _order(doc.get("component_order", ()), "component_order",
               "component order", "component"),
    )
    _connected(desc.cs_order, desc.components(), "component order")
    return desc


def read_ad(doc, net):
    """No two connections join the same sender and receiver; each
    transport entity carries one connection, whose send and receive
    lists pair up and are not empty; every participant, and no other
    component, has a schedule that repeats no peer and names only, and
    at least one, peers it is connected to."""
    connections = []
    link, send, receive, on, off, timeout = {}, {}, {}, {}, {}, {}
    seen_links = {}
    for conn in _section(doc, "connections", _LIST):
        i = _need(net, conn, "from", _resolve_component)
        j = _need(net, conn, "to", _resolve_component)
        connections.append(_new_pair((i, j), link))
        k = _need(net, conn, "transport", _resolve_component)
        if k in seen_links:
            raise DescriptorError(
                f"transport '{k}' linked to both {seen_links[k]} and {(i, j)}"
            )
        seen_links[k] = (i, j)
        link[(i, j)] = k
        send[(i, j)] = _need(net, conn, "send", _resolve_events)
        receive[(i, j)] = _need(net, conn, "receive", _resolve_events)
        if len(send[(i, j)]) != len(receive[(i, j)]):
            raise NonTotalMap(
                f"send/receive lists of {i}->{j} must pair up (same length)"
            )
        if not send[(i, j)]:
            raise NonTotalMap(f"connection {i}->{j} declares no data events")
        on[(i, j)] = _need(net, conn, "on", _resolve_event)
        off[(i, j)] = _need(net, conn, "off", _resolve_event)
        timeout[(i, j)] = _need(net, conn, "timeout", _resolve_event)
    schedule = {}
    for p, seq in _section(doc, "schedule", dict).items():
        p = _resolve_component(net, p, "schedule")
        peers = _order(seq, "schedule", f"schedule of '{p}'", "peer")
        schedule[p] = tuple(_resolve_component(net, q, "schedule") for q in peers)
    desc = AdDescriptor(tuple(connections), link, send, receive, on, off, timeout, schedule)
    for p in desc.participants:
        if p not in schedule:
            raise NonTotalMap(f"no schedule for participant '{p}'")
        peers = {j if i == p else i for (i, j) in connections if p in (i, j)}
        _connected(schedule[p], peers, f"schedule of '{p}'")
        # with no peer the send/receive loop is SR = SR
        if not schedule[p]:
            raise NonTotalMap(f"schedule of '{p}' names no peer it is connected to")
    participants = set(desc.participants)
    for p in schedule:
        if p not in participants:
            raise NonTotalMap(f"schedule names '{p}', which is no participant")
    return desc


READERS = {
    RaDescriptor.pattern: read_ra,
    CsDescriptor.pattern: read_cs,
    AdDescriptor.pattern: read_ad,
}


def parse_descriptor_reference(doc, net: Network):
    """Resolve a JSON descriptor document (text or parsed) against an
    elaborated network.  Text that is not JSON, not an object, of another
    schema or pattern, or naming no component is a descriptor error; the
    pattern's reader reads the rest."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DescriptorError(str(exc)) from exc
    _typed(doc, dict, "the descriptor")
    schema = doc.get("schema", DESCRIPTOR_SCHEMA)
    if schema != DESCRIPTOR_SCHEMA:
        raise DescriptorError(f"unsupported descriptor schema {schema}")
    pattern = doc.get("pattern")
    read = READERS.get(pattern) if isinstance(pattern, str) else None
    if read is None:
        raise DescriptorError(f"unknown pattern {pattern!r}")
    desc = read(doc, net)
    if not desc.components():
        raise DescriptorError("the descriptor names no component")
    return desc
