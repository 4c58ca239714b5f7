"""Behavioural patterns: resource-allocation, client/server, async-dynamic.

Each pattern is one descriptor class: who plays which role, over which
events.  ``from_json`` reads the class's JSON body against an elaborated
network and validates it in full, so a descriptor that reads is one every
obligation below can be built from; ``DESCRIPTORS`` maps each class's
``pattern`` name to it, and ``parse_descriptor`` checks a document's
envelope and hands its body to that class.  A descriptor carries two kinds
of obligations:

* structural predicates: pure alphabet arithmetic against the network's
  vocabulary, no behaviour involved;
* behavioural compliance: a generated characteristic process per component,
  refined against the component's abstraction in the model the pattern
  calls for (revivals for the all-server-requests-offered condition,
  failures everywhere else), plus the side condition that each user's
  acquisition sequence descends under the resource order.

A verdict of adherent, together with liveness, discharges deadlock freedom
for the subnetwork the descriptor covers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .events import EVENTS, TAU, TICK, event
from .lts import DEFAULT_STATE_LIMIT, Lts, _reachable, compile_term
from .network import InputError, Network, _shared_abstraction, abs_lts, abs_divergent
from .semantics import (
    Counterexample,
    FAILURES,
    NormalSpec,
    NormalState,
    REVIVALS,
    SpecDivergence,
    normalize,
    refines,
)
from .terms import (
    BinOp,
    Call,
    DefEnv,
    Definition,
    ExtChoice,
    Guard,
    IntChoice,
    Interrupt,
    Lit,
    Prefix,
    Seq,
    SKIP,
    STOP,
    Term,
    Var,
)


class UnknownComponent(InputError):
    pass


class DescriptorError(InputError):
    pass


class UnknownEvent(DescriptorError):
    pass


class NonTotalMap(DescriptorError):
    pass


class DuplicateName(DescriptorError):
    pass


class UnknownElement(Exception):
    pass


class EmptyRoleSet(Exception):
    pass


# ---------------------------------------------------------------------------
# order side conditions


def respects_order(seq, rank) -> bool:
    """True when consecutive elements are strictly descending under an
    order given by ``rank``, each element's position in it, greatest first."""
    for x in seq:
        if x not in rank:
            raise UnknownElement(f"'{x}' is not ranked by the order")
    return all(rank[seq[i]] < rank[seq[i + 1]] for i in range(len(seq) - 1))


# ---------------------------------------------------------------------------
# obligation results


@dataclass
class PredicateResult:
    name: str
    ok: bool
    witness: str = ""

    def failure_parts(self):
        """``(who, what, detail)`` for report lines; a structural
        predicate names no single component."""
        return "", self.name, self.witness

    def to_json(self):
        data = {"predicate": self.name, "ok": self.ok}
        if self.witness:
            data["witness"] = self.witness
        return data


@dataclass
class BehaviouralResult:
    component: str
    spec_name: str
    model: str
    ok: bool
    counterexample: Counterexample | None = None
    note: str = ""

    def failure_parts(self):
        """``(who, what, detail)`` for report lines: the note, else the
        counterexample."""
        detail = self.note
        if not detail and self.counterexample is not None:
            detail = self.counterexample.describe()
        return self.component, self.spec_name, detail

    def to_json(self):
        data = {
            "component": self.component,
            "spec": self.spec_name,
            "model": self.model,
            "ok": self.ok,
        }
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample.to_json()
        if self.note:
            data["note"] = self.note
        return data


# ---------------------------------------------------------------------------
# building blocks shared by the patterns


def _alpha(net, name):
    return net[net.index_of(name)].alphabet


def _controlled(net, name, expected, predicate):
    actual = _alpha(net, name) & net.voc
    if actual == expected:
        return PredicateResult(predicate, True)
    diff = (actual ^ expected)
    return PredicateResult(
        predicate,
        False,
        witness=f"{name}: mismatch on {EVENTS.names(diff)}",
    )


def _partitioned(scope, left, right, name):
    users, resources = frozenset(left), frozenset(right)
    if users & resources:
        return PredicateResult(
            name, False, witness=f"both roles: {sorted(users & resources)}"
        )
    if users | resources != scope:
        missing = sorted(scope - (users | resources))
        return PredicateResult(name, False, witness=f"unassigned: {missing}")
    return PredicateResult(name, True)


def _chain(events, tail: Term) -> Term:
    term = tail
    for e in reversed(events):
        term = Prefix(e, term)
    return term


def _choice_prefixes(choice, events, cont, at) -> Term | None:
    """``choice`` over ``at(e) -> cont`` per event, in event order; None for none."""
    items = tuple(Prefix(at(e), cont) for e in sorted(events))
    if not items:
        return None
    return items[0] if len(items) == 1 else choice(items)


# ---------------------------------------------------------------------------
# reading a descriptor's JSON body: a value of the wrong JSON shape, a name
# the network lacks, a missing or unknown field is a DescriptorError (or
# UnknownComponent) naming the field


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


def _total(keys, domain, missing="", extra=""):
    """Reject ``keys`` (a map's keys or a list of names) unless they name
    every member of ``domain`` and nothing else: first the first key
    outside the domain, by ``extra``, then the first member of the domain
    the keys lack, by ``missing``; each message is formatted with that
    name, and an empty one leaves its side unchecked."""
    for names, within, message in ((keys, set(domain), extra), (domain, set(keys), missing)):
        if message and not within.issuperset(names):
            raise NonTotalMap(message.format(next(x for x in names if x not in within)))


def _resolve_component(net: Network, name, key):
    try:
        net.index_of(_name(name, key))
    except KeyError:
        raise UnknownComponent(f"unknown component '{name}'")
    return name


def _resolve_event(net: Network, name, key):
    """The id of a declared event; a name the network does not declare is
    not interned, so that it shifts no later event's id."""
    eid = EVENTS.lookup(_name(name, key))
    if not net.declares(name if eid is None else eid):
        raise UnknownEvent(f"event '{name}' is not part of the network alphabet")
    return event(name) if eid is None else eid


def _resolve_events(net: Network, names, key):
    return tuple(_resolve_event(net, e, key) for e in _names(names, key))


def _table(doc, net: Network, ends, fields, check=None):
    """The ``connections`` section, read in order: the tuple of each
    connection's pair of ``ends`` (component names), then per key of
    ``fields`` a map from pair to the connection's value of that field
    through its resolver.  Each connection is an object with exactly these
    keys, and no earlier one has its pair; ``check(pair, row)`` sees its
    resolved fields."""
    keys = ends + tuple(fields)
    (a, b), rows = ends, {}
    for conn in _section(doc, "connections", _LIST):
        if _typed(conn, dict, "each connection").keys() != set(keys):
            _total(conn, keys, "each connection needs a field '{}'",
                   "unknown connection field '{}'")
        pair = _resolve_component(net, conn[a], a), _resolve_component(net, conn[b], b)
        if pair in rows:
            raise DuplicateName(f"connection {pair[0]}->{pair[1]} appears twice")
        rows[pair] = row = {key: f(net, conn[key], key) for key, f in fields.items()}
        if check:
            check(pair, row)
    return (tuple(rows), *({p: row[key] for p, row in rows.items()} for key in fields))


# ---------------------------------------------------------------------------
# descriptors: one class per pattern holds all that varies by pattern.
# ``from_json(doc, net)`` reads and validates the body, whose top-level
# fields besides ``schema`` and ``pattern`` are ``sections``; ``roles`` maps a
# role to (spec name, model, builder); a builder maps ``(net, name, at)`` to
# the spec ``(definitions, term)``, each definition a ``(name, params,
# body)`` triple, with every event ``e`` written as ``at(e)``, or raises
# EmptyRoleSet when the role's process degenerates.  ``obligations(scope)``
# lists (role, component) pairs in check order; ``side_conditions()`` and
# ``echo_lines()`` follow.


@dataclass
class RaDescriptor:
    """Users acquire resources through per-connection acquire/release events,
    each user in a fixed sequence; the resource order lists resources from
    greatest to least."""

    connections: tuple  # (user name, resource name)
    acquire: dict  # (user, resource) -> event id
    release: dict  # (user, resource) -> event id
    order: dict  # user -> tuple of resource names (acquisition sequence)
    ra_order: tuple  # resource names, greatest first

    pattern = "resource-allocation"
    sections = ("connections", "order", "resource_order")

    @classmethod
    def from_json(cls, doc, net):
        """No user and resource are connected twice; every user, and no
        other component, has an acquisition order over exactly its
        connected resources, and the resource order ranks every resource;
        no order repeats a resource or names one the connections lack."""
        connections, acquire, release = _table(
            doc, net, ("user", "resource"), {"acquire": _resolve_event, "release": _resolve_event}
        )
        order = {
            _resolve_component(net, u, "order"): _order(seq, "order", f"order of '{u}'", "resource")
            for u, seq in _section(doc, "order", dict).items()
        }
        ra_order = _order(doc.get("resource_order", ()), "resource_order",
                          "resource order", "resource")
        desc = cls(connections, acquire, release, order, ra_order)
        _total(order, desc.users, "no acquisition order for user '{}'",
               "order names '{}', which is no user")
        for u in desc.users:
            _total(order[u], desc.resources_of(u),
                   f"order of '{u}' must cover exactly its connected resources",
                   f"order of '{u}' mentions unconnected '{{}}'")
        _total(ra_order, desc.resources, "resource order does not rank '{}'",
               "resource order mentions unconnected '{}'")
        return desc

    @cached_property
    def _peers(self):
        """user -> sorted resources, resource -> sorted users."""
        of_user, of_resource = {}, {}
        for u, r in self.connections:
            of_user.setdefault(u, set()).add(r)
            of_resource.setdefault(r, set()).add(u)
        return (
            {u: sorted(rs) for u, rs in of_user.items()},
            {r: sorted(us) for r, us in of_resource.items()},
        )

    @cached_property
    def _rank(self):
        """resource -> its position in the resource order, greatest first."""
        return {r: i for i, r in enumerate(self.ra_order)}

    @property
    def users(self):
        return sorted(self._peers[0])

    @property
    def resources(self):
        return sorted(self._peers[1])

    def resources_of(self, user):
        return list(self._peers[0].get(user, ()))

    def users_of(self, resource):
        return list(self._peers[1].get(resource, ()))

    def components(self):
        return frozenset(self.users) | frozenset(self.resources)

    def structural(self, net, scope):
        out = [_partitioned(scope, self.users, self.resources, "partitioned")]
        acq = set(self.acquire.values())
        rel = set(self.release.values())
        clash = acq & rel
        out.append(
            PredicateResult(
                "mutually_disjoint_events",
                not clash,
                witness="" if not clash else f"acquire = release on {EVENTS.names(clash)}",
            )
        )
        for u in self.users:
            expected = frozenset(
                self.acquire[(u, r)] for r in self.resources_of(u)
            ) | frozenset(self.release[(u, r)] for r in self.resources_of(u))
            out.append(_controlled(net, u, expected, "controlled_alpha_users"))
        for r in self.resources:
            expected = frozenset(
                self.acquire[(u, r)] for u in self.users_of(r)
            ) | frozenset(self.release[(u, r)] for u in self.users_of(r))
            out.append(_controlled(net, r, expected, "controlled_alpha_resources"))
        return out

    def user_spec(self, net, name, at):
        seq = self.order[name]
        events = [self.acquire[(name, r)] for r in seq] + [self.release[(name, r)] for r in seq]
        return (("User", (), _chain([at(e) for e in events], Call("User"))),), Call("User")

    def resource_spec(self, net, name, at):
        branches = tuple(
            Prefix(at(self.acquire[(u, name)]),
                   Prefix(at(self.release[(u, name)]), Call("Resource")))
            for u in self.users_of(name)
        )
        body = branches[0] if len(branches) == 1 else ExtChoice(branches)
        return (("Resource", (), body),), Call("Resource")

    roles = {
        "user": ("UserSpec", FAILURES, user_spec),
        "resource": ("ResourceSpec", FAILURES, resource_spec),
    }

    def obligations(self, scope):
        return [("user", u) for u in self.users] + [
            ("resource", r) for r in self.resources
        ]

    def side_conditions(self):
        """Each user's acquisition sequence descends under the resource order."""
        out = []
        for u in self.users:
            ok = respects_order(self.order[u], self._rank)
            note = "" if ok else (
                f"acquisition order {list(self.order[u])} is not descending "
                f"under the resource order"
            )
            out.append(
                BehaviouralResult(u, "acquisition-order", "structural", ok, note=note)
            )
        return out

    def echo_lines(self):
        lines = [f"  users     = {self.users}", f"  resources = {self.resources}"]
        for (u, r) in self.connections:
            lines.append(
                f"  acquire({u},{r}) = {EVENTS.name(self.acquire[(u, r)])}, "
                f"release({u},{r}) = {EVENTS.name(self.release[(u, r)])}"
            )
        for u in self.users:
            lines.append(f"  order({u}) = {list(self.order[u])}")
        lines.append(f"  resource order (greatest first) = {list(self.ra_order)}")
        return lines


@dataclass
class CsDescriptor:
    """Clients send request events to servers and wait for the associated
    responses; the component order lists components from greatest to least
    and every connection must point strictly downwards."""

    connections: tuple  # (client name, server name)
    requests: dict  # (client, server) -> frozenset of event ids
    responses: dict  # request event id -> frozenset of event ids
    cs_order: tuple  # component names, greatest first

    pattern = "client-server"
    sections = ("connections", "responses", "component_order")

    @classmethod
    def from_json(cls, doc, net):
        """No client and server are connected twice, and every connection
        declares a request event; every request, and no other event, has a
        (possibly empty) response set; the component order repeats no
        component and names only connected ones."""

        def check(pair, row):
            if not row["requests"]:
                raise NonTotalMap(f"connection {pair[0]}->{pair[1]} declares no request events")

        connections, requests = _table(doc, net, ("client", "server"), {
            "requests": lambda net, names, key: frozenset(_resolve_events(net, names, key)),
        }, check)
        all_requests = frozenset().union(*requests.values())
        section = _section(doc, "responses", dict)
        named = {
            _resolve_event(net, e, "responses"): frozenset(_resolve_events(net, resp, "responses"))
            for e, resp in section.items()
        }
        _total(section, [EVENTS.name(e) for e in all_requests],
               extra="responses names '{}', which is no request")
        responses = {**dict.fromkeys(all_requests, frozenset()), **named}
        desc = cls(connections, requests, responses,
                   _order(doc.get("component_order", ()), "component_order",
                          "component order", "component"))
        _total(desc.cs_order, desc.components(),
               extra="component order mentions unconnected '{}'")
        return desc

    def client_requests(self, name):
        return frozenset().union(*(evs for (c, _s), evs in self.requests.items() if c == name))

    def server_requests(self, name):
        return frozenset().union(*(evs for (_c, s), evs in self.requests.items() if s == name))

    def responses_of(self, events):
        return frozenset().union(*(self.responses.get(e, ()) for e in events))

    def components(self):
        return frozenset(name for conn in self.connections for name in conn)

    def structural(self, net, scope):
        clash = frozenset().union(*self.requests.values()) & frozenset().union(
            *self.responses.values()
        )
        out = [
            PredicateResult(
                "disjoint_events", not clash, witness=str(EVENTS.names(clash)) if clash else ""
            )
        ]
        for name in sorted(scope):
            sreq = self.server_requests(name)
            creq = self.client_requests(name)
            expected = sreq | creq | self.responses_of(sreq) | self.responses_of(creq)
            out.append(_controlled(net, name, expected, "controlled_alpha"))
        rank = {x: i for i, x in enumerate(self.cs_order)}
        bad = [
            (c, s)
            for (c, s) in self.connections
            if c not in rank or s not in rank or not rank[c] < rank[s]
        ]
        out.append(
            PredicateResult(
                "ordered",
                not bad,
                witness="" if not bad else f"connections against the order: {bad}",
            )
        )
        return out

    def server_requests_spec(self, net, name, at):
        # the choice of non-server events ranges over the component alphabet
        s_evts = self.server_requests(name)
        other = _alpha(net, name) - s_evts
        if not other:
            if not s_evts:
                raise EmptyRoleSet(f"'{name}' has neither server events nor others")
            return (("Run", (), _choice_prefixes(ExtChoice, s_evts, Call("Run"), at)),), Call("Run")
        branches = (
            _choice_prefixes(IntChoice, other, SKIP, at),
            # an empty replicated external choice offers nothing
            _choice_prefixes(ExtChoice, s_evts, SKIP, at) or STOP,
        )
        return (("Server", (), Seq(IntChoice(branches), Call("Server"))),), Call("Server")

    def requests_responses_spec(self, net, name, at):
        c_evts = self.client_requests(name)
        s_evts = self.server_requests(name)

        def round_term(events, responses_choice):
            branches = [
                Prefix(at(e), _choice_prefixes(
                    responses_choice, self.responses.get(e, ()), SKIP, at) or SKIP)
                for e in sorted(events)
            ]
            return branches[0] if len(branches) == 1 else IntChoice(tuple(branches))

        if not c_evts and not s_evts:
            # the stated definition degenerates to STOP, which can never be
            # refined by a busy component
            raise EmptyRoleSet(
                f"'{name}' has no request events in either role; its "
                "request-response process is STOP and violates busyness"
            )
        # a client's responses are offered, a server's are its own to choose
        rounds = [round_term(events, responses_choice)
                  for events, responses_choice in ((c_evts, ExtChoice), (s_evts, IntChoice))
                  if events]
        body = rounds[0] if len(rounds) == 1 else IntChoice(tuple(rounds))
        return (("CS", (), Seq(body, Call("CS"))),), Call("CS")

    roles = {
        "serverRequests": ("ServerRequestsSpec", REVIVALS, server_requests_spec),
        "requestsResponses": ("RequestsResponsesSpec", FAILURES, requests_responses_spec),
    }

    def obligations(self, scope):
        return [
            (role, name)
            for name in sorted(scope)
            for role in ("serverRequests", "requestsResponses")
        ]

    def side_conditions(self):
        return []

    def echo_lines(self):
        lines = []
        for (c, s) in self.connections:
            lines.append(
                f"  {c} -> {s}: requests {EVENTS.names(self.requests[(c, s)])}"
            )
        for e, resp in sorted(self.responses.items()):
            lines.append(f"  responses({EVENTS.name(e)}) = {EVENTS.names(resp)}")
        lines.append(f"  component order (greatest first) = {list(self.cs_order)}")
        return lines


@dataclass
class AdDescriptor:
    """Participants exchange data through one-directional transport
    entities; send/receive event lists are index-aligned (the k-th send
    carries the same datum as the k-th receive)."""

    connections: tuple  # (sender name, receiver name)
    link: dict  # (sender, receiver) -> transport component name
    send: dict  # (sender, receiver) -> tuple of event ids
    receive: dict  # (sender, receiver) -> tuple of event ids
    on: dict  # (sender, receiver) -> event id
    off: dict  # (sender, receiver) -> event id
    timeout: dict  # (sender, receiver) -> event id
    schedule: dict  # participant -> tuple of peer names

    pattern = "async-dynamic"
    sections = ("connections", "schedule")

    @classmethod
    def from_json(cls, doc, net):
        """No two connections join the same sender and receiver; each
        transport entity carries one connection, whose send and receive
        lists pair up and are not empty; every participant, and no other
        component, has a schedule that repeats no peer and names only, and
        at least one, peers it is connected to; and every participant sends
        on some connection."""
        linked = {}  # transport entity -> the connection it carries

        def check(pair, row):
            k, (i, j) = row["transport"], pair
            if linked.setdefault(k, pair) != pair:
                raise DescriptorError(f"transport '{k}' linked to both {linked[k]} and {pair}")
            if len(row["send"]) != len(row["receive"]):
                raise NonTotalMap(f"send/receive lists of {i}->{j} must pair up (same length)")
            if not row["send"]:
                raise NonTotalMap(f"connection {i}->{j} declares no data events")

        # the fields after ``connections``, in the order the class lists them
        connections, *fields = _table(doc, net, ("from", "to"), {
            "transport": _resolve_component, "send": _resolve_events,
            "receive": _resolve_events, "on": _resolve_event, "off": _resolve_event,
            "timeout": _resolve_event,
        }, check)
        schedule = {
            _resolve_component(net, p, "schedule"): tuple(
                _resolve_component(net, q, "schedule")
                for q in _order(seq, "schedule", f"schedule of '{p}'", "peer")
            )
            for p, seq in _section(doc, "schedule", dict).items()
        }
        desc = cls(connections, *fields, schedule)
        _total(schedule, desc.participants, "no schedule for participant '{}'",
               "schedule names '{}', which is no participant")
        for p in desc.participants:
            peers = {j if i == p else i for (i, j) in connections if p in (i, j)}
            _total(schedule[p], peers, extra=f"schedule of '{p}' mentions unconnected '{{}}'")
            # with no peer the send/receive loop is SR = SR
            if not schedule[p]:
                raise NonTotalMap(f"schedule of '{p}' names no peer it is connected to")
            # with no outgoing connection both detect chains are SKIP, and
            # the participant spec loops through SR /\ (SKIP |~| STOP) silently
            if not any(i == p for (i, _j) in connections):
                raise NonTotalMap(f"participant '{p}' has no outgoing connection")
        return desc

    @cached_property
    def _connection_of(self):
        """transport entity -> the connection it carries."""
        return {k: c for c, k in self.link.items()}

    @property
    def participants(self):
        return sorted({name for conn in self.connections for name in conn})

    @property
    def transport_entities(self):
        return sorted(self.link.values())

    def components(self):
        return frozenset(self.participants) | frozenset(self.transport_entities)

    def structural(self, net, scope):
        out = [
            _partitioned(scope, self.participants, self.transport_entities, "partitioned")
        ]
        families = {
            "send": set().union(*self.send.values()) if self.send else set(),
            "receive": set().union(*self.receive.values()) if self.receive else set(),
            "on": set(self.on.values()),
            "off": set(self.off.values()),
            "timeout": set(self.timeout.values()),
        }
        clash = "; ".join(
            f"{a}/{b} overlap on {EVENTS.names(families[a] & families[b])}"
            for a, b in combinations(sorted(families), 2) if families[a] & families[b]
        )
        out.append(PredicateResult("mutually_disjoint_events", not clash, witness=clash))
        expected = {p: set() for p in self.participants}
        for conn in self.connections:
            i, j = conn
            expected[i].update(self.send[conn], (self.on[conn], self.off[conn]))
            expected[j].update(self.receive[conn], (self.timeout[conn],))
        for p in self.participants:
            out.append(
                _controlled(net, p, frozenset(expected[p]), "controlled_alpha_participant")
            )
        for conn, k in sorted(self.link.items()):
            expected = (
                frozenset(self.send[conn])
                | frozenset(self.receive[conn])
                | {self.on[conn], self.off[conn], self.timeout[conn]}
            )
            out.append(
                _controlled(net, k, expected, "controlled_alpha_transport_entity")
            )
        return out

    def transport_spec(self, net, name, at):
        conn = self._connection_of[name]
        on, off, timeout = at(self.on[conn]), at(self.off[conn]), at(self.timeout[conn])
        on_branches = (Prefix(off, Call("Off")),) + tuple(
            Prefix(at(s), Call("Full", (k,))) for k, s in enumerate(self.send[conn])
        )
        # the full buffer also relays the datum it stores: the emit branch is
        # gated on the slot value (false guards vanish, STOP in a choice is inert)
        full_branches = on_branches + tuple(
            Guard(BinOp("==", Var("d"), Lit(k)), Prefix(at(r), Call("On")))
            for k, r in enumerate(self.receive[conn])
        )
        return (
            ("Off", (), ExtChoice((Prefix(on, Call("On")), Prefix(timeout, Call("Off"))))),
            ("On", (), ExtChoice(on_branches)),
            ("Full", ("d",), ExtChoice(full_branches)),
        ), Call("Off")

    def participant_spec(self, net, name, at):
        sched = self.schedule[name]
        outgoing = [p for p in sched if (name, p) in self.link]
        incoming = [p for p in sched if (p, name) in self.link]
        send_receive: Term = Call("SR")
        for p in reversed(incoming):
            conn = (p, name)
            offer = _choice_prefixes(
                ExtChoice, tuple(self.receive[conn]) + (self.timeout[conn],), SKIP, at
            )
            send_receive = Seq(offer, send_receive)
        for p in reversed(outgoing):
            pick = _choice_prefixes(IntChoice, self.send[(name, p)], SKIP, at)
            send_receive = Seq(pick, send_receive)
        on_detect = _chain([at(self.on[(name, p)]) for p in outgoing], SKIP)
        off_detect = _chain([at(self.off[(name, p)]) for p in outgoing], SKIP)
        body = Seq(
            on_detect,
            Seq(
                Interrupt(Call("SR"), IntChoice((SKIP, STOP))),
                Seq(off_detect, Call("Participant")),
            ),
        )
        return (("SR", (), send_receive), ("Participant", (), body)), Call("Participant")

    roles = {
        "transport": ("TransportSpec", FAILURES, transport_spec),
        "participant": ("ParticipantSpec", FAILURES, participant_spec),
    }

    def obligations(self, scope):
        return [("transport", k) for k in self.transport_entities] + [
            ("participant", p) for p in self.participants
        ]

    def side_conditions(self):
        return []  # from_json already rejects a schedule that repeats a peer

    def echo_lines(self):
        lines = []
        for (i, j) in self.connections:
            lines.append(
                f"  {i} -> {j} via {self.link[(i, j)]}: "
                f"send {[EVENTS.name(e) for e in self.send[(i, j)]]}, "
                f"receive {[EVENTS.name(e) for e in self.receive[(i, j)]]}"
            )
        for p, seq in sorted(self.schedule.items()):
            lines.append(f"  schedule({p}) = {list(seq)}")
        return lines


DESCRIPTORS = {cls.pattern: cls for cls in (RaDescriptor, CsDescriptor, AdDescriptor)}
DESCRIPTOR_SCHEMA = 1  # the "schema" a descriptor document declares


def parse_descriptor(doc, net: Network):
    """Resolve a JSON descriptor document (text or parsed) against an
    elaborated network.  Text that is not JSON, not an object, of another
    schema or pattern, with a top-level field the pattern lacks or naming no
    component is a descriptor error; the pattern's class reads the rest."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DescriptorError(str(exc)) from exc
    _typed(doc, dict, "the descriptor")
    schema = doc.get("schema", DESCRIPTOR_SCHEMA)
    if type(schema) is not int or schema != DESCRIPTOR_SCHEMA:
        raise DescriptorError(f"unsupported descriptor schema {schema}")
    pattern = doc.get("pattern")
    cls = DESCRIPTORS.get(pattern) if isinstance(pattern, str) else None
    if cls is None:
        raise DescriptorError(f"unknown pattern {pattern!r}")
    _total(doc, ("schema", "pattern") + cls.sections, extra="unknown descriptor field '{}'")
    desc = cls.from_json(doc, net)
    if not desc.components():
        raise DescriptorError("the descriptor names no component")
    return desc


def descriptor_echo(desc) -> str:
    """Readable role listing for review, in the style of a worked example."""
    return "\n".join([f"pattern: {desc.pattern}"] + desc.echo_lines())


# ---------------------------------------------------------------------------
# running a descriptor's obligations


def check_structural(desc, net: Network, scope) -> list:
    """Evaluate the pattern's structural predicates over the given component
    scope (a set of component names; one the network lacks is an input
    error)."""
    scope = frozenset(scope)
    for name in sorted(scope):
        net.index_of(name)
    for name in sorted(desc.components()):
        if name not in scope:
            raise UnknownComponent(
                f"descriptor references '{name}' outside the checked scope"
            )
    return desc.structural(net, scope)


@dataclass
class PatternVerdict:
    pattern: str
    structural: list
    behavioural: list
    adherent: bool
    warnings: tuple = ()

    def failures(self):
        out = [p for p in self.structural if not p.ok]
        out += [b for b in self.behavioural if not b.ok]
        return out

    def to_json(self):
        return {
            "pattern": self.pattern,
            "structural": [p.to_json() for p in self.structural],
            "behavioural": [b.to_json() for b in self.behavioural],
            "adherent": self.adherent,
            "warnings": list(self.warnings),
        }


def _spec_shape(build, desc, net: Network, name):
    """``(key, events)`` of one obligation's spec: ``build`` writes it over
    positions, ``key`` being its ``(definitions, term)``, and numbers the
    distinct events in the order it asks for them; ``events`` lists them by
    position.  Two specs with one key differ only in their events, so they
    compile to the same LTS up to the labels."""
    position = {}  # real event -> its position in ``events``
    key = build(desc, net, name, lambda e: position.setdefault(e, len(position)))
    return key, tuple(position)


def _normal_shape(key, events, limit) -> NormalSpec:
    """The normal form of the spec ``key``, over its positions; a divergence
    is reported on the real ``events``."""
    definitions, term = key
    env = DefEnv(Definition(*d) for d in definitions)
    try:
        # the universe is never read: each obligation gets its own
        return normalize(compile_term(env, term, limit), frozenset(), limit)
    except SpecDivergence as exc:
        raise SpecDivergence(tuple(events[l] for l in exc.trace)) from None


def _with_events(shape: NormalSpec, events, universe) -> NormalSpec:
    """``shape`` with each position ``l`` read as ``events[l]``; TICK stays."""

    def real(acc):
        return frozenset([e if e < 0 else events[e] for e in acc])

    states = [
        NormalState(
            tuple(map(real, s.min_acceptances)),
            tuple(map(real, s.acceptances)),
            s.deadlock_allowed,
            s.tick_allowed,
        )
        for s in shape.states
    ]
    trans = [{events[l]: t for l, t in row.items()} for row in shape.trans]
    return NormalSpec(universe, states, trans)


def _impl_shape(impl: Lts, events, phi=None):
    """``impl`` read over the spec's positions: each visible event is its
    position in ``events``, and every event the spec does not name is the
    one label ``len(events)`` (TAU and TICK stay); the states are
    renumbered breadth-first in that label order, so that the shape does
    not depend on how the real events happen to be numbered.  With ``phi``
    it is the shape of ``impl`` renamed by ``phi``: each label in ``phi``'s
    domain is read as the position of its image, which gives the same
    rows, since a renaming keeps the state numbers and every row is sorted
    here anyway.

    Merging the unnamed events loses nothing: every state of an
    abstraction is reachable and these specs have no CHAOS state, so an
    abstraction that can perform such an event fails its refinement, and
    its shape never enters the set of shapes that passed."""
    other = len(events)
    position = dict(zip(events, range(other)))
    if phi is not None:
        position.update({a: position.get(b, other) for a, b in phi.items()})
    position[TAU], position[TICK] = TAU, TICK

    def moves(s):
        return sorted([(position.get(l, other), t) for l, t in impl.trans[s]])

    return _reachable(impl.initial, moves, impl.n_states)[1]


def _abstraction_shape(net: Network, i, events, memo):
    """``_impl_shape(abs_lts(net, i), events)``, read off the owner's
    abstraction through φ, once per owner's abstraction and positions of
    the images of the owner's events (``memo``, which also maps each
    distinct shape to itself, so that equal shapes are kept once); a
    renamed member's own rows are not built."""
    entry = _shared_abstraction(net, i)
    owner, phi = net[i]._share
    other = len(events)
    position = dict(zip(events, range(other)))
    images = owner.events if phi is None else map(phi.__getitem__, owner.events)
    probe = (id(entry), tuple([position.get(e, other) for e in images]))
    shape = memo.get(probe)
    if shape is None:
        shape = _impl_shape(entry[0], events, phi)
        shape = memo[probe] = memo.setdefault(shape, shape)
    return shape


def check_behavioural(desc, net: Network, scope, limit=DEFAULT_STATE_LIMIT) -> list:
    """Run every behavioural obligation of the pattern over the scope: the
    refinements in the descriptor's order, then the roles whose process
    degenerates (each a failed obligation carrying its note), then the
    side conditions.

    Each role's builder writes its spec over event positions
    (:func:`_spec_shape`), so the specs of one role that differ only in
    their events have one key.  Each key is compiled and normalised once per
    call, and each obligation refines against it with its own events put
    back.  No counterexample depends on which position an event takes:
    ``refines`` walks breadth-first in the order of the implementation's
    rows, names events in that order, as sets or as the smallest real
    event, and reads a spec state's number only to pair it with an
    implementation state.

    Most components of a role differ only in their events too.  An
    obligation whose spec key, model and abstraction shape
    (:func:`_impl_shape`) equal those of one that passed is its image under
    a renaming of events and states.  Whether a refinement holds does not
    depend on those names (the universe only enters counterexamples, and
    these specs have no CHAOS state), so it passes without a refinement,
    and a family member's abstraction is never relabelled for it
    (:func:`_abstraction_shape`).  Any other obligation, failing ones
    included, runs ``refines`` on its real events, so every counterexample
    is its own."""
    refined, degenerate = [], []
    shapes = {}  # spec key -> its normal form over positions
    impl_shapes = {}  # memo of _abstraction_shape
    passed = set()  # (spec key, model, abstraction shape) that passed
    for role, name in desc.obligations(frozenset(scope)):
        spec_name, model, build = desc.roles[role]
        try:
            key, events = _spec_shape(build, desc, net, name)
        except EmptyRoleSet as exc:
            degenerate.append(
                BehaviouralResult(name, spec_name, model, False, note=str(exc))
            )
            continue
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _normal_shape(key, events, limit)
        i = net.index_of(name)
        impl = abs_lts(net, i, limit)
        verdict = (key, model, _abstraction_shape(net, i, events, impl_shapes))
        if verdict in passed:
            refined.append(BehaviouralResult(name, spec_name, model, True))
            continue
        ce = refines(_with_events(shape, events, lambda: net.sigma), impl, model)
        if ce is None:
            passed.add(verdict)
        refined.append(BehaviouralResult(name, spec_name, model, ce is None, ce))
    return refined + degenerate + desc.side_conditions()


def check_pattern(desc, net: Network, scope, limit=DEFAULT_STATE_LIMIT) -> PatternVerdict:
    """Structural predicates first; behavioural compliance only on a clean
    structure (its verdicts are meaningless otherwise)."""
    structural = check_structural(desc, net, scope)
    warnings = []
    for name in sorted(desc.components()):
        if abs_divergent(net, net.index_of(name), limit):
            warnings.append(
                f"abstraction of {name} diverges; its stable checks are vacuous"
            )
    if not all(p.ok for p in structural):
        return PatternVerdict(desc.pattern, structural, [], False, tuple(warnings))
    behavioural = check_behavioural(desc, net, scope, limit)
    adherent = all(b.ok for b in behavioural)
    return PatternVerdict(desc.pattern, structural, behavioural, adherent, tuple(warnings))
