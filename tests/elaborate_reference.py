"""The elaborator's reference: ``dsl.elaborate`` as it was before each
atom's alphabet was planned once.

Every instance evaluates each of its atom's alphabet templates on its own
and hands the values to ``completions``, which checks the channel and its
field count and interns every event the template names, declared or not.
The network is built first and its alphabet events are then scanned
against the declared channels, name by name.  ``tests/
test_elaborate_reference.py`` diffs it against ``dpa.dsl.elaborate``.
"""

from __future__ import annotations

from dpa.dsl import (
    ChannelDecl,
    DuplicateComponentName,
    ElaborationError,
    NetworkDecl,
    NonGroundAlphabet,
    RangeOverflow,
    UnknownChannel,
    _evaluated,
    _field_values,
)
from dpa.events import EVENTS, event
from dpa.network import Component, InputError, Network
from dpa.terms import DefEnv, DslValueError, bind, eval_expr, set_values


class ReferenceChannels:
    """The declared channels: membership is read off the field domains, and
    ``completions`` checks the channel before it interns."""

    def __init__(self):
        self.domains = {}  # name -> list of field value lists
        self.spelled = {}  # name -> per field, its values as event names spell them

    def declare(self, decl: ChannelDecl, env):
        self.domains[decl.name] = [_field_values(f, env) for f in decl.fields]
        self.spelled[decl.name] = [{str(v) for v in vs} for vs in self.domains[decl.name]]

    def __contains__(self, e):
        if type(e) is int:
            if e < 0:
                return False
            e = EVENTS.name(e)
        head, *fields = e.split(".")
        spelled = self.spelled.get(head)
        return (
            spelled is not None
            and len(fields) == len(spelled)
            and all(f in vs for f, vs in zip(fields, spelled))
        )

    def __iter__(self):
        for name in self.domains:
            yield from self.completions(name, [])

    def completions(self, head, given_fields):
        if head not in self.domains:
            raise UnknownChannel(f"undeclared channel '{head}'")
        domains = self.domains[head]
        if len(given_fields) > len(domains):
            raise RangeOverflow(
                f"channel '{head}' has {len(domains)} fields, got {len(given_fields)}"
            )
        prefixes = [".".join([head] + [str(v) for v in given_fields])]
        for values in domains[len(given_fields):]:
            prefixes = [f"{p}.{v}" for p in prefixes for v in values]
        return [event(e) for e in prefixes]

    def check_input(self, head, position):
        domains = self.domains.get(head)
        if domains is None:
            raise UnknownChannel(f"undeclared channel '{head}'")
        if position >= len(domains):
            raise RangeOverflow(f"channel '{head}' has no field {position}")


def reference_elaborate(decl: NetworkDecl) -> Network:
    env = DefEnv()
    for name, params, body in decl.functions:
        env.def_fun(name, params, body)
    for name, expr in decl.constants:
        env.constants[name] = _evaluated(f"constant '{name}'", eval_expr, expr, {}, env)
    channels = ReferenceChannels()
    for ch in decl.channels:
        _evaluated(f"channel '{ch.name}'", channels.declare, ch, env)
    for head, position in decl.inputs:
        channels.check_input(head, position)
    env.channels = channels.domains
    for d in decl.process_defs:
        env.define(d)
    atoms = {a.name: a for a in decl.atoms}
    components = []
    warnings = []
    seen = set()
    for inst in decl.instances:
        atom = atoms.get(inst.atom)
        if atom is None:
            raise ElaborationError(f"unknown atom '{inst.atom}'")
        if inst.ids is None:
            ids = [0]
            names = [inst.name]
        else:
            ids = _evaluated(f"instance '{inst.name}'", set_values, inst.ids, {}, env)
            names = [f"{inst.name}.{v}" for v in ids]
        if not ids:
            warnings.append(f"instance '{inst.name}' has an empty id set")
            continue
        for value, name in zip(ids, names):
            if name in seen:
                raise DuplicateComponentName(name)
            seen.add(name)
            bindings = {"id": value}
            alphabet = set()
            for mode, template in atom.alphabet:
                try:
                    fields = [eval_expr(f, bindings, env) for f in template.fields]
                except DslValueError as exc:
                    raise NonGroundAlphabet(
                        f"alphabet of '{name}': {exc}"
                    ) from exc
                # an undeclared channel is reported by completions
                declared = channels.domains.get(template.head, fields)
                if mode == "exact" and len(fields) != len(declared):
                    raise NonGroundAlphabet(
                        f"event {template.head} needs all fields in exact form"
                    )
                alphabet.update(channels.completions(template.head, fields))
            term = _evaluated(f"behaviour of '{name}'", bind, atom.behaviour, bindings, env)
            components.append(Component(name, frozenset(alphabet), term, env))
    net = Network(components, sigma=channels)
    if not all(e in channels for e in net.owners):
        raise InputError("component alphabets must lie inside sigma")
    net.warnings = tuple(warnings)
    return net
