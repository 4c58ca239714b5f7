"""A family member's events and signature as ``network._Family._resolve``
found them before the elaborator planned them with each atom's alphabet.

The resolver binds the definition's parameters to the member's evaluated
call arguments and evaluates, per member, every choice set and every
field of every body template again, at each value of the choices the
template is under, formats each event and looks it up without interning.
``tests/test_resolve_reference.py`` diffs it against what ``elaborate``
leaves on each member.
"""

from __future__ import annotations

from itertools import product

from dpa.events import EVENTS
from dpa.network import _family
from dpa.terms import Call, DslValueError, Var, eval_expr, set_values, template_formats


class ReferenceResolver:
    """The resolver of one family: ``family`` is what ``network._family``
    gives, and only its parameters, choices and grouped templates are
    read."""

    def __init__(self, env, family):
        self.env = env
        self.params = family.params
        self.choices = family.choices
        # per group: (choice indices, their variables, the distinct fields,
        # each a variable's name or an expression, and one format per
        # template over the fields' positions)
        self.groups = []
        for scope, templates in family.groups:
            names = tuple(self.choices[k].var for k in scope)
            bound = set(self.params).union(names)
            fields, formats = template_formats(templates)
            fields = [f.name if type(f) is Var and f.name in bound else f for f in fields]
            self.groups.append((scope, names, fields, formats))

    def resolve(self, args):
        """The body's events at ``args``, each template at each value of the
        choices it is under (None where the event is not interned), and
        their signature (None then): the equality patterns of the choice
        sets and of the events."""
        env = self.env
        bindings = dict(zip(self.params, args))
        patterns, values = [], []
        for choice in self.choices:
            first = {}
            patterns.append(tuple(first.setdefault(v, len(first))
                                  for v in set_values(choice.items, bindings, env)))
            values.append(first)
        events = []
        for scope, names, fields, formats in self.groups:
            for combo in product(*(values[k] for k in scope)):
                b = {**bindings, **dict(zip(names, combo))} if scope else bindings
                vals = [b[f] if type(f) is str else eval_expr(f, b, env) for f in fields]
                events.extend(EVENTS.lookup(form.format(*vals)) for form in formats)
        if None in events:
            return events, None
        first = {}
        pattern = tuple([first.setdefault(e, len(first)) for e in events])
        return events, (tuple(patterns), pattern)

    def claim(self, args):
        """``resolve(args)``, or ``(None, None)`` when a field does not
        evaluate."""
        try:
            return self.resolve(args)
        except DslValueError:
            return None, None


def reference_members(net) -> dict:
    """Component name -> its events and signature, for every component
    whose ground behaviour is a call with arguments to a definition that
    ``_family`` admits and that another component calls too, resolved as
    the parent did when the component compiled."""
    calls = {}
    for c in net.components:
        if c.lts is None and type(c.term) is Call and c.term.args:
            calls.setdefault((c.env, c.term.name, len(c.term.args)), []).append(c)
    out = {}
    for (env, name, arity), members in calls.items():
        family = _family(env, name, arity)
        if family is not None and len(members) > 1:
            resolver = ReferenceResolver(env, family)
            out.update((c.name, resolver.claim(c.term.args)) for c in members)
    return out
