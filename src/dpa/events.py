"""Event interning and transition labels.

Visible events are dotted names (``pickup.0.1``) interned to small integer
ids so that alphabets, refusal sets and acceptance sets can be plain
``frozenset[int]`` values.  Two reserved negative ids encode the silent
transition and the termination signal; neither may ever appear in a
component alphabet.
"""

from __future__ import annotations

TAU = -1
TICK = -2

_RESERVED = {TAU: "tau", TICK: "tick"}


class EventTable:
    """Process-wide intern table.  Ids are stable for the lifetime of the
    interpreter, which is what counterexample tie-breaking relies on.

    The table is not locked: ``dpa`` interns from one thread.  A process
    pool must fork its workers after the events are interned, so that
    every worker inherits the same ids; a ``spawn`` start method would
    give each worker a table of its own."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        eid = self._ids.get(name)
        if eid is None:
            eid = len(self._names)
            self._names.append(name)
            self._ids[name] = eid
        return eid

    def name(self, eid: int) -> str:
        if eid < 0:
            return _RESERVED[eid]
        return self._names[eid]

    def names(self, eids) -> list[str]:
        return sorted(self.name(e) for e in eids)

    def fresh(self, base: str, taken) -> int:
        """Intern a name whose id the predicate ``taken`` rejects.  Used to
        allocate the request event outside the declared universe."""
        candidate = base
        k = 0
        while True:
            eid = self.intern(candidate)
            if not taken(eid):
                return eid
            k += 1
            candidate = f"{base}'{k}"


EVENTS = EventTable()


def event(name: str) -> int:
    return EVENTS.intern(name)


def fmt_events(eids) -> str:
    return "{" + ", ".join(EVENTS.names(eids)) + "}"


def fmt_trace(trace) -> str:
    return "<" + ", ".join(EVENTS.name(e) for e in trace) + ">"
