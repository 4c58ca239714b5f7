"""A reference copy of the oracle's product as it was before its rows were
split into ``solo``, ``duo`` and ``rest`` and its successors built from flat
``(event, delta)`` pairs: one ``leads`` tuple per local state, one list of
successors per enabled event.  It is kept verbatim, apart from its name, so
that ``test_product_reference.py`` can diff ``oracle._Product.moves``
against it."""

from dpa.events import TAU
from dpa.lts import DEFAULT_STATE_LIMIT
from dpa.network import Network


class ProductReference:
    """The n-way product over integer-coded global states.

    A global state is one mixed-radix integer: component ``i`` in local
    state ``s`` contributes ``s * stride_i``, where ``stride_i`` is the
    product of the sizes of components ``0..i-1``.  A local move from ``s``
    to ``t`` is then the delta ``(t - s) * stride_i``, and a synchronised
    move adds one delta per owner.  Per component and local state the
    tables hold the tau deltas, the visible offers (event -> deltas) and
    the events the component leads (it is their least owner), each with
    its other owners.

    The exploration limit bounds the product space only; components are
    compiled under the default cap."""

    def __init__(self, net: Network, limit: int):
        ltss = [c.compiled(max(limit, DEFAULT_STATE_LIMIT)) for c in net.components]
        owners = net.owners
        self.strides = []
        self.tick = []
        self.initial = 0
        tables = []
        stride = 1
        for i, lts in enumerate(ltss):
            rows = []
            for s, row in enumerate(lts.trans):
                taus = tuple((t - s) * stride for (l, t) in row if l == TAU)
                offers = {}
                for l, t in row:
                    if l >= 0:
                        offers.setdefault(l, []).append((t - s) * stride)
                offers = {l: tuple(ds) for l, ds in offers.items()}
                leads = tuple((e, ds, owners[e][1:]) for e, ds in offers.items()
                              if owners[e][0] == i)
                rows.append((taus, offers, leads))
            tables.append((i, stride, rows))
            self.strides.append((stride, lts.n_states))
            self.tick.append([lts.has_tick(s) for s in range(lts.n_states)])
            self.initial += lts.initial * stride
            stride *= lts.n_states
        self.n = len(ltss)
        self.descending = tables[::-1]

    def locals(self, code):
        return tuple(code // stride % size for stride, size in self.strides)

    def moves(self, code):
        """Every move out of ``code`` as ``[(event or TAU, successor)]``.

        Tau moves come first (components ascending, then targets), then
        the synchronised events in ascending order, each with its
        successors (earlier owners' targets outermost).  One pass over
        the components in descending index decodes each local state once;
        an event is checked at its least owner, when the offers of all its
        other owners (higher indices) are known.  Each component's offers
        lie inside its alphabet (``check_alphabet``), so this finds every
        enabled event once, without scanning the alphabet."""
        offers = [None] * self.n
        taus = []
        enabled = []
        rem = code
        for i, stride, rows in self.descending:
            s, rem = divmod(rem, stride)
            tau, offers[i], leads = rows[s]
            if tau:
                taus.append(tau)
            for e, ds, others in leads:
                for j in others:
                    more = offers[j].get(e)
                    if more is None:
                        break
                    if len(ds) == 1 == len(more):  # the common case: no list built
                        ds = (ds[0] + more[0],)
                    else:
                        ds = [d + m for d in ds for m in more]
                else:
                    enabled.append((e, ds))
        out = []
        for tau in reversed(taus):
            out += [(TAU, code + d) for d in tau]
        enabled.sort()
        for e, ds in enabled:
            out += [(e, code + d) for d in ds]
        return out

    def all_tick(self, code):
        return all(tick[s] for tick, s in zip(self.tick, self.locals(code)))
