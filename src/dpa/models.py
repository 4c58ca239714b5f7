"""Builders for the parametrised model families and their pattern
descriptors, which ``dpa bench`` sweeps over.

Each builder returns model text in the ``.net`` format, or the matching
descriptor document where a pattern applies.  The families' files under
``models/`` are these builders at their default sizes; the fixed models
(``two_ring.net``, ``client_server.net`` and its descriptor) exist only as
their files.
"""

from __future__ import annotations


def ring_buffer_source(ncells: int = 3) -> str:
    """Central controller plus ``ncells`` one-place storage cells holding
    binary values; acyclic (star) topology."""
    return f"""\
version 1
-- ring buffer: a controller manages cyclic writes/reads over storage cells
const NCELLS = {ncells}
const N = NCELLS + 1          -- capacity: the cells plus one cache slot

channel input  : {{0..1}}
channel output : {{0..1}}
channel read   : {{0..NCELLS-1}}.{{0..1}}
channel write  : {{0..NCELLS-1}}.{{0..1}}

Controller(cache, size, top, bot) =
    size < N & Input(cache, size, top, bot)
    [] size > 0 & Output(cache, size, top, bot)

Input(cache, size, top, bot) =
    input?x ->
      ( size == 0 & Controller(x, 1, top, bot)
        [] size > 0 & write.top!x -> Controller(cache, size + 1, (top + 1) % NCELLS, bot) )

Output(cache, size, top, bot) =
    output!cache ->
      ( size > 1 & read.bot?x -> Controller(x, size - 1, top, (bot + 1) % NCELLS)
        [] size == 1 & Controller(cache, 0, top, bot) )

Cell(id, val) = read.id!val -> Cell(id, val) [] write.id?x -> Cell(id, x)

atom ControllerC = alphabet {{| read, write, input, output |}} behaviour Controller(0, 0, 0, 0)
atom CellC = alphabet {{| read.id, write.id |}} behaviour Cell(id, 0)

instance Controller = ControllerC
instance Cell = CellC {{0..NCELLS-1}}
"""


def philosophers_source(n: int = 3, symmetric: bool = False) -> str:
    """Dining philosophers; the asymmetric variant turns the last one
    right-handed, which is what makes the acquisition orders consistent."""
    last = (
        "instance Phil = PhilC {0..N-1}"
        if symmetric
        else "instance Phil = PhilC {0..N-2}\ninstance APhil = APhilC {N-1}"
    )
    return f"""\
version 1
-- dining philosophers ({'symmetric: deadlocks' if symmetric else 'asymmetric: deadlock free'})
const N = {n}

channel sit     : {{0..N-1}}
channel eat     : {{0..N-1}}
channel getup   : {{0..N-1}}
channel pickup  : {{0..N-1}}.{{0..N-1}}
channel putdown : {{0..N-1}}.{{0..N-1}}

fun next(i) = (i + 1) % N
fun prev(i) = (i - 1) % N

Phil(id) =
    sit.id -> pickup.id.id -> pickup.id.next(id) -> eat.id ->
        putdown.id.id -> putdown.id.next(id) -> getup.id -> Phil(id)

APhil(id) =
    sit.id -> pickup.id.next(id) -> pickup.id.id -> eat.id ->
        putdown.id.next(id) -> putdown.id.id -> getup.id -> APhil(id)

Fork(id) = [] i : {{id, prev(id)}} @ pickup.i.id -> putdown.i.id -> Fork(id)

atom PhilC = alphabet {{| sit.id, pickup.id.id, pickup.id.next(id), eat.id,
                        putdown.id.id, putdown.id.next(id), getup.id |}}
             behaviour Phil(id)
atom APhilC = alphabet {{| sit.id, pickup.id.id, pickup.id.next(id), eat.id,
                         putdown.id.id, putdown.id.next(id), getup.id |}}
              behaviour APhil(id)
atom ForkC = alphabet {{| pickup.id.id, pickup.prev(id).id,
                        putdown.id.id, putdown.prev(id).id |}}
             behaviour Fork(id)

{last}
instance Fork = ForkC {{0..N-1}}
"""


def philosophers_descriptor(n: int = 3, symmetric: bool = False) -> dict:
    """Resource-allocation roles: philosophers are users, forks resources.

    The resource order ranks lower fork indices greater, so the ordinary
    philosophers' index-ascending acquisitions are descending under it; in
    the symmetric instance the wrap-around philosopher violates it.
    """
    connections = []
    order = {}
    for i in range(n):
        nxt = (i + 1) % n
        user = f"Phil.{i}" if (symmetric or i < n - 1) else f"APhil.{i}"
        for j in sorted({i, nxt}):
            connections.append(
                {
                    "user": user,
                    "resource": f"Fork.{j}",
                    "acquire": f"pickup.{i}.{j}",
                    "release": f"putdown.{i}.{j}",
                }
            )
        if symmetric or i < n - 1:
            order[user] = [f"Fork.{i}", f"Fork.{nxt}"]
        else:
            order[user] = [f"Fork.{nxt}", f"Fork.{i}"]  # right-handed: 0 first
    return {
        "schema": 1,
        "pattern": "resource-allocation",
        "connections": connections,
        "order": order,
        "resource_order": [f"Fork.{i}" for i in range(n)],
    }


def leadership_source(participants: int = 2) -> str:
    """Transport layer of a leader-election protocol: nodes broadcast their
    priority through one-place overwriting buses, detect peers timing out,
    and may leave and re-join the network."""
    n = participants
    lines = [
        "version 1",
        "-- election transport layer: nodes exchange priorities over buses",
        f"channel snd : {{0..{n-1}}}.{{0..{n-1}}}.{{0..{n-1}}}",
        f"channel rcv : {{0..{n-1}}}.{{0..{n-1}}}.{{0..{n-1}}}",
        f"channel on  : {{0..{n-1}}}.{{0..{n-1}}}",
        f"channel off : {{0..{n-1}}}.{{0..{n-1}}}",
        f"channel to  : {{0..{n-1}}}.{{0..{n-1}}}",
        "",
    ]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lines += [
                f"BusOff{i}{j} = on.{i}.{j} -> BusOn{i}{j} [] to.{i}.{j} -> BusOff{i}{j}",
                f"BusOn{i}{j} = off.{i}.{j} -> BusOff{i}{j} [] snd.{i}.{j}?d -> BusFull{i}{j}(d)",
                f"BusFull{i}{j}(d) = off.{i}.{j} -> BusOff{i}{j}"
                f" [] snd.{i}.{j}?e -> BusFull{i}{j}(e)"
                f" [] rcv.{i}.{j}!d -> BusOn{i}{j}",
            ]
    lines.append("")
    for i in range(n):
        peers = [j for j in range(n) if j != i]
        on_chain = " -> ".join(f"on.{i}.{j}" for j in peers)
        off_chain = " -> ".join(f"off.{i}.{j}" for j in peers)
        send_chain = " -> ".join(f"snd.{i}.{j}!{i}" for j in peers)
        lines.append(
            f"Node{i} = {on_chain} -> ((SR{i} /\\ (SKIP |~| STOP)) ; {off_chain} -> Node{i})"
        )
        recv = f"SR{i}"
        chain = None
        for j in reversed(peers):
            inner = chain if chain is not None else f"SR{i}"
            chain = f"(rcv.{j}.{i}?d -> {inner} [] to.{j}.{i} -> {inner})"
        lines.append(f"SR{i} = {send_chain} -> {chain}")
    lines.append("")
    for i in range(n):
        peers = [j for j in range(n) if j != i]
        alpha = []
        for j in peers:
            alpha += [f"snd.{i}.{j}", f"rcv.{j}.{i}", f"on.{i}.{j}", f"off.{i}.{j}", f"to.{j}.{i}"]
        lines.append(
            f"atom Node{i}A = alphabet {{| {', '.join(alpha)} |}} behaviour Node{i}"
        )
        lines.append(f"instance Node.{i} = Node{i}A")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            alpha = [f"snd.{i}.{j}", f"rcv.{i}.{j}", f"on.{i}.{j}", f"off.{i}.{j}", f"to.{i}.{j}"]
            lines.append(
                f"atom Bus{i}{j}A = alphabet {{| {', '.join(alpha)} |}} behaviour BusOff{i}{j}"
            )
            lines.append(f"instance Bus.{i}.{j} = Bus{i}{j}A")
    return "\n".join(lines) + "\n"


def leadership_descriptor(participants: int = 2) -> dict:
    n = participants
    connections = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            connections.append(
                {
                    "from": f"Node.{i}",
                    "to": f"Node.{j}",
                    "transport": f"Bus.{i}.{j}",
                    "send": [f"snd.{i}.{j}.{d}" for d in range(n)],
                    "receive": [f"rcv.{i}.{j}.{d}" for d in range(n)],
                    "on": f"on.{i}.{j}",
                    "off": f"off.{i}.{j}",
                    "timeout": f"to.{i}.{j}",
                }
            )
    schedule = {
        f"Node.{i}": [f"Node.{j}" for j in range(n) if j != i] for i in range(n)
    }
    return {
        "schema": 1,
        "pattern": "async-dynamic",
        "connections": connections,
        "schedule": schedule,
    }
