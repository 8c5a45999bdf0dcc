"""Flit-level network model: chiplet hubs, boundary links, interposer mesh.

Two clock domains share one global tick counter: chiplet-side components
step every tick, interposer-side components every fourth tick (a 4:1
frequency ratio).  Chiplet links are 128 bits wide; interposer links are
64 or 128 bits.  A packet is encoded once, at the interposer width, where
the SNIs read its header bits; on a chiplet link it moves as a count of
128-bit beats, each beat standing for ``128 // width`` interposer flits.
Every ingress link into the interposer passes through an SNI;
router-to-router links inside the mesh do not.  An SNI is handed the
packet whose next flit arrives, never a flit copy: the chiplet boundary
and the MC NI each queue a packet once per flit still to enter, and the
SNI hands each flit on to its router's ``accept``.

Routers implement wormhole switching with dimension-order (XY) routing,
four virtual networks and a configurable number of virtual channels per
vnet.  Each output port grants at most one flit per cycle and stays
locked to a packet from head to tail, so flits of different packets
never interleave on a link.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import deque
from functools import partial

from .messages import CHIPLET_LINK_BITS, CoherenceMessage, Flit, FlitPosition, encode
from .sni import SniKind, SniUnit
from .topology import Port, Topology, TopologyError

CLOCK_RATIO = 4  # interposer period in chiplet ticks (1 GHz vs 250 MHz)
EGRESS_CAP = 2  # 128-bit beats a chiplet boundary buffers toward its SNI

_PORT_ORDER = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL)
_PORT_IDX = {p: i for i, p in enumerate(_PORT_ORDER)}
_LOCAL_IDX = _PORT_IDX[Port.LOCAL]
_OPP_IDX = (1, 0, 3, 2, 4)  # paired input port seen by the neighbor

# Flit positions, compared by identity in the per-flit paths instead of
# going through the Flit.is_head / is_tail properties.
_HEAD = FlitPosition.HEAD
_BODY = FlitPosition.BODY
_TAIL = FlitPosition.TAIL
_HEAD_TAIL = FlitPosition.HEAD_TAIL


class Packet:
    """One message in flight, with its flits and latency bookkeeping.

    Timestamps are global ticks.  ``flits`` holds the interposer-width
    encoding, the only one.
    """

    __slots__ = (
        "pid", "msg", "src_node", "dest_node", "target_chiplet", "vnet",
        "vc", "dest_router", "flits", "flit_total", "inject_tick",
        "first_grant_tick", "deliver_tick", "hops", "sni_delay", "sni_kind",
        "dropped", "malicious", "loopback",
    )

    def __init__(
        self,
        pid: int,
        msg: CoherenceMessage,
        src_node: int,
        dest_node: int,
        dest_router: int,
        target_chiplet: int | None = None,
    ):
        self.pid = pid
        self.msg = msg
        self.src_node = src_node
        self.dest_node = dest_node
        self.target_chiplet = target_chiplet
        self.vnet = msg.vnet
        self.vc: int | None = None
        self.dest_router = dest_router
        self.flits: list[Flit] = []
        self.flit_total = 0
        self.inject_tick = -1
        self.first_grant_tick = -1
        self.deliver_tick = -1
        self.hops = 0
        self.sni_delay = -1
        self.sni_kind: str | None = None
        self.dropped = False
        self.malicious = False
        self.loopback = False


def nearest_rank(count: int, fraction: float) -> int:
    """1-based nearest rank of ``fraction`` among ``count`` values."""
    return min(max(1, math.ceil(count * fraction)), count)


class LatencyStats:
    """Running sums and an exact histogram of totals over delivered mesh
    packets (loopback left out).  queuing (injection until the head is
    granted onto the first mesh router, checker pipeline included) +
    in_network (mesh grant to tail delivery) = total, per packet and so
    in the means."""

    __slots__ = ("packets", "queuing", "in_network", "hops", "totals")

    def __init__(self):
        self.packets = self.queuing = self.in_network = self.hops = 0
        self.totals: dict[int, int] = {}  # total latency -> packets

    def add(self, packet: Packet) -> None:
        if packet.loopback:
            return
        q = packet.first_grant_tick - packet.inject_tick
        n = packet.deliver_tick - packet.first_grant_tick
        self.packets += 1
        self.queuing += q
        self.in_network += n
        self.hops += packet.hops
        self.totals[q + n] = self.totals.get(q + n, 0) + 1

    def percentile(self, fraction: float) -> int:
        """Nearest-rank percentile of the totals, 0 if there are none."""
        rank = nearest_rank(self.packets, fraction)
        seen = 0
        for total in sorted(self.totals):
            seen += self.totals[total]
            if seen >= rank:
                return total
        return 0

    def summary(self) -> dict:
        count = self.packets
        if count == 0:
            return {"packets": 0}
        return {
            "packets": count,
            "mean_queuing": round(self.queuing / count, 6),
            "mean_in_network": round(self.in_network / count, 6),
            "mean_total": round((self.queuing + self.in_network) / count, 6),
            "mean_hops": round(self.hops / count, 6),
            "p50_total": self.percentile(0.50),
            "p95_total": self.percentile(0.95),
            "p99_total": self.percentile(0.99),
        }


class Router:
    """One mesh router: input-buffered, per-output wormhole arbitration.

    Ports are integer indices (E, W, N, S, LOCAL = 0..4) in the hot
    path; a per-destination routing table is precomputed when the mesh
    is wired up.  An input VC is an int key, ``(port * 4 + vnet) *
    vc_per_vnet + vc``, which sorts like the (port, vnet, vc) tuple, and
    each key owns one deque of (flit, packet).

    A cycle costs work in proportion to the flits that can move.
    ``ready[out]`` is the sorted list of keys whose front flit is a head
    routed to ``out``: a key enters it when a head reaches the front of
    its VC (on arrival into an empty VC, or when the packet ahead leaves)
    and leaves it when the head is sent.  ``busy`` is the sorted list of
    the outputs that hold work, a locked worm or a ready head: an output
    enters it when its ready list gains a first key while it is unlocked,
    and leaves it when its lock is released or its last ready head is
    sent, whichever leaves it with neither.  ``step`` visits only the
    outputs in ``busy``, and a router whose ``busy`` is empty has nothing
    to do.  A free output grants the first ready key after its last
    grant, wrapping round; a locked one sends the next flit of its worm.

    A mesh hop costs no call beyond the sender's ``step``: it appends the
    (flit, packet) entry to the neighbour's paired input VC, the one with
    the same VC offset ``vnet * vc_per_vnet + vc`` (precomputed per
    output and key in ``downstream``), and updates the neighbour's ready
    and busy lists when a head enters an empty VC.  The hop is refused
    while that VC holds ``vc_depth`` flits.

    ``accept`` is the SNI's only way into the local port.  A packet takes
    the next VC of its vnet, round robin per router (``entry_vc``), on its
    first attempt and keeps it while it is refused, which happens, as for
    a mesh hop, while that VC holds ``vc_depth`` flits.

    A flit moves at most once per cycle and never in the cycle it
    arrived (``stamp`` holds that tick).  A head that reaches the front
    behind a departing tail has its stamp raised to the current tick, so
    it too waits for the next cycle, whichever output it is routed to.
    """

    def __init__(self, rid: int, topo: Topology, vc_per_vnet: int, vc_depth: int):
        self.id = rid
        self.topo = topo
        self.vc_per_vnet = vc_per_vnet
        self.vc_depth = vc_depth
        self.buffers: dict[int, deque] = {
            key: deque() for key in range(5 * 4 * vc_per_vnet)
        }
        self.ready: list[list[int]] = [[] for _ in range(5)]
        self.busy: list[int] = []  # outputs with a lock or a ready head, sorted
        self.locks: list = [None] * 5
        self.last_grant = [-1] * 5
        self.entry_vc = [0] * 4  # per vnet: the VC the next packet takes
        self.neighbors: list = [None] * 5  # Router per out-port index
        # per out-port index, per input key: (key, deque) of the
        # neighbour's VC that the hop fills
        self.downstream: list = [None] * 5
        self.route_table: dict[int, int] = {}  # dest router id -> out-port idx
        self.local_sink = None  # sink(flit, packet, tick); never refuses
        self.trace = None  # trace(tick, packet, flit, link_label) or None

    def finish_wiring(self) -> None:
        """Precompute the XY routing decision for every destination, and
        where each output's hop puts a flit."""
        for dest in self.topo.all_routers():
            if dest == self.id:
                self.route_table[dest] = _LOCAL_IDX
            else:
                self.route_table[dest] = _PORT_IDX[self.topo.route(self.id, dest)]
        # The paired input VC has the same offset, key modulo span; the
        # keys of the 5 input ports repeat the offsets 5 times over.
        span = 4 * self.vc_per_vnet
        for out, nxt in enumerate(self.neighbors):
            if nxt is not None:
                base = _OPP_IDX[out] * span
                paired = [(base + off, nxt.buffers[base + off]) for off in range(span)]
                self.downstream[out] = paired * 5

    def _head_ready(self, key: int, packet) -> None:
        """A head reached the front of VC ``key``: make it ready."""
        out = self.route_table[packet.dest_router]
        ready = self.ready[out]
        if not ready and self.locks[out] is None:
            insort(self.busy, out)
        insort(ready, key)

    def accept(self, flit: Flit, packet, icycle: int) -> bool:
        """Take ``flit`` from the SNI into the local port at interposer
        cycle ``icycle``, or refuse it.  An accepted head counts a hop and
        ends the packet's queuing, if nothing ended it before."""
        vnet = packet.vnet
        vc = packet.vc
        if vc is None:
            vc = packet.vc = self.entry_vc[vnet]
            self.entry_vc[vnet] = (vc + 1) % self.vc_per_vnet
        key = (_LOCAL_IDX * 4 + vnet) * self.vc_per_vnet + vc
        q = self.buffers[key]
        if len(q) >= self.vc_depth:
            return False
        tick = icycle * CLOCK_RATIO
        pos = flit.position
        if pos is _HEAD or pos is _HEAD_TAIL:
            if not q:
                self._head_ready(key, packet)
            packet.hops += 1
            if packet.first_grant_tick < 0:
                # The checker pipeline before this point counts as queuing.
                packet.first_grant_tick = tick
        q.append((flit, packet))
        flit.stamp = tick
        if self.trace is not None:
            self.trace(tick, packet, flit, f"sni->{self.id}")
        return True

    def step(self, tick: int) -> bool:
        sent = False
        buffers = self.buffers
        all_ready = self.ready
        busy = self.busy
        locks = self.locks
        last_grant = self.last_grant
        trace = self.trace
        # A copy: outputs that gain work in this cycle hold only heads that
        # cannot leave before the next one.
        for out in busy[:]:
            key = locks[out]
            ready = all_ready[out]
            if key is None:
                # Round-robin: the first movable key strictly after the
                # last grant, wrapping to the smallest.  Indices i - n to
                # -1 name ready[i:], and 0 to i - 1 name ready[:i].
                i = bisect_right(ready, last_grant[out])
                for j in range(i - len(ready), i):
                    key = ready[j]
                    q = buffers[key]
                    entry = q[0]
                    if entry[0].stamp < tick:
                        break
                else:
                    continue
            else:
                q = buffers[key]
                # An empty VC: the rest of the worm is still upstream.
                if not q:
                    continue
                entry = q[0]
                if entry[0].stamp >= tick:
                    continue
            flit, packet = entry
            pos = flit.position
            if out != _LOCAL_IDX:
                # The hop: straight into the neighbour's paired input VC.
                nkey, nq = self.downstream[out][key]
                if len(nq) >= self.vc_depth:
                    continue
                if not nq and (pos is _HEAD or pos is _HEAD_TAIL):
                    # As _head_ready, inline on the neighbour.
                    nxt = self.neighbors[out]
                    nout = nxt.route_table[packet.dest_router]
                    nready = nxt.ready[nout]
                    if not nready and nxt.locks[nout] is None:
                        insort(nxt.busy, nout)
                    insort(nready, nkey)
                nq.append(entry)
                flit.stamp = tick
            q.popleft()
            sent = True
            if pos is _HEAD:
                packet.hops += 1
                ready.remove(key)
                locks[out] = key
                last_grant[out] = key
            elif pos is not _BODY:
                # A tail or a one-flit packet: the output is free again.
                if pos is _HEAD_TAIL:
                    packet.hops += 1
                    ready.remove(key)
                    last_grant[out] = key
                else:
                    locks[out] = None
                if not ready:
                    busy.remove(out)
                if q:
                    # The next packet's head reaches the front: it may
                    # leave no earlier than the next cycle.
                    head, ahead = q[0]
                    head.stamp = tick
                    self._head_ready(key, ahead)
            if out == _LOCAL_IDX:
                # After the hop count: the sink may deliver the packet.
                self.local_sink(flit, packet, tick)
            if trace is not None:
                label = (
                    f"{self.id}->local" if out == _LOCAL_IDX
                    else f"{self.id}->{self.neighbors[out].id}"
                )
                trace(tick, packet, flit, label)
        return sent


class ChipletBoundary:
    """Outbound side of one chiplet link: each 128-bit beat from the hub
    releases its ``ratio`` interposer-width flits into the chiplet's
    SNI-1, one flit per interposer cycle.  ``pending`` holds the packet
    once per flit still to enter the SNI."""

    def __init__(self, chiplet: int, interposer_width: int, sni: SniUnit):
        self.chiplet = chiplet
        self.ratio = CHIPLET_LINK_BITS // interposer_width
        self.sni = sni
        # one entry per 128-bit beat: (stamp tick, packet)
        self.egress: deque[tuple[int, Packet]] = deque()
        self.pending: deque[Packet] = deque()

    def egress_space(self) -> bool:
        return len(self.egress) < EGRESS_CAP

    def step(self, icycle: int, tick: int) -> bool:
        moved = False
        if not self.pending and self.egress:
            stamp, packet = self.egress[0]
            if stamp < tick:
                self.egress.popleft()
                self.pending.extend((packet,) * self.ratio)
                moved = True
        if self.pending and self.sni.can_accept():
            self.sni.push(self.pending.popleft(), icycle)
            moved = True
        return moved


class ChipletIngress:
    """Inbound side of one chiplet link: every ``ratio`` interposer-width
    flits make one 128-bit beat for the hub.  Wormhole locking on the
    router's local port guarantees pieces of one packet arrive
    contiguously."""

    def __init__(self, chiplet: int, interposer_width: int, hub: "ChipletHub"):
        self.chiplet = chiplet
        self.ratio = CHIPLET_LINK_BITS // interposer_width
        self.hub = hub
        self.pieces = 0

    def sink(self, flit: Flit, packet: Packet, tick: int) -> None:
        self.pieces += 1
        if self.pieces < self.ratio:
            return
        self.pieces = 0
        pos = flit.position
        self.hub.ingress.append((tick, packet, pos is _TAIL or pos is _HEAD_TAIL))


class ChipletHub:
    """On-chiplet hub router, collapsed to the boundary-relevant part:
    per-core injection queues arbitrated onto the single chiplet link,
    plus the ingress stream delivering one 128-bit beat per tick.

    ``waiting`` is the sorted list of cores with a queued packet, kept up
    to date on enqueue and on the pop that empties a queue, so that the
    round-robin pick is one bisection rather than a scan of every core.
    """

    def __init__(self, chiplet: int, topo: Topology, deliver):
        self.chiplet = chiplet
        self.topo = topo
        self.deliver = deliver  # deliver(packet, tick)
        self.queues: dict[int, deque[Packet]] = {
            c: deque() for c in topo.core_range(chiplet)
        }
        # one entry per 128-bit beat: (stamp tick, packet, last beat)
        self.ingress: deque[tuple[int, Packet, bool]] = deque()
        self.boundary: ChipletBoundary | None = None
        self.waiting: list[int] = []  # cores with a queued packet, sorted
        self.lock: int | None = None
        self.last_grant = -1
        self.sent = 0  # beats sent of the packet that holds the link

    def enqueue(self, packet: Packet) -> None:
        """Queue a core packet; one bound for a core of this chiplet is
        looped back by the hub and never reaches the interposer."""
        packet.loopback = packet.dest_node in self.queues  # keyed by our cores
        queue = self.queues[packet.src_node]
        if not queue:
            insort(self.waiting, packet.src_node)
        queue.append(packet)

    def can_move(self, tick: int) -> bool:
        """Whether ``step(tick)`` would move a beat: the ingress front was
        stamped before ``tick``, or the next queued packet is a loopback
        or finds egress space.  While it is false a step changes nothing."""
        ingress = self.ingress
        if ingress and ingress[0][0] < tick:
            return True
        if not self.waiting:
            return False
        if self.boundary.egress_space():
            return True
        return self.queues[self._pick_source()][0].loopback

    def _pick_source(self) -> int | None:
        if self.lock is not None:
            return self.lock
        waiting = self.waiting
        if not waiting:
            return None
        i = bisect_right(waiting, self.last_grant)
        return waiting[i] if i < len(waiting) else waiting[0]

    def step(self, tick: int) -> bool:
        moved = False
        ingress = self.ingress
        if ingress and ingress[0][0] < tick:
            _, packet, last = ingress.popleft()
            moved = True
            if last:
                self.deliver(packet, tick)
        src = self._pick_source()
        if src is None:
            return moved
        queue = self.queues[src]
        packet = queue[0]
        boundary = self.boundary
        loopback = packet.loopback
        if not loopback and not boundary.egress_space():
            return moved
        if loopback and self.sent == 0:
            # Loopback never reaches the mesh: the hub grant is its first
            # (and only) link grant.
            packet.first_grant_tick = tick
        self.sent += 1
        last = self.sent == packet.flit_total // boundary.ratio
        if loopback:
            ingress.append((tick, packet, last))
        else:
            boundary.egress.append((tick, packet))
        if last:
            self.sent = 0
            self.lock = None
            self.last_grant = src
            queue.popleft()
            if not queue:
                self.waiting.remove(src)
        else:
            self.lock = src
        return True


class McNi:
    """Memory-controller network interface: native interposer width on
    both directions, egress through the controller's SNI-2, one flit per
    interposer cycle.  ``queue`` holds each packet once per flit still to
    enter the SNI, as ``ChipletBoundary.pending`` does."""

    def __init__(self, sni: SniUnit, deliver):
        self.sni = sni
        self.deliver = deliver  # deliver(packet, tick)
        self.queue: deque[Packet] = deque()

    def enqueue(self, packet: Packet) -> None:
        self.queue.extend((packet,) * packet.flit_total)

    def step_egress(self, icycle: int, tick: int) -> bool:
        if not self.queue or not self.sni.can_accept():
            return False
        self.sni.push(self.queue.popleft(), icycle)
        return True

    def sink(self, flit: Flit, packet: Packet, tick: int) -> None:
        pos = flit.position
        if pos is _TAIL or pos is _HEAD_TAIL:
            self.deliver(packet, tick)


class Fabric:
    """The assembled interconnect: routers, boundaries, NIs and SNIs.

    The harness owns the clock; call step_interposer on every fourth
    tick (before step_chiplets for the same tick) and step_chiplets on
    every tick.
    """

    def __init__(
        self,
        topo: Topology,
        interposer_width: int,
        vc_per_vnet: int,
        vc_depth: int,
        sni_factory,
        deliver_chiplet,
        deliver_mc,
    ):
        """sni_factory(kind, index, forward, drop) -> SniUnit, where kind
        is a SniKind, index the chiplet or memory controller, and forward
        the ``accept`` of the router that the SNI feeds."""
        self.topo = topo
        self.iw = interposer_width
        # The live packets: made and neither delivered nor dropped yet.
        self.registry: dict[int, Packet] = {}
        self.flits_injected = 0
        self.delivered = self.flits_delivered = self.dropped = 0
        self.latency = LatencyStats()
        # (tick, pid, link label) per flit hop, once enable_trace is called
        self.trace_events: list[tuple[int, int, str]] | None = None
        self._next_pid = 0

        self.routers = {
            rid: Router(rid, topo, vc_per_vnet, vc_depth)
            for rid in topo.all_routers()
        }
        for rid, router in self.routers.items():
            for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
                try:
                    router.neighbors[_PORT_IDX[port]] = self.routers[
                        topo.neighbor(rid, port)
                    ]
                except TopologyError:
                    continue
            router.finish_wiring()

        self.hubs: dict[int, ChipletHub] = {}
        self.boundaries: dict[int, ChipletBoundary] = {}
        self.chiplet_snis: dict[int, SniUnit] = {}
        for k in range(topo.n_chiplets):
            rid = topo.chiplet_router(k)
            hub = ChipletHub(k, topo, partial(self._deliver, deliver_chiplet, k))
            sni = sni_factory(SniKind.SNI1, k, self.routers[rid].accept, self._drop)
            boundary = ChipletBoundary(k, interposer_width, sni)
            hub.boundary = boundary
            self.routers[rid].local_sink = ChipletIngress(k, interposer_width, hub).sink
            self.hubs[k] = hub
            self.boundaries[k] = boundary
            self.chiplet_snis[k] = sni

        self.mc_nis: dict[int, McNi] = {}
        self.mc_snis: dict[int, SniUnit] = {}
        for m in range(topo.n_mcs):
            rid = topo.mc_router(m)
            sni = sni_factory(SniKind.SNI2, m, self.routers[rid].accept, self._drop)
            ni = McNi(sni, partial(self._deliver, deliver_mc, m))
            self.routers[rid].local_sink = ni.sink
            self.mc_nis[m] = ni
            self.mc_snis[m] = sni

        self._routers_order = [self.routers[r] for r in sorted(self.routers)]
        self._boundary_order = [self.boundaries[k] for k in sorted(self.boundaries)]
        self._mc_ni_order = [self.mc_nis[m] for m in sorted(self.mc_nis)]
        self._sni_order = [
            self.chiplet_snis[k] for k in sorted(self.chiplet_snis)
        ] + [self.mc_snis[m] for m in sorted(self.mc_snis)]
        self._hub_order = [self.hubs[k] for k in sorted(self.hubs)]
        self._core_hub = [self.hubs[topo.chiplet_of_core(c)] for c in range(topo.n_cores)]
        # Destination routers by chiplet and by core or controller node id;
        # new_packet asks the topology about any other id.
        self._chiplet_router = {k: topo.chiplet_router(k) for k in range(topo.n_chiplets)}
        self._node_router = {
            node: topo.dest_router(node)
            for node in [*range(topo.n_cores), *map(topo.mc_node, range(topo.n_mcs))]
        }

    # -- packet lifecycle -------------------------------------------------

    def new_packet(
        self,
        msg: CoherenceMessage,
        src_node: int,
        dest_node: int,
        tick: int,
        target_chiplet: int | None = None,
        malicious: bool = False,
    ) -> Packet:
        pid = self._next_pid
        self._next_pid += 1
        if target_chiplet is None:
            dest_router = self._node_router.get(dest_node)
        else:
            dest_router = self._chiplet_router.get(target_chiplet)
        if dest_router is None:  # not a node or chiplet: raises TopologyError
            dest_router = self.topo.dest_router(dest_node, target_chiplet)
        packet = Packet(pid, msg, src_node, dest_node, dest_router, target_chiplet)
        packet.inject_tick = tick
        packet.malicious = malicious
        packet.flits = encode(msg, self.iw)
        packet.flit_total = len(packet.flits)
        self.flits_injected += packet.flit_total
        self.registry[pid] = packet
        return packet

    def inject_from_core(
        self, msg: CoherenceMessage, tick: int, malicious: bool = False
    ) -> Packet:
        packet = self.new_packet(
            msg, msg.requester_id, msg.destination_id, tick, malicious=malicious
        )
        self._core_hub[msg.requester_id].enqueue(packet)
        return packet

    def inject_from_core_as(
        self, msg: CoherenceMessage, src_core: int, tick: int, malicious: bool = True
    ) -> Packet:
        """Inject on a chosen core's link regardless of the claimed
        requester: the spoofing/attack entry point."""
        try:
            self.topo.dest_router(msg.destination_id)
            dest = msg.destination_id
        except TopologyError:
            # Unroutable destination (broadcast id or junk): the packet
            # still heads onto the interposer and meets the link's SNI.
            dest = self.topo.mc_node(0)
        packet = self.new_packet(msg, src_core, dest, tick, malicious=malicious)
        self.hubs[self.topo.chiplet_of_core(src_core)].enqueue(packet)
        return packet

    def inject_from_mc(
        self, msg: CoherenceMessage, mc: int, tick: int, target_chiplet: int | None = None
    ) -> Packet:
        packet = self.new_packet(
            msg, self.topo.mc_node(mc), msg.destination_id, tick,
            target_chiplet=target_chiplet,
        )
        self.mc_nis[mc].enqueue(packet)
        return packet

    def _deliver(self, callback, index: int, packet: Packet, tick: int) -> None:
        """Retire a packet whose last beat or flit a hub or MC NI took,
        then ``callback(index, packet, tick)``."""
        packet.deliver_tick = tick
        del self.registry[packet.pid]
        self.delivered += 1
        self.flits_delivered += packet.flit_total
        self.latency.add(packet)
        callback(index, packet, tick)

    def _drop(self, packet: Packet, icycle: int, replacement=None, dest_node=None):
        """Retire a packet that an SNI discards.  For an SNI-2 rewrite,
        return the replacement message's packet, encoded like any other."""
        packet.dropped = True
        del self.registry[packet.pid]
        self.dropped += 1
        if replacement is None:
            return None
        tick = icycle * CLOCK_RATIO
        new = self.new_packet(replacement, replacement.requester_id, dest_node, tick)
        new.first_grant_tick = tick
        return new

    # -- tracing ----------------------------------------------------------

    def enable_trace(self) -> None:
        """Record every flit hop from now on in ``trace_events``: the
        links between routers and each SNI's hand-off to its router."""
        self.trace_events = []
        for router in self.routers.values():
            router.trace = self._trace

    def _trace(self, tick: int, packet: Packet, flit: Flit, label: str) -> None:
        self.trace_events.append((tick, packet.pid, label))

    # -- clocking ---------------------------------------------------------

    def step_interposer(self, tick: int):
        """One interposer cycle; returns (violations, progressed)."""
        icycle = tick // CLOCK_RATIO
        moved = False
        violations = []
        for boundary in self._boundary_order:
            if boundary.egress or boundary.pending:
                moved |= boundary.step(icycle, tick)
        for ni in self._mc_ni_order:
            if ni.queue:
                moved |= ni.step_egress(icycle, tick)
        for sni in self._sni_order:
            # A unit does nothing before its front packet's release cycle.
            inflight = sni.inflight
            if inflight and inflight[0].release_cycle <= icycle:
                violations.extend(sni.step(icycle))
        for router in self._routers_order:
            if router.busy:
                moved |= router.step(tick)
        return violations, moved

    def step_chiplets(self, tick: int) -> bool:
        moved = False
        for hub in self._hub_order:
            # An empty hub cannot move: test that before the call.
            if (hub.ingress or hub.waiting) and hub.can_move(tick):
                moved |= hub.step(tick)
        return moved

    def chiplets_idle(self, tick: int) -> bool:
        """No hub can move a beat at ``tick``."""
        for hub in self._hub_order:
            if hub.can_move(tick):
                return False
        return True

    # -- accounting -------------------------------------------------------

    def ledger(self) -> dict:
        live = len(self.registry)
        return {
            "packets_injected": self._next_pid,
            "packets_delivered": self.delivered,
            "packets_dropped": self.dropped,
            "packets_in_flight": live,
            "flits_injected": self.flits_injected,
            "flits_delivered": self.flits_delivered,
            "balanced": self._next_pid == self.delivered + self.dropped + live
            and self._held() == self.registry.keys(),
        }

    def _held(self) -> set[int]:
        """Pids of the undropped packets that some buffer still holds."""
        held = []
        for hub in self._hub_order:
            for queue in hub.queues.values():
                held.extend(queue)
            held.extend(p for _, p, _ in hub.ingress)
        for boundary in self._boundary_order:
            held.extend(p for _, p in boundary.egress)
            held.extend(boundary.pending)
        for sni in self._sni_order:
            held.extend(entry.packet for entry in sni.inflight)
        for router in self._routers_order:
            for queue in router.buffers.values():
                held.extend(p for _, p in queue)
        for ni in self._mc_ni_order:
            held.extend(ni.queue)
        return {p.pid for p in held if not p.dropped}
