"""Interconnect tests: geometry, routing, clocking, width conversion,
wormhole integrity and flit conservation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from interposim import noc
from interposim.apu import ApuTable, Permission
from interposim.harness import VC_CHOICES
from interposim.messages import CoherenceMessage, MsgType, decode
from interposim.noc import CHIPLET_LINK_BITS, CLOCK_RATIO, Fabric
from interposim.sni import SniConfig, SniUnit
from interposim.topology import Port, Topology, TopologyError
from reference_router import ReferenceRouter


class TestTopology:
    def test_baseline_mesh_shape(self, topo8):
        assert topo8.rows == 4
        assert topo8.n_routers == 12
        assert topo8.n_cores == 64

    def test_node_id_spaces(self, topo8):
        assert topo8.is_core(0) and topo8.is_core(63)
        assert not topo8.is_core(64)
        assert topo8.is_mc(64) and topo8.is_mc(67)
        assert not topo8.is_mc(68)
        assert topo8.mc_node(2) == 66

    def test_interface_router_placement(self, topo8):
        # West column: chiplets 0-3; east column: 4-7; middle: MCs.
        assert [topo8.coord(topo8.chiplet_router(k)) for k in range(8)] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3),
        ]
        assert [topo8.coord(topo8.mc_router(m)) for m in range(4)] == [
            (1, 0), (1, 1), (1, 2), (1, 3),
        ]

    def test_home_mc_interleaving(self, topo8):
        assert [topo8.home_mc(line << 6) for line in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_xy_route_examples(self, topo8):
        r = topo8.chiplet_router(0)  # (0, 0)
        assert topo8.route(r, topo8.mc_router(0)) is Port.EAST  # (1, 0)
        assert topo8.route(r, topo8.chiplet_router(3)) is Port.NORTH  # (0, 3)
        assert topo8.route(topo8.chiplet_router(7), topo8.mc_router(0)) is Port.WEST
        assert topo8.route(r, r) is Port.LOCAL

    def test_xy_routing_reaches_every_pair(self, topo8):
        """Independent oracle: following route() always terminates at the
        destination in exactly the Manhattan distance, X moves first."""
        for src, dst in itertools.permutations(topo8.all_routers(), 2):
            here = src
            hops = 0
            seen_y_move = False
            while here != dst:
                port = topo8.route(here, dst)
                assert port is not Port.LOCAL
                if port in (Port.NORTH, Port.SOUTH):
                    seen_y_move = True
                else:
                    assert not seen_y_move, "X move after a Y move"
                here = topo8.neighbor(here, port)
                hops += 1
                assert hops <= 10
            assert hops == topo8.manhattan(src, dst)

    def test_dest_router(self, topo8):
        assert topo8.dest_router(66) == topo8.mc_router(2)
        assert topo8.dest_router(13) == topo8.chiplet_router(1)
        assert topo8.dest_router(255, target_chiplet=6) == topo8.chiplet_router(6)
        with pytest.raises(TopologyError):
            topo8.dest_router(255)
        with pytest.raises(TopologyError):
            topo8.dest_router(200)

    def test_small_machine(self, topo_small):
        assert topo_small.rows == 2
        assert topo_small.n_routers == 6
        assert topo_small.chiplet_of_core(3) == 1

    def test_invalid_shapes(self):
        with pytest.raises(TopologyError):
            Topology(n_chiplets=9)
        with pytest.raises(TopologyError):
            Topology(n_chiplets=8, cores_per_chiplet=9)
        with pytest.raises(TopologyError):
            Topology(n_mcs=5)


class FabricHarness:
    """A Fabric wired to recording sinks, clocked like the simulator.

    ``sunk`` maps a packet id to the interposer-width flits that a
    router's local sink took, in order: the wire bits that left the mesh.
    """

    def __init__(self, topo: Topology, width: int, sni_enabled: bool = True,
                 vc_per_vnet: int = 4, vc_depth: int = 4,
                 enable_trace: bool = False):
        self.topo = topo
        self.width = width
        self.table = ApuTable.uniform(Permission.READ_WRITE)
        self.chiplet_rx = []  # (tick, chiplet, message)
        self.mc_rx = []  # (tick, mc, message)
        self.sni_enabled = sni_enabled
        self.fabric = Fabric(
            topo, width, vc_per_vnet, vc_depth,
            sni_factory=self._sni_factory,
            deliver_chiplet=self._deliver_chiplet,
            deliver_mc=self._deliver_mc,
        )
        if enable_trace:
            self.fabric.enable_trace()
        self.sunk = {}
        for router in self.fabric.routers.values():
            if router.local_sink is not None:
                router.local_sink = self._recording(router.local_sink)

    def _recording(self, sink):
        def record(flit, packet, tick):
            sink(flit, packet, tick)
            self.sunk.setdefault(packet.pid, []).append(flit)

        return record

    def _sni_factory(self, kind, index, forward, spawn):
        return SniUnit(SniConfig.for_link(kind, index, self.topo), self.width,
                       self.table, forward, spawn,
                       enabled=self.sni_enabled)

    def _deliver_chiplet(self, chiplet, packet, tick):
        self.chiplet_rx.append((tick, chiplet, packet.msg))

    def _deliver_mc(self, mc, packet, tick):
        self.mc_rx.append((tick, mc, packet.msg))

    def run(self, ticks: int, start: int = 0):
        for tick in range(start, ticks):
            if tick % CLOCK_RATIO == 0:
                violations, _ = self.fabric.step_interposer(tick)
                assert not violations
            self.fabric.step_chiplets(tick)


def make_harness(topo, width, **kw):
    return FabricHarness(topo, width, **kw)


class TestFabricTransport:
    @pytest.mark.parametrize("width", (64, 128))
    def test_core_to_mc_request(self, topo8, width):
        h = make_harness(topo8, width)
        msg = CoherenceMessage(MsgType.GETS, 9, 66, 0, 0x1234C0)
        packet = h.fabric.inject_from_core(msg, 0)
        h.run(400)
        assert h.mc_rx == [({64: 32, 128: 24}[width], 2, msg)]
        assert decode(h.sunk[packet.pid], width) == msg

    @pytest.mark.parametrize("width", (64, 128))
    def test_core_data_to_mc(self, topo8, width):
        h = make_harness(topo8, width)
        msg = CoherenceMessage(
            MsgType.WRITEBACK_DATA, 9, 66, 2, 0x1234C0, dirty=True,
            data_block=bytes(range(64, 128)),
        )
        packet = h.fabric.inject_from_core(msg, 0)
        h.run(400)
        assert h.mc_rx == [({64: 64, 128: 40}[width], 2, msg)]
        # The wire bits, not the injected object, carry the payload over
        # the chiplet boundary and the mesh.
        assert decode(h.sunk[packet.pid], width) == msg

    @pytest.mark.parametrize("width", (64, 128))
    def test_mc_data_to_core(self, topo8, width):
        h = make_harness(topo8, width)
        msg = CoherenceMessage(
            MsgType.MEMORY_DATA, 64, 42, 2, 0x80, cur_owner=8,
            data_block=bytes(range(64)),
        )
        packet = h.fabric.inject_from_mc(msg, 0, 0)
        h.run(400)
        assert h.chiplet_rx == [({64: 65, 128: 41}[width], 5, msg)]
        assert decode(h.sunk[packet.pid], width) == msg

    def test_broadcast_probe_targets_each_chiplet(self, topo8):
        probe = CoherenceMessage(
            MsgType.PROBE, 64, 255, 1, 0x40, cur_owner=3
        )
        h = make_harness(topo8, 128)
        for k in range(topo8.n_chiplets):
            h.fabric.inject_from_mc(probe, 0, 0, target_chiplet=k)
        h.run(600)
        assert sorted(c for _, c, _ in h.chiplet_rx) == list(range(8))

    def test_same_chiplet_loopback_skips_interposer(self, topo8):
        msg = CoherenceMessage(MsgType.ACK, 1, 3, 2, 0x40)
        h = make_harness(topo8, 64)
        packet = h.fabric.inject_from_core(msg, 0)
        h.run(60)
        assert h.chiplet_rx == [(1, 0, msg)]
        assert packet.loopback
        assert packet.hops == 0
        assert all(u.stats.checked == 0 for u in h.fabric.chiplet_snis.values())

    def test_loopback_data_timing(self, topo8):
        msg = CoherenceMessage(
            MsgType.DATA, 1, 3, 2, 0x40, data_block=bytes([7] * 64)
        )
        h = make_harness(topo8, 64)
        packet = h.fabric.inject_from_core(msg, 0)
        h.run(60)
        # Five 128-bit beats, one per chiplet tick, each taken by the
        # hub's ingress on the tick after it was sent.
        assert h.chiplet_rx == [(5, 0, msg)]
        assert packet.loopback and packet.first_grant_tick == 0

    def test_wormhole_non_interleaving(self, topo8):
        """Two multi-flit packets from one chiplet to one controller must
        arrive intact (flits of different packets never interleave)."""
        h = make_harness(topo8, 64)
        blobs = [bytes([i] * 64) for i in (1, 2, 3)]
        msgs = [
            CoherenceMessage(
                MsgType.WRITEBACK_DATA, core, 64, 2, 0x100 * (core + 1),
                dirty=True, data_block=blob,
            )
            for core, blob in zip((0, 1, 2), blobs)
        ]
        packets = [h.fabric.inject_from_core(msg, 0) for msg in msgs]
        h.run(800)
        assert [m.data_block for _, _, m in h.mc_rx] == blobs
        assert [decode(h.sunk[p.pid], 64) for p in packets] == msgs

    def test_hub_round_robin_across_cores(self, topo8):
        h = make_harness(topo8, 128)
        for core in (3, 1, 2, 0):
            h.fabric.inject_from_core(
                CoherenceMessage(MsgType.GETS, core, 64, 0, 0x40 * (core + 1)), 0
            )
        h.run(400)
        # Fair hub arbitration drains the four queues in core-id rotation.
        assert [m.requester_id for _, _, m in h.mc_rx] == [0, 1, 2, 3]

    def test_boundary_egress_holds_two_beats(self, topo8):
        """The hub stops sending once two beats wait at the boundary and
        resumes when the boundary releases one toward the SNI."""
        h = make_harness(topo8, 64)
        h.fabric.inject_from_core(CoherenceMessage(
            MsgType.WRITEBACK_DATA, 0, 64, 2, 0x40, dirty=True,
            data_block=bytes(64)), 0)
        boundary = h.fabric.boundaries[0]
        seen = []  # (beats in egress, flits pending, egress_space())
        for tick in range(10):
            h.run(tick + 1, start=tick)
            seen.append(
                (len(boundary.egress), len(boundary.pending), boundary.egress_space())
            )
        # Tick 4: beat 1 splits into two 64-bit flits, one enters the SNI
        # and the hub refills the egress; tick 8: the second flit enters.
        assert seen == [
            (1, 0, True), (2, 0, False), (2, 0, False), (2, 0, False),
            (2, 1, False), (2, 1, False), (2, 1, False), (2, 1, False),
            (2, 0, False), (2, 0, False),
        ]

    def test_backpressure_with_shallow_vcs(self, topo8):
        h = make_harness(topo8, 64, vc_depth=1)
        for core in range(16):
            h.fabric.inject_from_core(
                CoherenceMessage(
                    MsgType.WRITEBACK_DATA, core, 65, 2, 0x40 + 0x40 * core,
                    dirty=True, data_block=bytes([core] * 64),
                ),
                0,
            )
        h.run(4000)
        assert len(h.mc_rx) == 16
        ledger = h.fabric.ledger()
        assert ledger["balanced"]
        assert ledger["packets_delivered"] == 16
        assert ledger["packets_in_flight"] == 0
        assert ledger["flits_delivered"] == ledger["flits_injected"]

    def test_balanced_at_every_tick(self, topo8):
        """Data each way and a loopback: at every tick, the live packets
        are exactly those that some buffer holds."""
        h = make_harness(topo8, 64)
        block = bytes(range(64))
        h.fabric.inject_from_core(CoherenceMessage(
            MsgType.WRITEBACK_DATA, 9, 66, 2, 0x1234C0, dirty=True,
            data_block=block), 0)
        h.fabric.inject_from_core(CoherenceMessage(
            MsgType.DATA, 1, 3, 2, 0x40, data_block=block), 0)
        h.fabric.inject_from_mc(CoherenceMessage(
            MsgType.MEMORY_DATA, 64, 42, 2, 0x80, cur_owner=8,
            data_block=block), 0, 0)
        in_flight = []
        for tick in range(100):
            h.run(tick + 1, start=tick)
            ledger = h.fabric.ledger()
            assert ledger["balanced"], tick
            in_flight.append(ledger["packets_in_flight"])
        assert in_flight[0] == 3 and in_flight[-1] == 0

    def test_packet_lost_from_a_router_buffer_unbalances(self, topo8):
        h = make_harness(topo8, 128)
        packet = h.fabric.inject_from_core(
            CoherenceMessage(MsgType.GETS, 9, 66, 0, 0x1234C0), 0
        )
        h.run(18)  # the single flit waits in a mesh router
        queues = [q for r in h.fabric.routers.values()
                  for q in r.buffers.values() if q]
        assert [p for q in queues for _, p in q] == [packet]
        assert h.fabric.ledger()["balanced"]
        queues[0].clear()
        ledger = h.fabric.ledger()
        assert ledger["packets_in_flight"] == 1 and not ledger["balanced"]

    def test_delivery_that_skips_the_fabric_unbalances(self, topo8):
        h = make_harness(topo8, 128)
        ni = h.fabric.mc_nis[2]
        ni.deliver = lambda packet, tick: h._deliver_mc(2, packet, tick)
        h.fabric.inject_from_core(
            CoherenceMessage(MsgType.GETS, 9, 66, 0, 0x1234C0), 0
        )
        h.run(100)
        assert len(h.mc_rx) == 1
        ledger = h.fabric.ledger()
        assert ledger["packets_in_flight"] == 1 and not ledger["balanced"]

    def test_latency_stamps_and_clock_domains(self, topo8):
        h = make_harness(topo8, 128)
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0x40)
        packet = h.fabric.inject_from_core(msg, 0)
        h.run(200)
        assert packet.inject_tick == 0
        # Mesh entry happens on an interposer cycle boundary, after the
        # 2-cycle SNI-1 pipeline.
        assert packet.first_grant_tick % CLOCK_RATIO == 0
        assert packet.first_grant_tick >= 2 * CLOCK_RATIO
        assert packet.deliver_tick > packet.first_grant_tick
        # One grant onto the ingress router, one per mesh link, one for
        # the local delivery.
        assert packet.hops == 2 + topo8.manhattan(
            topo8.chiplet_router(0), topo8.mc_router(0)
        )
        assert packet.sni_delay == 2 and packet.sni_kind == "sni1"

    def test_sni_off_transport_identical_content(self, topo8):
        on = make_harness(topo8, 64, sni_enabled=True)
        off = make_harness(topo8, 64, sni_enabled=False)
        msg = CoherenceMessage(MsgType.GETS, 17, 67, 0, 0x7C0)
        for h in (on, off):
            h.fabric.inject_from_core(msg, 0)
            h.run(300)
        assert [m for _, _, m in on.mc_rx] == [m for _, _, m in off.mc_rx]

    def test_width_ratio(self):
        assert CHIPLET_LINK_BITS == 128
        assert CLOCK_RATIO == 4


class TestEntryVc:
    """The VC a packet takes when its SNI hands it to the local port: the
    next VC of its vnet, round robin per router, chosen on the first
    attempt and kept while the router refuses it."""

    @pytest.mark.parametrize("vc_per_vnet", VC_CHOICES)
    def test_round_robin_per_vnet(self, topo8, vc_per_vnet):
        h = make_harness(topo8, 128, vc_per_vnet=vc_per_vnet)
        acks, wb_acks = [], []
        for i in range(vc_per_vnet + 1):
            acks.append(h.fabric.inject_from_mc(
                CoherenceMessage(MsgType.MEMORY_ACK, 64, i, 2, 0x40 * (i + 1)), 0, 0
            ))
            if i < 3:
                wb_acks.append(h.fabric.inject_from_mc(
                    CoherenceMessage(MsgType.WB_ACK, 64, 8 + i, 1, 0x40 * (i + 1)),
                    0, 0,
                ))
        h.run(400)
        assert len(h.chiplet_rx) == len(acks) + len(wb_acks)
        assert [p.vc for p in acks] == [*range(vc_per_vnet), 0]
        assert [p.vc for p in wb_acks] == [0, 1, 2]

    def test_refused_packet_keeps_its_vc(self, topo8):
        h = make_harness(topo8, 128, vc_per_vnet=4, vc_depth=1)
        fabric = h.fabric
        router = fabric.routers[topo8.mc_router(0)]
        # A body flit at the front of the local port's VC 0 of vnet 2 is
        # never ready to leave, so at depth 1 it fills that VC.
        plug = fabric.new_packet(CoherenceMessage(
            MsgType.MEMORY_DATA, 64, 8, 2, 0x40, cur_owner=8,
            data_block=bytes(64)), 64, 8, 0)
        local_vc0 = (noc._LOCAL_IDX * 4 + 2) * 4
        router.buffers[local_vc0].append((plug.flits[1], plug))
        first, second = (
            fabric.inject_from_mc(
                CoherenceMessage(MsgType.MEMORY_ACK, 64, core, 2, 0x80), 0, 0
            )
            for core in (0, 1)
        )
        h.run(80)
        # Released by SNI-2 and refused on every cycle since.
        assert first.vc == 0 and first.first_grant_tick == -1
        assert second.vc is None
        router.buffers[local_vc0].clear()
        h.run(400, start=80)
        assert first.vc == 0 and first.first_grant_tick >= 80
        assert second.vc == 1
        assert [m.destination_id for _, _, m in h.chiplet_rx] == [0, 1]


def _inject(fabric, kind, tick):
    """One drawn burst of ``count`` packets: cores to the controllers in
    turn, a controller to cores spread over the chiplets, or a
    controller's probes broadcast to a set of chiplets."""
    what, a, b, data, count = kind
    for i in range(count):
        address = 0x40 * (1 + a + 8 * i)
        if what == "core":
            core = (a + i) % 64
            if data:
                msg = CoherenceMessage(
                    MsgType.WRITEBACK_DATA, core, 64 + (b + i) % 4, 2, address,
                    dirty=True, data_block=bytes([core] * 64),
                )
            else:
                msg = CoherenceMessage(MsgType.GETS, core, 64 + (b + i) % 4, 0, address)
            fabric.inject_from_core(msg, tick)
        elif what == "mc":
            core = (b + 9 * i) % 64
            if data:
                msg = CoherenceMessage(
                    MsgType.MEMORY_DATA, 64 + a, core, 2, address, cur_owner=1,
                    data_block=bytes([core] * 64),
                )
            else:
                msg = CoherenceMessage(MsgType.WB_ACK, 64 + a, core, 1, address)
            fabric.inject_from_mc(msg, a, tick)
        else:
            probe = MsgType.PROBE_INV if data else MsgType.PROBE
            msg = CoherenceMessage(probe, 64 + a, 255, 1, address, cur_owner=i)
            for chiplet in range(8):
                if (b >> chiplet) & 1:
                    fabric.inject_from_mc(msg, a, tick, target_chiplet=chiplet)


_INJECTIONS = st.lists(
    st.tuples(
        st.integers(0, 8),  # injection tick
        st.one_of(
            st.tuples(st.just("core"), st.integers(0, 63), st.integers(0, 3),
                      st.booleans(), st.integers(1, 8)),
            st.tuples(st.just("mc"), st.integers(0, 3), st.integers(0, 63),
                      st.booleans(), st.integers(1, 8)),
            st.tuples(st.just("probe"), st.integers(0, 3), st.integers(1, 255),
                      st.booleans(), st.integers(1, 4)),
        ),
    ),
    min_size=8, max_size=32,
)


def _drive(h, injections, check=None):
    """Clock harness ``h`` through the drawn bursts until the mesh has
    drained, calling ``check()`` after every tick."""
    by_tick = {}
    for tick, kind in injections:
        by_tick.setdefault(tick, []).append(kind)
    for tick in range(6000):
        for kind in by_tick.get(tick, ()):
            _inject(h.fabric, kind, tick)
        h.run(tick + 1, start=tick)
        if check is not None:
            check()
        if tick > 60 and not h.fabric.registry:
            break
    assert not h.fabric.registry, "packets still in flight"


def _reference_accept(accept):
    """``ReferenceRouter.accept`` behind the SNI's three-argument hand-off.

    Six arguments are a reference mesh hop and pass straight through.
    Three are the SNI's ``(flit, packet, icycle)``: the hand-off as the
    fabric made it when the reference router was current, with the entry
    VC's round robin per (router, vnet), the head's hop, the first grant
    and the ``sni->`` trace event."""
    entry_vc = {}

    def adapted(router, *args):
        if len(args) == 6:
            return accept(router, *args)
        flit, packet, icycle = args
        tick = icycle * CLOCK_RATIO
        if packet.vc is None:
            rr = entry_vc.get((router.id, packet.vnet), 0)
            packet.vc = rr
            entry_vc[(router.id, packet.vnet)] = (rr + 1) % router.vc_per_vnet
        if not accept(router, noc._LOCAL_IDX, packet.vnet, packet.vc, flit,
                      packet, tick):
            return False
        if flit.position in (noc._HEAD, noc._HEAD_TAIL):
            packet.hops += 1
            if packet.first_grant_tick < 0:
                packet.first_grant_tick = tick
        if router.trace is not None:
            router.trace(tick, packet, flit, f"sni->{router.id}")
        return True

    return adapted


class TestRouterReference:
    """``noc.Router`` against ``ReferenceRouter``, the earlier router that
    sorts and rescans its VCs every cycle: the same flits must cross the
    same links at the same ticks."""

    @staticmethod
    def _run(topo, width, vc_per_vnet, vc_depth, injections, router_cls=None):
        with pytest.MonkeyPatch.context() as mp:
            if router_cls is not None:
                mp.setattr(noc, "Router", router_cls)
                # The fabric steps a router while ``busy`` is non-empty; a
                # reference router has work while a VC holds a flit.
                mp.setattr(router_cls, "busy", property(lambda r: r.occupied),
                           raising=False)
                mp.setattr(router_cls, "accept", _reference_accept(router_cls.accept))
            h = make_harness(topo, width, vc_per_vnet=vc_per_vnet,
                             vc_depth=vc_depth, enable_trace=True)
            _drive(h, injections)
        return h

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.sampled_from((64, 128)),
        vc_per_vnet=st.sampled_from(VC_CHOICES),
        vc_depth=st.sampled_from((1, 2, 4)),
        injections=_INJECTIONS,
    )
    def test_same_trace_as_reference(self, width, vc_per_vnet, vc_depth, injections):
        topo = Topology(n_chiplets=8, cores_per_chiplet=8, n_mcs=4)
        new = self._run(topo, width, vc_per_vnet, vc_depth, injections)
        ref = self._run(topo, width, vc_per_vnet, vc_depth, injections,
                        ReferenceRouter)
        assert {type(r) for r in ref.fabric.routers.values()} == {ReferenceRouter}
        assert {type(r) for r in new.fabric.routers.values()} == {noc.Router}
        assert new.fabric.trace_events == ref.fabric.trace_events
        assert new.mc_rx == ref.mc_rx
        assert new.chiplet_rx == ref.chiplet_rx

    @pytest.mark.parametrize("first", ("data", "control"))
    def test_head_behind_tail_waits_a_cycle(self, topo8, first):
        """Two packets share one VC of chiplet 0's router: the first goes
        east to MC 0, the second north to chiplet 1.  The second head
        reaches the front when the first packet's tail leaves, and moves
        one interposer cycle later, although the north port is arbitrated
        after the east port in the same cycle."""
        h = make_harness(topo8, 128, vc_depth=8, enable_trace=True)
        fabric = h.fabric
        if first == "data":  # its tail leaves through the locked port
            msg = CoherenceMessage(
                MsgType.WRITEBACK_DATA, 0, 64, 2, 0x40, dirty=True,
                data_block=bytes(64),
            )
        else:  # a single HEAD_TAIL flit, granted by the free port
            msg = CoherenceMessage(MsgType.ACK, 0, 64, 2, 0x40)
        ahead = fabric.new_packet(msg, 0, 64, 0)
        behind = fabric.new_packet(
            CoherenceMessage(MsgType.ACK, 0, 8, 2, 0x80), 0, 8, 0
        )
        router = fabric.routers[topo8.chiplet_router(0)]
        for packet in (ahead, behind):
            packet.vc = 0
            for flit in packet.flits:
                assert router.accept(flit, packet, 0)
        h.run(200)
        east = f"{router.id}->{topo8.mc_router(0)}"
        north = f"{router.id}->{topo8.chiplet_router(1)}"
        events = [(t, pid, label) for t, pid, label in fabric.trace_events
                  if label in (east, north)]
        ahead_ticks = {"data": [4, 8, 12, 16, 20], "control": [4]}[first]
        assert events == [
            *((t, ahead.pid, east) for t in ahead_ticks),
            (ahead_ticks[-1] + CLOCK_RATIO, behind.pid, north),
        ]


class TestBusyOutputs:
    """Each router's ``busy`` list, checked after every tick against what
    it stands for: the sorted outputs that hold a lock or a ready head.
    Each ``ready[out]`` is checked against the buffers too: the sorted
    keys whose front flit is a head routed to ``out``."""

    @staticmethod
    def _check(routers):
        for router in routers:
            ready = [[] for _ in range(5)]
            for key, q in sorted(router.buffers.items()):
                if q:
                    flit, packet = q[0]
                    if flit.is_head:
                        ready[router.route_table[packet.dest_router]].append(key)
            assert router.ready == ready, f"router {router.id}"
            assert router.busy == [
                out for out in range(5)
                if router.locks[out] is not None or router.ready[out]
            ], f"router {router.id}"

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.sampled_from((64, 128)),
        vc_per_vnet=st.sampled_from(VC_CHOICES),
        vc_depth=st.sampled_from((1, 2, 4)),
        injections=_INJECTIONS,
    )
    def test_busy_lists_the_outputs_with_work(self, width, vc_per_vnet, vc_depth,
                                              injections):
        topo = Topology(n_chiplets=8, cores_per_chiplet=8, n_mcs=4)
        h = make_harness(topo, width, vc_per_vnet=vc_per_vnet, vc_depth=vc_depth)
        routers = list(h.fabric.routers.values())
        _drive(h, injections, lambda: self._check(routers))
