"""Checker tests: rule classification, precedence, filter rewrite, pipeline."""

import json

import pytest

from interposim.apu import ApuEntry, ApuTable, Permission
from interposim.messages import (
    BROADCAST_ID,
    CoherenceMessage,
    MsgType,
    encode,
)
from interposim.noc import Packet
from interposim.sni import (
    INPUT_CAPACITY,
    SNI1_LATENCY,
    SNI2_LATENCY,
    SniConfig,
    SniKind,
    SniUnit,
    SniVerdict,
    ThreatClass,
    VerdictKind,
    ViolationRecord,
    pcm_check,
    sni2_filter,
)
from interposim.topology import Topology

RW = Permission.READ_WRITE
RO = Permission.READ_ONLY
NA = Permission.NO_ACCESS


def mixed_table() -> ApuTable:
    """Chiplet 0: RW region 0, RO region 1, NA region 2; all-RW elsewhere."""
    entries = [ApuEntry.uniform(RW) for _ in range(64)]
    entries[1] = ApuEntry(tuple([RO] + [RW] * 7))
    entries[2] = ApuEntry(tuple([NA] + [RW] * 7))
    entries[3] = ApuEntry(tuple([RW] + [NA] * 7))
    return ApuTable(tuple(entries))


def sni1_cfg(topo: Topology, chiplet: int = 0) -> SniConfig:
    return SniConfig.for_link(SniKind.SNI1, chiplet, topo)


def sni2_cfg(topo: Topology, mc: int = 0) -> SniConfig:
    return SniConfig.for_link(SniKind.SNI2, mc, topo)


def test_for_link_derives_router_and_requesters(topo8):
    sni1 = SniConfig.for_link(SniKind.SNI1, 5, topo8)
    assert (sni1.attached_router, sni1.expected_requesters) == (
        topo8.chiplet_router(5), range(40, 48)
    )
    assert sni1.latency == SNI1_LATENCY
    sni2 = SniConfig.for_link(SniKind.SNI2, 2, topo8)
    assert (sni2.attached_router, sni2.expected_requesters) == (
        topo8.mc_router(2), range(66, 67)
    )
    assert sni2.latency == SNI2_LATENCY


REGION1 = 1 << 26
REGION2 = 2 << 26
REGION3 = 3 << 26


class TestClassification:
    """One rule family per threat class, plus the legal baseline."""

    def test_legal_request_allowed(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 3, 64, 0, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.outcome is VerdictKind.ALLOW

    def test_masquerading_requester_outside_link(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 12, 64, 0, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MASQUERADING

    def test_passive_reading_denied_region(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 0, 64, 0, REGION2),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.PASSIVE_READING

    def test_modifying_readonly_region(self, topo8):
        for mtype in (MsgType.GETX, MsgType.PUT):
            verdict = pcm_check(
                CoherenceMessage(mtype, 0, 64, 0, REGION1),
                sni1_cfg(topo8), mixed_table(),
            )
            assert verdict.threat is ThreatClass.MODIFYING

    def test_diverting_data_to_locked_out_chiplet(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(
                MsgType.DATA, 0, topo8.rep_core(4), 2, REGION3,
                dirty=True, data_block=bytes(64),
            ),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.DIVERTING

    def test_diverting_request_to_core(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 0, 12, 0, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.DIVERTING

    def test_malformed_undefined_type(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(30, 0, 64, 0, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MALFORMED

    def test_malformed_wrong_vnet(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 0, 64, 2, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MALFORMED

    def test_malformed_probe_from_core(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.PROBE, 0, BROADCAST_ID, 1, 0x40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MALFORMED

    def test_malformed_address_out_of_range(self, topo8):
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 0, 64, 0, 1 << 33),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MALFORMED

    def test_identity_precedes_everything(self, topo8):
        # Wrong requester AND undefined type AND junk address: the
        # identity check wins.
        verdict = pcm_check(
            CoherenceMessage(31, 40, 7, 3, 1 << 40),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MASQUERADING

    def test_shape_precedes_permission(self, topo8):
        # Denied region on the wrong vnet: reported as malformed, not
        # as a permission violation.
        verdict = pcm_check(
            CoherenceMessage(MsgType.GETS, 0, 64, 1, REGION2),
            sni1_cfg(topo8), mixed_table(),
        )
        assert verdict.threat is ThreatClass.MALFORMED

    def test_sni2_expects_controller_identity(self, topo8):
        cfg = sni2_cfg(topo8, mc=0)
        ok = pcm_check(
            CoherenceMessage(MsgType.MEMORY_ACK, 64, 5, 2, 0x40),
            cfg, mixed_table(),
        )
        assert ok.outcome is VerdictKind.ALLOW
        bad = pcm_check(
            CoherenceMessage(MsgType.MEMORY_ACK, 65, 5, 2, 0x40),
            cfg, mixed_table(),
        )
        assert bad.threat is ThreatClass.MASQUERADING


class TestSni2Filter:
    def test_probe_to_locked_out_chiplet_becomes_nack(self, topo8):
        cfg = sni2_cfg(topo8)
        probe = CoherenceMessage(
            MsgType.PROBE, 64, BROADCAST_ID, 1, REGION3, cur_owner=5
        )
        verdict = sni2_filter(probe, 4, cfg, mixed_table())
        assert verdict.outcome is VerdictKind.REWRITE
        nack = verdict.replacement
        assert nack.msg_type is MsgType.NACK
        assert nack.requester_id == topo8.rep_core(4)
        assert nack.destination_id == 5  # the original requester
        assert nack.vnet == 2
        assert nack.address == REGION3

    def test_probe_to_permitted_chiplet_passes(self, topo8):
        probe = CoherenceMessage(
            MsgType.PROBE, 64, BROADCAST_ID, 1, REGION3, cur_owner=5
        )
        verdict = sni2_filter(probe, 0, sni2_cfg(topo8), mixed_table())
        assert verdict.outcome is VerdictKind.ALLOW

    def test_non_probe_untouched(self, topo8):
        msg = CoherenceMessage(MsgType.MEMORY_ACK, 64, 5, 2, REGION3)
        verdict = sni2_filter(msg, 4, sni2_cfg(topo8), mixed_table())
        assert verdict.outcome is VerdictKind.ALLOW


class _Harness:
    """Drives one SniUnit with a scripted flit stream."""

    def __init__(self, topo, cfg, width, enabled=True, table=None):
        self.table = table or ApuTable.uniform(RW)
        self.out = []  # (cycle, flit, packet)
        self.cycle = 0
        self.unit = SniUnit(
            cfg, width,
            table=self.table,
            forward=self._forward,
            drop_packet=self._drop,
            enabled=enabled,
        )
        self.topo = topo
        self._next_pid = 100

    def _forward(self, flit, packet, cycle):
        self.out.append((self.cycle, flit, packet))
        return True

    def _drop(self, dropped, cycle, msg=None):
        """Retire ``dropped``, as the fabric does; a rewrite's NACK comes
        back as a new packet."""
        dropped.dropped = True
        if msg is None:
            return None
        packet = Packet(self._next_pid, msg, msg.requester_id, 0)
        self._next_pid += 1
        packet.flits = encode(msg, self.unit.width)
        packet.flit_total = len(packet.flits)
        return packet

    def make_packet(self, msg, width, target_chiplet=None):
        packet = Packet(1, msg, msg.requester_id, 0, target_chiplet)
        packet.flits = encode(msg, width)
        packet.flit_total = len(packet.flits)
        return packet

    def run(self, packet, cycles):
        """Push one flit per cycle, stepping the unit every cycle."""
        violations = []
        pushed = 0
        for _ in range(cycles):
            if pushed < len(packet.flits) and self.unit.can_accept():
                self.unit.push(packet, self.cycle)
                pushed += 1
            violations.extend(self.unit.step(self.cycle))
            self.cycle += 1
        return violations


class TestPipeline:
    def test_sni1_head_released_after_two_cycles(self, topo8):
        h = _Harness(topo8, sni1_cfg(topo8), 64)
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0x40)
        packet = h.make_packet(msg, 64)
        h.run(packet, 10)
        # final header flit arrives at cycle 1; head leaves at cycle 3.
        head_cycle = h.out[0][0]
        assert head_cycle == 1 + SNI1_LATENCY
        assert packet.sni_delay == SNI1_LATENCY
        assert packet.sni_kind == "sni1"
        assert [f.payload for _, f, _ in h.out] == [f.payload for f in packet.flits]

    def test_sni2_head_released_after_three_cycles(self, topo8):
        h = _Harness(topo8, sni2_cfg(topo8), 128)
        msg = CoherenceMessage(
            MsgType.MEMORY_DATA, 64, 5, 2, 0x40, cur_owner=1,
            data_block=bytes(64),
        )
        packet = h.make_packet(msg, 128)
        h.run(packet, 12)
        assert h.out[0][0] == 0 + SNI2_LATENCY
        assert packet.sni_delay == SNI2_LATENCY
        assert len(h.out) == 5  # all five flits streamed out

    def test_disabled_unit_is_a_wire(self, topo8):
        h = _Harness(topo8, sni1_cfg(topo8), 64, enabled=False)
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0x40)
        packet = h.make_packet(msg, 64)
        h.run(packet, 6)
        assert h.out[0][0] == 1  # released the cycle the header completes
        assert h.unit.stats.checked == 0

    def test_violation_drops_and_reports(self, topo8):
        h = _Harness(topo8, sni1_cfg(topo8), 64, table=mixed_table())
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, REGION2)
        packet = h.make_packet(msg, 64)
        violations = h.run(packet, 10)
        assert len(violations) == 1
        assert violations[0].threat is ThreatClass.PASSIVE_READING
        assert violations[0].packet_id == packet.pid
        assert violations[0].detail == (
            "GETS from chiplet 0 lacking READ_ONLY on region 2"
        )
        assert violations[0].message == (
            "GETS req=0 dst=64 vnet=0 addr=0x8000000 owner=0 dirty=0"
        )
        assert packet.dropped
        assert h.out == []
        assert h.unit.stats.violations == 1
        assert h.unit.held == 0

    def test_data_violation_drops_later_flits(self, topo8):
        """A width-64 DATA packet is judged on its first two flits; the
        eight that arrive after the verdict are not held."""
        h = _Harness(topo8, sni1_cfg(topo8), 64, table=mixed_table())
        msg = CoherenceMessage(
            MsgType.DATA, 0, topo8.rep_core(4), 2, REGION3, dirty=True,
            data_block=bytes(64),
        )
        packet = h.make_packet(msg, 64)
        violations = h.run(packet, 20)
        assert [(v.threat, v.cycle) for v in violations] == [
            (ThreatClass.DIVERTING, 1 + SNI1_LATENCY)
        ]
        assert violations[0].message == (
            "DATA req=0 dst=32 vnet=2 addr=0xc000000 owner=0 dirty=1"
        )
        assert packet.dropped
        assert h.out == []
        assert h.unit.held == 0
        assert not h.unit.inflight

    def test_input_capacity(self, topo8):
        """The unit refuses a flit once it holds 24 and accepts again
        after one leaves."""
        h = _Harness(topo8, sni1_cfg(topo8), 64)
        open_gate = False
        h.unit.forward = lambda flit, packet, cycle: open_gate
        msg = CoherenceMessage(
            MsgType.WRITEBACK_DATA, 0, 64, 2, 0x40, dirty=True,
            data_block=bytes(64),
        )
        pushed = 0
        while h.unit.can_accept():
            packet = h.make_packet(msg, 64)  # 10 flits
            for _ in packet.flits:
                if not h.unit.can_accept():
                    break
                h.unit.push(packet, 0)
                pushed += 1
        assert pushed == INPUT_CAPACITY == 24
        assert h.unit.held == 24
        h.unit.step(SNI1_LATENCY + 1)
        assert not h.unit.can_accept()  # the router refused the head
        open_gate = True
        h.unit.step(SNI1_LATENCY + 2)
        assert h.unit.held == 23
        assert h.unit.can_accept()

    def test_rewrite_emits_nack_flits(self, topo8):
        h = _Harness(topo8, sni2_cfg(topo8), 64, table=mixed_table())
        probe = CoherenceMessage(
            MsgType.PROBE, 64, BROADCAST_ID, 1, REGION3, cur_owner=5
        )
        packet = h.make_packet(probe, 64, target_chiplet=4)
        violations = h.run(packet, 12)
        assert violations == []
        assert packet.dropped
        assert h.unit.stats.rewrites == 1
        assert h.unit.stats.filtered_per_chiplet == {4: 1}
        forwarded = [p for _, _, p in h.out]
        nack = forwarded[0]
        assert nack is not packet
        assert nack.msg.msg_type is MsgType.NACK
        assert nack.msg.destination_id == 5
        # The NACK leaves when the probe would have: its SNI delay counts
        # from the probe's final header flit, at cycle 1.
        assert h.out[0][0] == 1 + SNI2_LATENCY
        assert nack.sni_delay == SNI2_LATENCY
        assert nack.sni_kind == "sni2"
        assert forwarded == [nack] * nack.flit_total
        assert h.unit.held == 0
        assert not h.unit.inflight

    def test_one_flit_per_cycle_egress(self, topo8):
        h = _Harness(topo8, sni1_cfg(topo8), 64)
        msg = CoherenceMessage(
            MsgType.WRITEBACK_DATA, 0, 64, 2, 0x40, dirty=True,
            data_block=bytes(range(64)),
        )
        packet = h.make_packet(msg, 64)
        h.run(packet, 20)
        cycles = [c for c, _, _ in h.out]
        assert len(cycles) == 10
        assert all(b - a >= 1 for a, b in zip(cycles, cycles[1:]))


def test_violation_record_json_round_trips():
    record = ViolationRecord(
        cycle=12, router=80, port="L", sni_kind="sni2",
        threat=ThreatClass.DIVERTING, detail="d", message="m", packet_id=3,
    )
    loaded = json.loads(record.to_json())
    assert record.to_dict() == loaded
    assert loaded["threat"] == "diverting"
    assert loaded["router"] == 80
    assert record.sort_key() == (80, "L", 3)


def test_verdict_constructors():
    assert SniVerdict.allow().outcome is VerdictKind.ALLOW
    assert SniVerdict.allow() is SniVerdict.allow()
    v = SniVerdict.violation(ThreatClass.MALFORMED, "x")
    assert v.outcome is VerdictKind.VIOLATION and v.detail == "x"
