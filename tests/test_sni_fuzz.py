"""Differential fuzzing of the SNI rule check.

Hypothesis draws raw header words (any 5-bit type code, undefined ones
included; any requester, destination, vnet and owner), addresses in and
out of range or missing, permission tables of 1 to 64 regions covering
at most 4 GiB, machines of every legal shape and both SNI kinds.  Each
header goes through ``extract_stage`` as the SNI sees it, and then:

* ``pcm_check`` and ``sni2_filter`` must give the whole verdict of the
  earlier functions kept in ``reference_sni.py``: outcome, threat,
  detail, replacement and new destination, or raise the same error;
* an oracle written from ``docs/message_rules.md``, which shares no
  rule table with ``sni``, must agree on the outcome and threat class.

End to end, one drawn message is injected through an ``AttackScenario``
into an idle desk-scale system with a drawn table: the run must halt as
``security``, with the oracle's threat class and no leaked delivery,
exactly when the oracle calls the header illegal.

Counterexamples found by the fuzzer are kept below as regular tests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference_sni
from interposim import presets
from interposim.apu import (
    CHIPLET_SLOTS,
    AddressOutOfRange,
    ApuEntry,
    ApuTable,
    Permission,
)
from interposim.attacks import AttackScenario
from interposim.harness import Simulator
from interposim.messages import (
    DATA_CARRYING_TYPES,
    CoherenceMessage,
    Flit,
    FlitPosition,
    MsgType,
    control_flit_count,
    extract_stage,
)
from interposim.sni import (
    SniConfig,
    SniKind,
    ThreatClass,
    VerdictKind,
    pcm_check,
    sni2_filter,
)
from interposim.topology import Topology
from interposim.workloads import WorkloadSpec

ALLOW = VerdictKind.ALLOW
REWRITE = VerdictKind.REWRITE
VIOLATION = VerdictKind.VIOLATION

# docs/message_rules.md, "Route table": vnet, sender kind, destination kind.
DOC_ROUTES = {
    MsgType.GETX: (0, "core", "MC"),
    MsgType.GETS: (0, "core", "MC"),
    MsgType.GET_INSTR: (0, "core", "MC"),
    MsgType.PUT: (0, "core", "MC"),
    MsgType.MERGED_GETS: (0, "core", "MC"),
    MsgType.INV: (0, "core", "MC"),
    MsgType.PROBE: (1, "MC", "broadcast"),
    MsgType.PROBE_INV: (1, "MC", "broadcast"),
    MsgType.WB_ACK: (1, "MC", "core"),
    MsgType.WB_NACK: (1, "MC", "core"),
    MsgType.ACK: (2, "core", "core"),
    MsgType.SHARED_ACK: (2, "core", "core"),
    MsgType.NACK: (2, "MC", "core"),
    MsgType.DATA: (2, "core", "core"),
    MsgType.DATA_SHARED: (2, "core", "core"),
    MsgType.DATA_EXCLUSIVE: (2, "core", "core"),
    MsgType.MEMORY_DATA: (2, "MC", "core"),
    MsgType.MEMORY_ACK: (2, "MC", "core"),
    MsgType.UNBLOCK_ACK: (2, "MC", "core"),
    MsgType.WRITEBACK_DATA: (2, "core", "MC"),
    MsgType.UNBLOCK: (3, "core", "MC"),
    MsgType.UNBLOCKS: (3, "core", "MC"),
}
# "Requester permission": read floor and read-write floor.
DOC_READ_FLOOR = {MsgType.GETS, MsgType.GET_INSTR}
DOC_WRITE_FLOOR = {MsgType.GETX, MsgType.PUT, MsgType.WRITEBACK_DATA}
# "data-carrying responses headed for a core"
DOC_DATA_TO_CORE = {
    MsgType.DATA, MsgType.DATA_SHARED, MsgType.DATA_EXCLUSIVE, MsgType.MEMORY_DATA,
}
DOC_PROBES = {MsgType.PROBE, MsgType.PROBE_INV}
FOUR_GIB = 1 << 32
BROADCAST = 255
MC_BASE = 64


def _cell(table: ApuTable, address: int, chiplet: int) -> Permission:
    return table.entries[address >> table.region_shift].perms[chiplet]


def oracle_check(h, kind: SniKind, index: int, topo: Topology, table: ApuTable):
    """(outcome, threat) of the ingress check, from the documented order."""
    cpc = topo.cores_per_chiplet

    def kind_of(node: int) -> str:
        if 0 <= node < topo.n_chiplets * cpc:
            return "core"
        if MC_BASE <= node < MC_BASE + topo.n_mcs:
            return "MC"
        if node == BROADCAST:
            return "broadcast"
        return "other"

    # 1. requester identity behind the physical link
    if kind is SniKind.SNI1:
        identity_ok = index * cpc <= h.requester_id < (index + 1) * cpc
    else:
        identity_ok = h.requester_id == MC_BASE + index
    if not identity_ok:
        return VIOLATION, ThreatClass.MASQUERADING
    # 2. defined type, its vnet, its sender kind
    route = DOC_ROUTES.get(h.msg_type)
    if route is None:
        return VIOLATION, ThreatClass.MALFORMED
    vnet, sender, dest = route
    if h.vnet != vnet or kind_of(h.requester_id) != sender:
        return VIOLATION, ThreatClass.MALFORMED
    # 3. address present and inside the region-mapped range
    limit = min(FOUR_GIB, table.n_regions << table.region_shift)
    if h.address is None or not 0 <= h.address < limit:
        return VIOLATION, ThreatClass.MALFORMED
    # 4. destination kind; data to a core needs read access there
    if kind_of(h.destination_id) != dest:
        return VIOLATION, ThreatClass.DIVERTING
    if h.msg_type in DOC_DATA_TO_CORE:
        if _cell(table, h.address, h.destination_id // cpc) is Permission.NO_ACCESS:
            return VIOLATION, ThreatClass.DIVERTING
    # 5. the requester chiplet's floor on the region
    if kind_of(h.requester_id) == "core":
        have = _cell(table, h.address, h.requester_id // cpc)
        if h.msg_type in DOC_READ_FLOOR and have is Permission.NO_ACCESS:
            return VIOLATION, ThreatClass.PASSIVE_READING
        if h.msg_type in DOC_WRITE_FLOOR and have is not Permission.READ_WRITE:
            return VIOLATION, ThreatClass.MODIFYING
    return ALLOW, None


def oracle_filter(h, target: int, topo: Topology, table: ApuTable):
    """(outcome, replacement) of SNI-2's probe filter."""
    if h.msg_type not in DOC_PROBES:
        return ALLOW, None
    if _cell(table, h.address, target) is not Permission.NO_ACCESS:
        return ALLOW, None
    nack = CoherenceMessage(
        MsgType.NACK, target * topo.cores_per_chiplet, h.cur_owner, 2, h.address
    )
    return REWRITE, nack


@st.composite
def topologies(draw) -> Topology:
    n_chiplets = draw(st.integers(1, 8))
    cores = draw(st.integers(1, 64 // n_chiplets))
    return Topology(n_chiplets, cores, draw(st.integers(1, 4)))


@st.composite
def tables(draw) -> ApuTable:
    n_regions = draw(st.integers(1, 64))
    # n_regions << shift stays within 4 GiB
    shift = draw(st.integers(0, 32 - (n_regions - 1).bit_length()))
    # one base-3 digit per chiplet slot: a whole entry per draw
    codes = draw(st.lists(st.integers(0, 3**CHIPLET_SLOTS - 1),
                          min_size=n_regions, max_size=n_regions))
    perms = list(Permission)
    return ApuTable(tuple(
        ApuEntry(tuple(perms[code // 3**slot % 3] for slot in range(CHIPLET_SLOTS)))
        for code in codes
    ), shift)


@st.composite
def cases(draw, likely_types=tuple(sorted(DOC_ROUTES))):
    """(header as the SNI extracts it, SniConfig, table, target chiplet)."""
    topo = draw(topologies())
    table = draw(tables())
    kind = draw(st.sampled_from(SniKind))
    count = topo.n_chiplets if kind is SniKind.SNI1 else topo.n_mcs
    index = draw(st.integers(0, count - 1))
    cfg = SniConfig.for_link(kind, index, topo)
    # Any value of each field, but mostly one that passes the earlier
    # checks, so that every check in the order is reached.
    def mostly(likely, anything):
        return draw(anything if draw(st.integers(0, 3)) == 0 else likely)

    msg_type = mostly(st.sampled_from(likely_types), st.integers(0, 31))
    route = DOC_ROUTES.get(msg_type, (0, "core", "MC"))
    destinations = {
        "core": st.integers(0, topo.n_cores - 1),
        "MC": st.integers(MC_BASE, MC_BASE + topo.n_mcs - 1),
        "broadcast": st.just(BROADCAST),
    }
    fields = (
        msg_type,
        mostly(st.sampled_from(cfg.expected_requesters), st.integers(0, 255)),
        mostly(destinations[route[2]], st.integers(0, 255)),
        mostly(st.just(route[0]), st.integers(0, 3)),
        draw(st.integers(0, 255)),  # current owner
        draw(st.integers(0, 1)),  # dirty
    )
    head = (
        fields[0] | fields[1] << 5 | fields[2] << 13 | fields[3] << 21
        | fields[4] << 23 | fields[5] << 31 | draw(st.integers(0, 2**32 - 1)) << 32
    )
    address = mostly(st.integers(0, table.address_limit - 1), st.one_of(
        st.none(), st.integers(0, FOUR_GIB - 1), st.integers(0, 2**64 - 1),
    ))
    if address is None:
        # The head flit alone at width 64: the address is still to come.
        stream, width, cycle = [Flit(head, 64, FlitPosition.HEAD)], 64, 1
    else:
        width = draw(st.sampled_from((64, 128)))
        cycle = control_flit_count(width)
        if width == 128:
            stream = [Flit(head | address << 64, 128, FlitPosition.HEAD)]
        else:
            stream = [Flit(head, 64, FlitPosition.HEAD),
                      Flit(address, 64, FlitPosition.BODY)]
    header = extract_stage(stream, width, cycle)
    assert (
        header.msg_type, header.requester_id, header.destination_id,
        header.vnet, header.cur_owner, header.dirty,
    ) == (*fields[:5], bool(fields[5]))
    assert header.address == address
    target = draw(st.integers(0, topo.n_chiplets - 1))
    return header, cfg, table, target


def _outcome(fn, *args):
    """The verdict, or the type of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type with the reference
        return type(exc)


@settings(max_examples=1000, deadline=None)
@given(cases())
def test_pcm_check_matches_reference_and_rules(case):
    header, cfg, table, _ = case
    verdict = pcm_check(header, cfg, table)
    assert verdict == reference_sni.pcm_check(header, cfg, table)
    index = (cfg.expected_requesters.start // cfg.topo.cores_per_chiplet
             if cfg.kind is SniKind.SNI1 else cfg.expected_requesters.start - MC_BASE)
    expected = oracle_check(header, cfg.kind, index, cfg.topo, table)
    assert (verdict.outcome, verdict.threat) == expected


@settings(max_examples=1000, deadline=None)
@given(cases(likely_types=tuple(sorted(DOC_PROBES))))
def test_sni2_filter_matches_reference_and_rules(case):
    header, cfg, table, target = case
    got = _outcome(sni2_filter, header, target, cfg, table)
    assert got == _outcome(reference_sni.sni2_filter, header, target, cfg, table)
    if not isinstance(got, type) and header.address is not None:
        assert (got.outcome, got.replacement) == oracle_filter(
            header, target, cfg.topo, table
        )


@st.composite
def injections(draw):
    """(config, scenario): one drawn message on a core's link of an idle
    desk-scale system with a drawn table.  The destination is never a
    core of the source's own chiplet, whose hub would loop the packet
    back before it reaches an SNI."""
    base = presets.desk_scale(seed=0)
    topo = base.topology()
    table = draw(tables())
    src_core = draw(st.integers(0, topo.n_cores - 1))
    own = topo.core_range(topo.chiplet_of_core(src_core))

    def mostly(likely, anything):
        return draw(anything if draw(st.integers(0, 3)) == 0 else likely)

    msg_type = mostly(st.sampled_from(sorted(DOC_ROUTES)), st.integers(0, 31))
    route = DOC_ROUTES.get(msg_type, (0, "core", "MC"))
    destinations = {
        "core": st.sampled_from([c for c in range(topo.n_cores) if c not in own]),
        "MC": st.integers(MC_BASE, MC_BASE + topo.n_mcs - 1),
        "broadcast": st.just(BROADCAST),
    }
    msg = CoherenceMessage(
        msg_type,
        mostly(st.sampled_from(own), st.integers(0, 255)),
        mostly(destinations[route[2]],
               st.integers(0, 255).filter(lambda node: node not in own)),
        mostly(st.just(route[0]), st.integers(0, 3)),
        mostly(st.integers(0, table.address_limit - 1), st.integers(0, 2**64 - 1)),
        cur_owner=draw(st.integers(0, 255)),
        dirty=draw(st.booleans()),
        data_block=bytes(64) if msg_type in DATA_CARRYING_TYPES else None,
    )
    cfg = replace(base, permissions=table, workload=WorkloadSpec(kind="idle"))
    # The scenario's expected threat plays no part in the run.
    scenario = AttackScenario("drawn", ThreatClass.MALFORMED, src_core,
                              draw(st.integers(0, 80)), msg)
    return replace(cfg, attacks=(scenario,)), scenario


@settings(max_examples=50, deadline=None)
@given(injections())
def test_injected_header_halts_exactly_when_illegal(injection):
    cfg, scenario = injection
    topo = cfg.topology()
    outcome, threat = oracle_check(
        scenario.msg, SniKind.SNI1, topo.chiplet_of_core(scenario.src_core), topo,
        cfg.permissions,
    )
    sim = Simulator(cfg)
    report = sim.run()
    if outcome is VIOLATION:
        assert report.halt_cause == "security"
        assert report.violations[0]["threat"] == threat.value
        assert sim.leaked_deliveries == 0
    else:
        assert report.violations == []


def _header(msg_type, requester, destination, vnet, address, owner=0):
    head = msg_type | requester << 5 | destination << 13 | vnet << 21 | owner << 23
    return extract_stage([Flit(head | address << 64, 128, FlitPosition.HEAD)], 128, 1)


class TestCounterexamples:
    """Cases at the edges of the compiled tables, checked by the same
    three judges as the fuzzer."""

    @staticmethod
    def _judge(header, cfg, table, index):
        verdict = pcm_check(header, cfg, table)
        assert verdict == reference_sni.pcm_check(header, cfg, table)
        assert (verdict.outcome, verdict.threat) == oracle_check(
            header, cfg.kind, index, cfg.topo, table
        )
        return verdict

    def test_address_at_the_table_limit(self):
        topo = Topology(2, 2, 2)
        table = ApuTable.uniform(Permission.READ_WRITE, n_regions=3, region_shift=10)
        cfg = SniConfig.for_link(SniKind.SNI1, 0, topo)
        last = self._judge(_header(MsgType.GETS, 0, 64, 0, 3 * 1024 - 1), cfg, table, 0)
        assert last.outcome is ALLOW
        past = self._judge(_header(MsgType.GETS, 0, 64, 0, 3 * 1024), cfg, table, 0)
        assert past.detail == "address 0xc00 out of range"

    def test_whole_address_space_in_one_region(self):
        topo = Topology(1, 1, 1)
        table = ApuTable.uniform(Permission.READ_ONLY, n_regions=1, region_shift=32)
        cfg = SniConfig.for_link(SniKind.SNI1, 0, topo)
        verdict = self._judge(_header(MsgType.GETX, 0, 64, 0, FOUR_GIB - 1), cfg, table, 0)
        assert verdict.threat is ThreatClass.MODIFYING
        assert verdict.detail == "GETX from chiplet 0 lacking READ_WRITE on region 0"

    def test_data_to_a_core_of_a_locked_out_chiplet(self):
        topo = Topology(3, 5, 1)
        entry = ApuEntry((Permission.READ_WRITE, Permission.READ_WRITE,
                          Permission.NO_ACCESS) + (Permission.NO_ACCESS,) * 5)
        table = ApuTable((entry,) * 4, 8)
        cfg = SniConfig.for_link(SniKind.SNI1, 1, topo)
        verdict = self._judge(_header(MsgType.DATA, 5, 14, 2, 0x2FF), cfg, table, 1)
        assert verdict.detail == (
            "data diverted to chiplet 2 without access to region 2"
        )

    def test_undefined_type_from_the_controller(self):
        topo = Topology(8, 8, 4)
        cfg = SniConfig.for_link(SniKind.SNI2, 3, topo)
        table = ApuTable.uniform(Permission.READ_WRITE)
        verdict = self._judge(_header(31, 67, 0, 2, 0x40), cfg, table, 3)
        assert verdict.detail == "undefined message type code 31"

    def test_filter_raises_beyond_the_table(self):
        topo = Topology(2, 2, 2)
        table = ApuTable.uniform(Permission.NO_ACCESS, n_regions=2, region_shift=6)
        cfg = SniConfig.for_link(SniKind.SNI2, 0, topo)
        probe = _header(MsgType.PROBE, 64, BROADCAST, 1, 128, owner=1)
        with pytest.raises(AddressOutOfRange, match="outside protected range"):
            reference_sni.sni2_filter(probe, 1, cfg, table)
        with pytest.raises(AddressOutOfRange, match="outside protected range"):
            sni2_filter(probe, 1, cfg, table)
        inside = _header(MsgType.PROBE, 64, BROADCAST, 1, 127, owner=1)
        assert sni2_filter(inside, 1, cfg, table) == reference_sni.sni2_filter(
            inside, 1, cfg, table
        )
