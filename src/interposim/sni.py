"""Security Network Interfaces: the checker/rewriter at interposer ingress.

Two flavors guard the two kinds of ingress links: SNI-1 on chiplet
links (2-cycle check pipeline) and SNI-2 on memory-controller links
(3-cycle, the third stage covering packet rewriting).  Every verdict is
one of Allow, Rewrite (SNI-2 converting a probe bound for a forbidden
chiplet into a NACK toward the original requester) or Violation, which
halts the whole simulated system with a machine-check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
import json
from typing import NamedTuple

from .apu import ApuTable, Permission
from .messages import (
    BROADCAST_ID,
    MC_NODE_BASE,
    PROBE_TYPES,
    CoherenceMessage,
    MsgType,
    control_flit_count,
    extract_stage,
)
from .topology import Port, Topology

SNI1_LATENCY = 2
SNI2_LATENCY = 3
INPUT_CAPACITY = 24  # flits one SNI holds, judged or waiting to leave


class ThreatClass(Enum):
    PASSIVE_READING = "passive_reading"
    MASQUERADING = "masquerading"
    MODIFYING = "modifying"
    DIVERTING = "diverting"
    MALFORMED = "malformed"


class SniKind(Enum):
    SNI1 = "sni1"
    SNI2 = "sni2"


class VerdictKind(Enum):
    ALLOW = "allow"
    REWRITE = "rewrite"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SniVerdict:
    outcome: VerdictKind
    threat: ThreatClass | None = None
    detail: str = ""
    replacement: CoherenceMessage | None = None

    @classmethod
    def allow(cls) -> "SniVerdict":
        return _ALLOW

    @classmethod
    def rewrite(cls, replacement: CoherenceMessage) -> "SniVerdict":
        return cls(VerdictKind.REWRITE, replacement=replacement)

    @classmethod
    def violation(cls, threat: ThreatClass, detail: str) -> "SniVerdict":
        return cls(VerdictKind.VIOLATION, threat=threat, detail=detail)


_ALLOW = SniVerdict(VerdictKind.ALLOW)


@dataclass(frozen=True)
class SniConfig:
    """One SNI's link: its kind, the router it feeds and the node ids it
    may carry as requesters.  Both kinds check every packet in full,
    memory-controller traffic included.  ``node_kinds`` holds the node
    ids of each kind (cores, memory controllers, the broadcast id) as int
    ranges, indexed like the sender and destination kinds of the
    compiled rules."""

    kind: SniKind
    attached_router: int
    expected_requesters: range
    topo: Topology
    node_kinds: tuple[range, range, range] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        topo = self.topo
        object.__setattr__(self, "node_kinds", (
            range(topo.n_cores),
            range(MC_NODE_BASE, MC_NODE_BASE + topo.n_mcs),
            range(BROADCAST_ID, BROADCAST_ID + 1),
        ))

    @classmethod
    def for_link(cls, kind: SniKind, index: int, topo: Topology) -> "SniConfig":
        """The SNI on chiplet ``index``'s link (SNI-1), which expects that
        chiplet's cores, or on memory controller ``index``'s link (SNI-2),
        which expects the controller's node id."""
        if kind is SniKind.SNI1:
            router = topo.chiplet_router(index)
            requesters = topo.core_range(index)
        else:
            router = topo.mc_router(index)
            node = topo.mc_node(index)
            requesters = range(node, node + 1)
        return cls(kind, router, requesters, topo)

    @property
    def latency(self) -> int:
        return SNI1_LATENCY if self.kind is SniKind.SNI1 else SNI2_LATENCY


# Legal (vnet, sender-kind, destination-kind) per message type.  This is
# the static rule table behind the malformed/diverted checks; see
# docs/message_rules.md for the annotated version.
_MC = "mc"
_CORE = "core"
_BCAST = "broadcast"
LEGAL_ROUTES: dict[int, tuple[int, str, str]] = {
    MsgType.GETX: (0, _CORE, _MC),
    MsgType.GETS: (0, _CORE, _MC),
    MsgType.GET_INSTR: (0, _CORE, _MC),
    MsgType.PUT: (0, _CORE, _MC),
    MsgType.MERGED_GETS: (0, _CORE, _MC),
    MsgType.INV: (0, _CORE, _MC),
    MsgType.PROBE: (1, _MC, _BCAST),
    MsgType.PROBE_INV: (1, _MC, _BCAST),
    MsgType.WB_ACK: (1, _MC, _CORE),
    MsgType.WB_NACK: (1, _MC, _CORE),
    MsgType.ACK: (2, _CORE, _CORE),
    MsgType.SHARED_ACK: (2, _CORE, _CORE),
    MsgType.NACK: (2, _MC, _CORE),
    MsgType.DATA: (2, _CORE, _CORE),
    MsgType.DATA_SHARED: (2, _CORE, _CORE),
    MsgType.DATA_EXCLUSIVE: (2, _CORE, _CORE),
    MsgType.MEMORY_DATA: (2, _MC, _CORE),
    MsgType.MEMORY_ACK: (2, _MC, _CORE),
    MsgType.UNBLOCK_ACK: (2, _MC, _CORE),
    MsgType.WRITEBACK_DATA: (2, _CORE, _MC),
    MsgType.UNBLOCK: (3, _CORE, _MC),
    MsgType.UNBLOCKS: (3, _CORE, _MC),
}

# Region-permission floor required of the requester's chiplet, per type.
PERMISSION_REQUIRED: dict[int, Permission] = {
    MsgType.GETS: Permission.READ_ONLY,
    MsgType.GET_INSTR: Permission.READ_ONLY,
    MsgType.GETX: Permission.READ_WRITE,
    MsgType.PUT: Permission.READ_WRITE,
    MsgType.WRITEBACK_DATA: Permission.READ_WRITE,
}

# Data-carrying responses addressed to cores: the destination chiplet
# must hold at least read permission on the referenced region.
_DATA_TO_CORE = frozenset(
    {MsgType.DATA, MsgType.DATA_SHARED, MsgType.DATA_EXCLUSIVE, MsgType.MEMORY_DATA}
)

_KIND_INDEX = {_CORE: 0, _MC: 1, _BCAST: 2}  # into SniConfig.node_kinds


class _Rule(NamedTuple):
    """LEGAL_ROUTES and PERMISSION_REQUIRED compiled for one type code."""

    vnet: int
    sender: int  # index into SniConfig.node_kinds
    destination: int  # index into SniConfig.node_kinds
    name: str
    required: int  # permission code the requester's chiplet needs, 0 if none
    required_name: str
    threat: ThreatClass  # of a requester lacking ``required``
    data_to_core: bool


def _compile_rule(msg_type: MsgType) -> _Rule:
    vnet, sender, dest = LEGAL_ROUTES[msg_type]
    required = PERMISSION_REQUIRED.get(msg_type, Permission.NO_ACCESS)
    return _Rule(
        vnet, _KIND_INDEX[sender], _KIND_INDEX[dest], msg_type.name,
        required.value, required.name,
        ThreatClass.PASSIVE_READING if required is Permission.READ_ONLY
        else ThreatClass.MODIFYING,
        msg_type in _DATA_TO_CORE,
    )


_RULES = {msg_type: _compile_rule(msg_type) for msg_type in LEGAL_ROUTES}


def pcm_check(msg, cfg: SniConfig, table: ApuTable) -> SniVerdict:
    """Full packet check; every input yields a verdict.

    ``msg`` needs the header fields only (a CoherenceMessage or a
    PartialHeader with the address populated).  The rules come from
    ``_RULES``, the permissions from the table's compiled view: a
    requester's chiplet covers a required code when ``cell & required
    == required``, and may read when ``cell != 0``.
    """
    requester = msg.requester_id

    # (a) requester identity
    if requester not in cfg.expected_requesters:
        return SniVerdict.violation(
            ThreatClass.MASQUERADING,
            f"requester {requester} outside expected range "
            f"{cfg.expected_requesters.start}-{cfg.expected_requesters.stop - 1}",
        )

    # (b) type/vnet legality and (e) address range
    rule = _RULES.get(msg.msg_type)
    if rule is None:
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"undefined message type code {int(msg.msg_type)}"
        )
    vnet, sender, dest, name, required, required_name, threat, data_to_core = rule
    if msg.vnet != vnet:
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"{name} illegal on vnet {msg.vnet}"
        )
    kinds = cfg.node_kinds
    if requester not in kinds[sender]:
        origin = "a core" if sender == 0 else "a memory controller"
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"{name} must originate from {origin}"
        )
    address = msg.address
    if address is None:
        return SniVerdict.violation(ThreatClass.MALFORMED, "address missing")
    view = table.view
    if not 0 <= address < view.limit:
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"address {address:#x} out of range"
        )
    region = address >> view.shift
    cells = view.cells[region]

    # (c) destination legality
    destination = msg.destination_id
    if destination not in kinds[dest]:
        return SniVerdict.violation(
            ThreatClass.DIVERTING, f"destination {destination} illegal for {name}"
        )
    per_chiplet = cfg.topo.cores_per_chiplet
    if data_to_core:
        dest_chiplet = destination // per_chiplet
        if cells[dest_chiplet] == 0:
            return SniVerdict.violation(
                ThreatClass.DIVERTING,
                f"data diverted to chiplet {dest_chiplet} without access to region {region}",
            )

    # (d) region permission of the requester's chiplet
    if required and requester in kinds[0]:
        chiplet = requester // per_chiplet
        if cells[chiplet] & required != required:
            return SniVerdict.violation(
                threat,
                f"{name} from chiplet {chiplet} lacking {required_name} on region {region}",
            )

    return _ALLOW


def sni2_filter(msg, target_chiplet: int, cfg: SniConfig, table: ApuTable) -> SniVerdict:
    """Broadcast snooping filter: probe copies toward no-access chiplets
    become NACKs sent straight back to the original requester."""
    if msg.msg_type not in PROBE_TYPES:
        return _ALLOW
    address = msg.address
    view = table.view
    region = address >> view.shift
    if address < 0 or region >= len(view.cells):
        table.lookup(address)  # raises AddressOutOfRange
    if view.cells[region][target_chiplet]:
        return _ALLOW  # not NO_ACCESS
    replacement = CoherenceMessage(
        msg_type=MsgType.NACK,
        requester_id=cfg.topo.rep_core(target_chiplet),
        destination_id=msg.cur_owner,  # the original requester
        vnet=2,
        address=address,
    )
    return SniVerdict.rewrite(replacement)


@dataclass(frozen=True)
class ViolationRecord:
    """One line of the violation log (any verdict other than Allow)."""

    cycle: int
    router: int
    port: str
    sni_kind: str
    threat: ThreatClass
    detail: str
    message: str
    packet_id: int

    def sort_key(self) -> tuple:
        return (self.router, self.port, self.packet_id)

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "router": self.router,
            "port": self.port,
            "sni": self.sni_kind,
            "threat": self.threat.value,
            "detail": self.detail,
            "message": self.message,
            "packet_id": self.packet_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


_UNJUDGED = 1 << 62  # release cycle of a packet not judged yet


@dataclass
class SniStats:
    checked: int = 0
    allowed: int = 0
    violations: int = 0
    rewrites: int = 0
    filtered_per_chiplet: dict = field(default_factory=dict)


class SniUnit:
    """One SNI instance: a sequential pipeline driven by the interposer clock.

    ``push(packet, cycle)`` says that the next flit of ``packet``
    arrives (at most one per interposer cycle, in link order).
    ``inflight`` holds the packets, front first, never a flit copy; each
    packet counts its flits that have come in (``arrived``) and left
    (``forwarded``) and keeps its ``verdict``, judged ``header`` and
    ``release_cycle`` (``_UNJUDGED`` until the header is in).  Once
    ``header_flits`` have arrived the header is extracted once and
    judged: ``pcm_check`` on every packet, then, on SNI-2 with rewriting
    on, ``sni2_filter`` on a probe copy bound for one chiplet.  The
    packet's head is released exactly ``latency`` cycles later, then
    flits stream out one per cycle into the attached router:
    ``forward(flit, packet, cycle)`` hands one over and returns False if
    the router refuses it, which is tried again on the next cycle.  A
    rewrite puts the replacement packet, whole and allowed, in the
    probe's place with the probe's release cycle.  The unit holds at
    most ``INPUT_CAPACITY`` flits.  When disabled it is a zero-delay wire.
    """

    def __init__(
        self,
        cfg: SniConfig,
        width: int,
        table: ApuTable,
        forward,
        drop_packet=None,
        enabled: bool = True,
        rewrite_enabled: bool = True,
    ):
        self.cfg = cfg
        self.width = width
        self.table = table  # swapped by the harness at privileged updates
        self.forward = forward
        # drop_packet(packet, cycle, replacement=None) retires a discarded
        # packet; given a replacement message, it returns that message's
        # new packet, encoded at this unit's width
        self.drop_packet = drop_packet
        self.enabled = enabled
        self.header_flits = control_flit_count(width)
        self.latency = cfg.latency if enabled else 0
        self.filters_probes = rewrite_enabled and cfg.kind is SniKind.SNI2
        self.kind_name = cfg.kind.value
        self.inflight: deque = deque()  # packets, front first
        self.held = 0
        self.stats = SniStats()

    def can_accept(self) -> bool:
        return self.held < INPUT_CAPACITY

    def push(self, packet, cycle: int) -> None:
        """The next flit of ``packet`` arrives."""
        if packet.dropped:
            return  # the rest of a packet judged a violation
        if packet.arrived == 0:
            packet.release_cycle = _UNJUDGED
            self.inflight.append(packet)
        packet.arrived += 1
        self.held += 1
        if packet.arrived == self.header_flits:
            packet.verdict = self._judge(packet)
            packet.release_cycle = cycle + self.latency

    def _judge(self, packet) -> SniVerdict:
        if not self.enabled:
            return _ALLOW
        self.stats.checked += 1
        fields = packet.header = extract_stage(packet.flits, self.width, self.header_flits)
        table = self.table
        verdict = pcm_check(fields, self.cfg, table)
        if (verdict.outcome is VerdictKind.ALLOW and self.filters_probes
                and packet.target_chiplet is not None):
            verdict = sni2_filter(fields, packet.target_chiplet, self.cfg, table)
        if verdict.outcome is VerdictKind.ALLOW:
            self.stats.allowed += 1
        return verdict

    def _apply_rewrite(self, probe, cycle: int):
        """Drop the front ``probe`` and put its replacement in its place."""
        self.stats.rewrites += 1
        chiplet = probe.target_chiplet
        per = self.stats.filtered_per_chiplet
        per[chiplet] = per.get(chiplet, 0) + 1
        nack = self.drop_packet(probe, cycle, probe.verdict.replacement)
        self.held += nack.flit_total - probe.arrived
        nack.arrived = nack.flit_total
        nack.verdict = _ALLOW
        nack.release_cycle = probe.release_cycle
        self.inflight[0] = nack
        return nack

    def step(self, cycle: int) -> list[ViolationRecord]:
        """Advance one interposer cycle; at most one flit leaves the unit.
        Nothing happens while ``cycle`` is before the front packet's
        ``release_cycle``."""
        violations: list[ViolationRecord] = []
        inflight = self.inflight
        while inflight:
            packet = inflight[0]
            if cycle < packet.release_cycle:
                break
            verdict = packet.verdict
            outcome = verdict.outcome
            if outcome is VerdictKind.VIOLATION:
                violations.append(
                    ViolationRecord(
                        cycle=packet.release_cycle,
                        router=self.cfg.attached_router,
                        port=Port.LOCAL.value,
                        sni_kind=self.kind_name,
                        threat=verdict.threat,
                        detail=verdict.detail,
                        message=_render_fields(packet.header),
                        packet_id=packet.pid,
                    )
                )
                self.stats.violations += 1
                self.held -= packet.arrived
                self.drop_packet(packet, cycle)
                inflight.popleft()
                continue
            if outcome is VerdictKind.REWRITE:
                packet = self._apply_rewrite(packet, cycle)
            sent = packet.forwarded
            if sent < packet.arrived and self.forward(packet.flits[sent], packet, cycle):
                packet.forwarded = sent + 1
                self.held -= 1
                if sent + 1 == packet.flit_total:
                    inflight.popleft()
            break
        return violations


def _render_fields(fields) -> str:
    msg_type = fields.msg_type
    try:
        name = MsgType(msg_type).name
    except ValueError:
        name = f"UNDEFINED_{msg_type}"
    addr = f"{fields.address:#x}" if fields.address is not None else "?"
    return (
        f"{name} req={fields.requester_id} dst={fields.destination_id}"
        f" vnet={fields.vnet} addr={addr} owner={fields.cur_owner}"
        f" dirty={int(fields.dirty)}"
    )
