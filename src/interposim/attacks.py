"""Attack scenario construction: hostile packets injected at a chiplet link.

Each scenario is one crafted packet pushed onto a compromised core's
network interface, together with the threat class the SNIs are expected
to report.  Scenarios can come from the built-in template suite (one per
threat class) or from a JSON file; docs/file_formats.md describes the
file schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .apu import ApuTable
from .messages import BROADCAST_ID, CoherenceMessage, MsgType
from .sni import ThreatClass
from .topology import Topology

UNDEFINED_TYPE_CODE = 30  # unused 5-bit opcode, survives encoding


class AttackError(Exception):
    pass


@dataclass(frozen=True)
class AttackScenario:
    """One hostile injection and the verdict it should provoke."""

    name: str
    expected_threat: ThreatClass
    src_core: int  # whose chiplet link carries the packet
    trigger_tick: int
    msg: CoherenceMessage


def _region_with(table: ApuTable, chiplet: int, predicate) -> int | None:
    for region, entry in enumerate(table.entries):
        if predicate(entry.permission_of(chiplet)):
            return region
    return None


def _first_line(table: ApuTable, region: int) -> int:
    return region << table.region_shift


def standard_suite(
    topo: Topology, table: ApuTable, src_core: int = 0, trigger_tick: int = 40
) -> list[AttackScenario]:
    """One representative attack per threat class, launched from src_core.

    The table must deny the attacker's chiplet access to at least one
    region (for the reading/writing attacks) and deny some other chiplet
    access to a region the attacker may read (for the diverting attack).
    """
    chiplet = topo.chiplet_of_core(src_core)
    home = topo.mc_node(0)
    denied = _region_with(table, chiplet, lambda p: not p.allows_read)
    readable = _region_with(table, chiplet, lambda p: p.allows_read)
    if denied is None or readable is None:
        raise AttackError(
            "attack suite needs the table to both grant and deny the attacker"
        )
    victim_chiplet = None
    victim_region = None
    for other in range(topo.n_chiplets):
        if other == chiplet:
            continue
        region = _region_with(table, other, lambda p: not p.allows_read)
        if region is not None:
            victim_chiplet, victim_region = other, region
            break
    if victim_chiplet is None:
        raise AttackError("diverting template needs a chiplet denied some region")

    foreign_core = topo.rep_core((chiplet + 1) % topo.n_chiplets)
    legal_addr = _first_line(table, readable)
    denied_addr = _first_line(table, denied)
    victim_addr = _first_line(table, victim_region)
    victim_core = topo.rep_core(victim_chiplet)
    blob = bytes(range(64))

    scenarios = [
        AttackScenario(
            "spoofed-requester", ThreatClass.MASQUERADING, src_core, trigger_tick,
            CoherenceMessage(MsgType.GETS, foreign_core, home, 0, legal_addr),
        ),
        AttackScenario(
            "read-denied-region", ThreatClass.PASSIVE_READING, src_core, trigger_tick,
            CoherenceMessage(MsgType.GETS, src_core, home, 0, denied_addr),
        ),
        AttackScenario(
            "write-denied-region", ThreatClass.MODIFYING, src_core, trigger_tick,
            CoherenceMessage(MsgType.GETX, src_core, home, 0, denied_addr),
        ),
        AttackScenario(
            "divert-data-to-victim", ThreatClass.DIVERTING, src_core, trigger_tick,
            CoherenceMessage(
                MsgType.DATA, src_core, victim_core, 2, victim_addr,
                dirty=True, data_block=blob,
            ),
        ),
        AttackScenario(
            "undefined-opcode", ThreatClass.MALFORMED, src_core, trigger_tick,
            CoherenceMessage(UNDEFINED_TYPE_CODE, src_core, home, 0, legal_addr),
        ),
    ]
    return scenarios


def extra_templates(topo: Topology, table: ApuTable, src_core: int = 0):
    """Additional known-hostile shapes beyond the canonical five."""
    chiplet = topo.chiplet_of_core(src_core)
    readable = _region_with(table, chiplet, lambda p: p.allows_read)
    addr = _first_line(table, readable if readable is not None else 0)
    remote_core = topo.rep_core((chiplet + 1) % topo.n_chiplets)
    return [
        AttackScenario(
            "spoofed-mc-identity", ThreatClass.MASQUERADING, src_core, 40,
            # A table-update attempt dressed up as controller traffic: the
            # claimed requester is outside the link's expected range.
            CoherenceMessage(MsgType.MEMORY_ACK, topo.mc_node(0), remote_core, 2, addr),
        ),
        AttackScenario(
            "probe-from-core", ThreatClass.MALFORMED, src_core, 40,
            CoherenceMessage(MsgType.PROBE, src_core, BROADCAST_ID, 1, addr),
        ),
        AttackScenario(
            "wrong-vnet-request", ThreatClass.MALFORMED, src_core, 40,
            CoherenceMessage(MsgType.GETS, src_core, topo.mc_node(0), 2, addr),
        ),
        AttackScenario(
            "address-overflow", ThreatClass.MALFORMED, src_core, 40,
            CoherenceMessage(
                MsgType.GETS, src_core, topo.mc_node(0), 0, table.address_limit
            ),
        ),
        AttackScenario(
            "request-to-core", ThreatClass.DIVERTING, src_core, 40,
            CoherenceMessage(MsgType.GETS, src_core, remote_core, 0, addr),
        ),
    ]


def load_scenarios(path: str, topo: Topology) -> list[AttackScenario]:
    """Read scenarios from a JSON file (list of objects)."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AttackError(f"attack file {path}: {exc}") from None
    if not isinstance(raw, list):
        raise AttackError("attack file must hold a JSON list")
    scenarios = []
    for i, item in enumerate(raw):
        try:
            code = int(item["msg_type"])
            try:
                code = MsgType(code)  # defined codes get enum semantics
            except ValueError:
                pass
            msg = CoherenceMessage(
                msg_type=code,
                requester_id=int(item["requester"]),
                destination_id=int(item["destination"]),
                vnet=int(item["vnet"]),
                address=int(str(item["address"]), 0),
                cur_owner=int(item.get("cur_owner", 0)),
                dirty=bool(item.get("dirty", False)),
                data_block=bytes.fromhex(item["data"]) if "data" in item else None,
            )
            scenarios.append(
                AttackScenario(
                    name=str(item.get("name", f"scenario-{i}")),
                    expected_threat=ThreatClass(item["expected_threat"]),
                    src_core=int(item["src_core"]),
                    trigger_tick=int(item.get("trigger_tick", 40)),
                    msg=msg,
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise AttackError(f"attack file entry {i}: {exc}") from None
        if not topo.is_core(scenarios[-1].src_core):
            raise AttackError(f"attack file entry {i}: no core {scenarios[-1].src_core}")
        # A message the wire format cannot carry would fail to encode at
        # its trigger tick.
        errors = msg.field_errors()
        if errors:
            raise AttackError(f"attack file entry {i}: {'; '.join(errors)}")
    return scenarios
