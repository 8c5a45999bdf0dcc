"""The SNI rule check as it was before compiled tables, kept as a reference.

``pcm_check`` and ``sni2_filter`` are verbatim copies of the earlier
``sni`` functions: they read the rule tables and ``ApuTable.lookup``
afresh for every packet.  The fuzzer in ``test_sni_fuzz.py`` compares
the whole verdict of the current functions with these.
"""

from interposim.apu import ApuTable, Permission
from interposim.messages import ADDRESS_LIMIT, BROADCAST_ID, CoherenceMessage, MsgType
from interposim.sni import (
    LEGAL_ROUTES,
    PERMISSION_REQUIRED,
    SniConfig,
    SniVerdict,
    ThreatClass,
)

_MC = "mc"
_CORE = "core"

_DATA_TO_CORE = frozenset(
    {MsgType.DATA, MsgType.DATA_SHARED, MsgType.DATA_EXCLUSIVE, MsgType.MEMORY_DATA}
)


def pcm_check(msg, cfg: SniConfig, table: ApuTable) -> SniVerdict:
    """Full packet check; every input yields a verdict.

    ``msg`` needs the header fields only (a CoherenceMessage or a
    PartialHeader with the address populated).
    """
    topo = cfg.topo

    # (a) requester identity
    if msg.requester_id not in cfg.expected_requesters:
        return SniVerdict.violation(
            ThreatClass.MASQUERADING,
            f"requester {msg.requester_id} outside expected range "
            f"{cfg.expected_requesters.start}-{cfg.expected_requesters.stop - 1}",
        )

    # (b) type/vnet legality and (e) address range
    rule = LEGAL_ROUTES.get(msg.msg_type)
    if rule is None:
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"undefined message type code {int(msg.msg_type)}"
        )
    vnet, sender_kind, dest_kind = rule
    if msg.vnet != vnet:
        return SniVerdict.violation(
            ThreatClass.MALFORMED,
            f"{MsgType(msg.msg_type).name} illegal on vnet {msg.vnet}",
        )
    requester_is_core = topo.is_core(msg.requester_id)
    if sender_kind == _CORE and not requester_is_core:
        return SniVerdict.violation(
            ThreatClass.MALFORMED,
            f"{MsgType(msg.msg_type).name} must originate from a core",
        )
    if sender_kind == _MC and not topo.is_mc(msg.requester_id):
        return SniVerdict.violation(
            ThreatClass.MALFORMED,
            f"{MsgType(msg.msg_type).name} must originate from a memory controller",
        )
    if msg.address is None:
        return SniVerdict.violation(ThreatClass.MALFORMED, "address missing")
    if not 0 <= msg.address < min(ADDRESS_LIMIT, table.address_limit):
        return SniVerdict.violation(
            ThreatClass.MALFORMED, f"address {msg.address:#x} out of range"
        )

    region, entry = table.lookup(msg.address)

    # (c) destination legality
    if dest_kind == _MC:
        dest_ok = topo.is_mc(msg.destination_id)
    elif dest_kind == _CORE:
        dest_ok = topo.is_core(msg.destination_id)
    else:
        dest_ok = msg.destination_id == BROADCAST_ID
    if not dest_ok:
        return SniVerdict.violation(
            ThreatClass.DIVERTING,
            f"destination {msg.destination_id} illegal for {MsgType(msg.msg_type).name}",
        )
    if msg.msg_type in _DATA_TO_CORE:
        dest_chiplet = topo.chiplet_of_core(msg.destination_id)
        if not entry.permission_of(dest_chiplet).allows_read:
            return SniVerdict.violation(
                ThreatClass.DIVERTING,
                f"data diverted to chiplet {dest_chiplet} without access to region {region}",
            )

    # (d) region permission of the requester's chiplet
    required = PERMISSION_REQUIRED.get(msg.msg_type)
    if required is not None and requester_is_core:
        chiplet = topo.chiplet_of_core(msg.requester_id)
        if not entry.permission_of(chiplet).covers(required):
            threat = (
                ThreatClass.PASSIVE_READING
                if required is Permission.READ_ONLY
                else ThreatClass.MODIFYING
            )
            return SniVerdict.violation(
                threat,
                f"{MsgType(msg.msg_type).name} from chiplet {chiplet} lacking "
                f"{required.name} on region {region}",
            )

    return SniVerdict.allow()


def sni2_filter(msg, target_chiplet: int, cfg: SniConfig, table: ApuTable) -> SniVerdict:
    """Broadcast snooping filter: probe copies toward no-access chiplets
    become NACKs sent straight back to the original requester."""
    if msg.msg_type not in (MsgType.PROBE, MsgType.PROBE_INV):
        return SniVerdict.allow()
    _, entry = table.lookup(msg.address)
    if entry.permission_of(target_chiplet) is not Permission.NO_ACCESS:
        return SniVerdict.allow()
    original_requester = msg.cur_owner
    replacement = CoherenceMessage(
        msg_type=MsgType.NACK,
        requester_id=cfg.topo.rep_core(target_chiplet),
        destination_id=original_requester,
        vnet=2,
        address=msg.address,
    )
    return SniVerdict.rewrite(replacement)
