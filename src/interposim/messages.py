"""Bit-exact coherence message layout and link-flit segmentation.

A control message always occupies 128 bits on the wire: a 64-bit header
word followed by a 64-bit physical address.  Data-carrying responses
append a 512-bit cache-line payload.  Messages are segmented into flits
of the carrying link's width (64 or 128 bits), low bits first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

LINK_WIDTHS = (64, 128)
CHIPLET_LINK_BITS = 128

HEADER_BITS = 64
ADDRESS_BITS = 64
CONTROL_BITS = HEADER_BITS + ADDRESS_BITS
DATA_BLOCK_BYTES = 64
DATA_BITS = DATA_BLOCK_BYTES * 8

# 4 GiB addressable memory in the baseline system.
ADDRESS_SPACE_BITS = 32
ADDRESS_LIMIT = 1 << ADDRESS_SPACE_BITS

# Reserved node-id marking a directory broadcast destination.
BROADCAST_ID = 255
# Reserved owner-field value meaning "no current owner".
NO_OWNER = 255

MC_NODE_BASE = 64

# Published head-flit bit offsets (field, offset, width), packed in wire
# listing order from bit 0.  The address occupies the following 64 bits.
MSG_TYPE_OFFSET, MSG_TYPE_WIDTH = 0, 5
REQUESTER_OFFSET, REQUESTER_WIDTH = 5, 8
DESTINATION_OFFSET, DESTINATION_WIDTH = 13, 8
VNET_OFFSET, VNET_WIDTH = 21, 2
CUR_OWNER_OFFSET, CUR_OWNER_WIDTH = 23, 8
DIRTY_OFFSET, DIRTY_WIDTH = 31, 1


class MsgType(IntEnum):
    """5-bit message type codes: 10 request types, 12 response types."""

    # Requests (codes 0-9)
    GETX = 0
    GETS = 1
    PUT = 2
    WB_ACK = 3
    WB_NACK = 4
    INV = 5
    GET_INSTR = 6
    MERGED_GETS = 7
    UNBLOCK = 8
    UNBLOCKS = 9
    # Responses (codes 16-27)
    ACK = 16
    SHARED_ACK = 17
    NACK = 18
    DATA = 19
    DATA_SHARED = 20
    DATA_EXCLUSIVE = 21
    MEMORY_DATA = 22
    MEMORY_ACK = 23
    UNBLOCK_ACK = 24
    PROBE = 25
    PROBE_INV = 26
    WRITEBACK_DATA = 27


REQUEST_TYPES = frozenset(
    {
        MsgType.GETX,
        MsgType.GETS,
        MsgType.PUT,
        MsgType.WB_ACK,
        MsgType.WB_NACK,
        MsgType.INV,
        MsgType.GET_INSTR,
        MsgType.MERGED_GETS,
        MsgType.UNBLOCK,
        MsgType.UNBLOCKS,
    }
)
RESPONSE_TYPES = frozenset(set(MsgType) - REQUEST_TYPES)

# Only these response types carry a 64-byte DataBlock.
DATA_CARRYING_TYPES = frozenset(
    {
        MsgType.DATA,
        MsgType.DATA_SHARED,
        MsgType.DATA_EXCLUSIVE,
        MsgType.MEMORY_DATA,
        MsgType.WRITEBACK_DATA,
    }
)

# Directory probes; a probe copy names its target chiplet out of band.
PROBE_TYPES = frozenset({MsgType.PROBE, MsgType.PROBE_INV})


class MessageClass(Enum):
    REQUEST = "request"
    CONTROL_RESPONSE = "control_response"
    DATA_RESPONSE = "data_response"


def classify(msg_type: int) -> MessageClass | None:
    """Message class for a type code; None for undefined codes."""
    if msg_type in REQUEST_TYPES:
        return MessageClass.REQUEST
    if msg_type in DATA_CARRYING_TYPES:
        return MessageClass.DATA_RESPONSE
    if msg_type in RESPONSE_TYPES:
        return MessageClass.CONTROL_RESPONSE
    return None


class CodecError(Exception):
    """Base class for encode/decode failures."""


class EncodingError(CodecError):
    """A message field does not fit its declared bit width."""


class MalformedStreamError(CodecError):
    """A flit stream is short, garbled, or inconsistent with its header."""


@dataclass(frozen=True, init=False)
class CoherenceMessage:
    """One coherence request or response, the unit validated by SNIs.

    ``msg_type`` is the raw 5-bit code; it is normally a :class:`MsgType`
    member but undefined codes are representable so that fabricated
    (malicious) messages survive the codec and reach the checkers.

    ``__init__`` fills the instance dict directly.  The one a frozen
    dataclass generates sets each field through ``object.__setattr__``,
    which costs three times as much, and every packet carries a new
    message.
    """

    msg_type: int
    requester_id: int
    destination_id: int
    vnet: int
    address: int
    cur_owner: int = 0
    dirty: bool = False
    data_block: bytes | None = None

    def __init__(
        self,
        msg_type: int,
        requester_id: int,
        destination_id: int,
        vnet: int,
        address: int,
        cur_owner: int = 0,
        dirty: bool = False,
        data_block: bytes | None = None,
    ):
        fields = self.__dict__
        fields["msg_type"] = msg_type
        fields["requester_id"] = requester_id
        fields["destination_id"] = destination_id
        fields["vnet"] = vnet
        fields["address"] = address
        fields["cur_owner"] = cur_owner
        fields["dirty"] = dirty
        fields["data_block"] = data_block

    def field_errors(self) -> list[str]:
        errors = []
        if not 0 <= self.msg_type < (1 << MSG_TYPE_WIDTH):
            errors.append(f"msg_type {self.msg_type} exceeds 5 bits")
        if not 0 <= self.requester_id < (1 << REQUESTER_WIDTH):
            errors.append(f"requester_id {self.requester_id} exceeds 8 bits")
        if not 0 <= self.destination_id < (1 << DESTINATION_WIDTH):
            errors.append(f"destination_id {self.destination_id} exceeds 8 bits")
        if not 0 <= self.vnet < (1 << VNET_WIDTH):
            errors.append(f"vnet {self.vnet} exceeds 2 bits")
        if not 0 <= self.cur_owner < (1 << CUR_OWNER_WIDTH):
            errors.append(f"cur_owner {self.cur_owner} exceeds 8 bits")
        if not 0 <= self.address < (1 << ADDRESS_BITS):
            errors.append(f"address {self.address:#x} exceeds 64 bits")
        if self.data_block is not None:
            if len(self.data_block) != DATA_BLOCK_BYTES:
                errors.append(
                    f"data_block is {len(self.data_block)} bytes, expected {DATA_BLOCK_BYTES}"
                )
            if self.msg_type not in DATA_CARRYING_TYPES:
                errors.append("control message carries a data_block")
        elif self.msg_type in DATA_CARRYING_TYPES:
            errors.append(f"{self.type_name} requires a 64-byte data_block")
        return errors

    @property
    def type_name(self) -> str:
        try:
            return MsgType(self.msg_type).name
        except ValueError:
            return f"UNDEFINED_{self.msg_type}"

    def canonical_text(self) -> str:
        data = self.data_block.hex() if self.data_block is not None else "-"
        return (
            f"{self.type_name} req={self.requester_id} dst={self.destination_id}"
            f" vnet={self.vnet} addr={self.address:#018x}"
            f" owner={self.cur_owner} dirty={int(self.dirty)} data={data}"
        )


class FlitPosition(Enum):
    HEAD = "H"
    BODY = "B"
    TAIL = "T"
    HEAD_TAIL = "HT"


@dataclass(slots=True)
class Flit:
    """Fixed-width slice of an encoded message.

    ``stamp`` is out-of-band simulator metadata, never part of the
    encoded bits: the last tick this flit moved.
    """

    payload: int
    width: int
    position: FlitPosition
    stamp: int = -1

    @property
    def is_head(self) -> bool:
        return self.position in (FlitPosition.HEAD, FlitPosition.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self.position in (FlitPosition.TAIL, FlitPosition.HEAD_TAIL)


class PartialHeader(NamedTuple):
    """Fields visible to the checker pipeline after each extraction cycle."""

    msg_type: int
    requester_id: int
    destination_id: int
    vnet: int
    cur_owner: int
    dirty: bool
    address: int | None


def _check_width(width: int) -> None:
    if width not in LINK_WIDTHS:
        raise EncodingError(f"link width must be one of {LINK_WIDTHS}, got {width}")


def control_flit_count(width: int) -> int:
    return -(-CONTROL_BITS // width)


def data_flit_count(width: int) -> int:
    return -(-DATA_BITS // width)


def flit_count(msg_type: int, width: int) -> int:
    """Total flits for a message of the given type at the given width."""
    _check_width(width)
    count = control_flit_count(width)
    if msg_type in DATA_CARRYING_TYPES:
        count += data_flit_count(width)
    return count


def pack_header(msg: CoherenceMessage) -> int:
    return (
        (msg.msg_type << MSG_TYPE_OFFSET)
        | (msg.requester_id << REQUESTER_OFFSET)
        | (msg.destination_id << DESTINATION_OFFSET)
        | (msg.vnet << VNET_OFFSET)
        | (msg.cur_owner << CUR_OWNER_OFFSET)
        | (int(msg.dirty) << DIRTY_OFFSET)
    )


# Flit positions per flit count (1 to 10 flits: control or data, 64 or
# 128 bits wide).
_POSITIONS = {1: (FlitPosition.HEAD_TAIL,)} | {
    n: (FlitPosition.HEAD,) + (FlitPosition.BODY,) * (n - 2) + (FlitPosition.TAIL,)
    for n in range(2, -(-(CONTROL_BITS + DATA_BITS) // min(LINK_WIDTHS)) + 1)
}


def encode(msg: CoherenceMessage, width: int) -> list[Flit]:
    """Segment a message into link flits; raises on field overflow."""
    _check_width(width)
    data = msg.data_block
    msg_type = msg.msg_type
    if not (
        0 <= msg_type < (1 << MSG_TYPE_WIDTH)
        and 0 <= msg.requester_id < (1 << REQUESTER_WIDTH)
        and 0 <= msg.destination_id < (1 << DESTINATION_WIDTH)
        and 0 <= msg.vnet < (1 << VNET_WIDTH)
        and 0 <= msg.cur_owner < (1 << CUR_OWNER_WIDTH)
        and 0 <= msg.address < (1 << ADDRESS_BITS)
        and (data is None
             or (len(data) == DATA_BLOCK_BYTES and msg_type in DATA_CARRYING_TYPES))
    ):
        raise EncodingError("; ".join(msg.field_errors()))

    bits = pack_header(msg) | (msg.address << HEADER_BITS)
    if data is None:
        if msg_type in DATA_CARRYING_TYPES:
            raise EncodingError(f"{msg.type_name} requires a 64-byte data_block")
        if width == CONTROL_BITS:
            return [Flit(bits, width, FlitPosition.HEAD_TAIL)]
        total_bits = CONTROL_BITS
    else:
        bits |= int.from_bytes(data, "little") << CONTROL_BITS
        total_bits = CONTROL_BITS + DATA_BITS

    mask = (1 << width) - 1
    return [
        Flit((bits >> (i * width)) & mask, width, pos)
        for i, pos in enumerate(_POSITIONS[-(-total_bits // width)])
    ]


def decode(stream: list[Flit], width: int) -> CoherenceMessage:
    """Inverse of :func:`encode`; bit-exact roundtrip for every valid message."""
    _check_width(width)
    if not stream:
        raise MalformedStreamError("empty flit stream")
    for flit in stream:
        if flit.width != width:
            raise MalformedStreamError(
                f"flit width {flit.width} does not match link width {width}"
            )

    bits = 0
    for i, flit in enumerate(stream):
        bits |= flit.payload << (i * width)

    header = extract_stage(stream, width, 1)
    msg_type = header.msg_type
    expected = control_flit_count(width)
    data: bytes | None = None
    if msg_type in DATA_CARRYING_TYPES:
        expected += data_flit_count(width)
        if len(stream) != expected:
            raise MalformedStreamError(
                f"{MsgType(msg_type).name} stream has {len(stream)} flits, expected {expected}"
            )
        data_bits = bits >> CONTROL_BITS
        data = data_bits.to_bytes(DATA_BLOCK_BYTES, "little")
    elif len(stream) != expected:
        raise MalformedStreamError(
            f"control stream has {len(stream)} flits, expected {expected}"
        )

    try:
        msg_type = MsgType(msg_type)
    except ValueError:
        pass  # undefined code, preserved for the checkers
    address = (bits >> HEADER_BITS) & ((1 << ADDRESS_BITS) - 1)
    return CoherenceMessage(
        msg_type=msg_type,
        requester_id=header.requester_id,
        destination_id=header.destination_id,
        vnet=header.vnet,
        address=address,
        cur_owner=header.cur_owner,
        dirty=header.dirty,
        data_block=data,
    )


_TYPE_MASK = (1 << MSG_TYPE_WIDTH) - 1
_REQUESTER_MASK = (1 << REQUESTER_WIDTH) - 1
_DESTINATION_MASK = (1 << DESTINATION_WIDTH) - 1
_VNET_MASK = (1 << VNET_WIDTH) - 1
_CUR_OWNER_MASK = (1 << CUR_OWNER_WIDTH) - 1
_DIRTY_BIT = 1 << DIRTY_OFFSET


def extract_stage(stream: list[Flit], width: int, cycle: int) -> PartialHeader:
    """Multi-cycle field extraction view consumed by the checker pipeline.

    At width 64 the control parameters come out of the head flit in cycle
    1 and the address out of the second flit in cycle 2; at width 128 a
    single cycle sees everything.
    """
    _check_width(width)
    if cycle not in (1, 2):
        raise ValueError("extraction cycle must be 1 or 2")
    if not stream:
        raise MalformedStreamError("empty flit stream")

    head = stream[0].payload
    address: int | None = None
    if width == 128:
        address = head >> HEADER_BITS
    elif cycle == 2:
        if len(stream) < 2:
            raise MalformedStreamError("address flit missing")
        address = stream[1].payload
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple
    return tuple.__new__(PartialHeader, (
        (head >> MSG_TYPE_OFFSET) & _TYPE_MASK,
        (head >> REQUESTER_OFFSET) & _REQUESTER_MASK,
        (head >> DESTINATION_OFFSET) & _DESTINATION_MASK,
        (head >> VNET_OFFSET) & _VNET_MASK,
        (head >> CUR_OWNER_OFFSET) & _CUR_OWNER_MASK,
        head & _DIRTY_BIT != 0,
        address,
    ))

