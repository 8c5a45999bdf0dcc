"""Codec tests: bit layout, segmentation, round-trips, golden vectors."""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from interposim.messages import (
    ADDRESS_LIMIT,
    CONTROL_BITS,
    DATA_BITS,
    DATA_BLOCK_BYTES,
    DATA_CARRYING_TYPES,
    LINK_WIDTHS,
    CoherenceMessage,
    EncodingError,
    Flit,
    FlitPosition,
    MalformedStreamError,
    MessageClass,
    MsgType,
    PartialHeader,
    classify,
    control_flit_count,
    data_flit_count,
    decode,
    encode,
    extract_stage,
    flit_count,
    pack_header,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_vectors.txt"


def golden_line(msg: CoherenceMessage, width: int) -> str:
    """One golden-vector record: width, hex flit payloads, canonical text."""
    flits = encode(msg, width)
    hex_digits = width // 4
    payloads = ",".join(f"{f.payload:0{hex_digits}x}" for f in flits)
    return f"w{width} | {payloads} | {msg.canonical_text()}"


def _random_message(rng: random.Random) -> CoherenceMessage:
    msg_type = rng.choice(list(MsgType) + [28, 29, 30, 31])
    data = None
    if msg_type in DATA_CARRYING_TYPES:
        data = bytes(rng.getrandbits(8) for _ in range(DATA_BLOCK_BYTES))
    return CoherenceMessage(
        msg_type=msg_type,
        requester_id=rng.randrange(256),
        destination_id=rng.randrange(256),
        vnet=rng.randrange(4),
        address=rng.randrange(ADDRESS_LIMIT),
        cur_owner=rng.randrange(256),
        dirty=bool(rng.getrandbits(1)),
        data_block=data,
    )


class TestLayout:
    def test_wire_constants(self):
        assert CONTROL_BITS == 128
        assert DATA_BITS == 512
        assert DATA_BLOCK_BYTES == 64
        assert LINK_WIDTHS == (64, 128)

    def test_control_flit_counts(self):
        assert control_flit_count(128) == 1
        assert control_flit_count(64) == 2

    def test_data_flit_counts(self):
        assert data_flit_count(128) == 4
        assert data_flit_count(64) == 8

    def test_total_flit_counts(self):
        assert flit_count(MsgType.GETS, 128) == 1
        assert flit_count(MsgType.GETS, 64) == 2
        assert flit_count(MsgType.MEMORY_DATA, 128) == 5
        assert flit_count(MsgType.MEMORY_DATA, 64) == 10

    def test_header_field_offsets(self):
        msg = CoherenceMessage(
            MsgType.DATA, 0xA5, 0x3C, 2, 0, cur_owner=0x7E, dirty=True,
            data_block=bytes(64),
        )
        word = pack_header(msg)
        assert word & 0x1F == int(MsgType.DATA)
        assert (word >> 5) & 0xFF == 0xA5
        assert (word >> 13) & 0xFF == 0x3C
        assert (word >> 21) & 0x3 == 2
        assert (word >> 23) & 0xFF == 0x7E
        assert (word >> 31) & 0x1 == 1
        head = extract_stage([Flit(word, 64, FlitPosition.HEAD)], 64, 1)
        assert head == PartialHeader(
            msg_type=int(MsgType.DATA),
            requester_id=0xA5,
            destination_id=0x3C,
            vnet=2,
            cur_owner=0x7E,
            dirty=True,
            address=None,
        )

    def test_classify(self):
        assert classify(MsgType.GETS) is MessageClass.REQUEST
        assert classify(MsgType.ACK) is MessageClass.CONTROL_RESPONSE
        assert classify(MsgType.MEMORY_DATA) is MessageClass.DATA_RESPONSE
        assert classify(30) is None


class TestRoundTrip:
    @pytest.mark.parametrize("width", LINK_WIDTHS)
    def test_seeded_corpus(self, width):
        rng = random.Random(f"codec-corpus-{width}")
        for _ in range(300):
            msg = _random_message(rng)
            flits = encode(msg, width)
            assert len(flits) == flit_count(msg.msg_type, width)
            assert all(f.width == width for f in flits)
            got = decode(flits, width)
            assert int(got.msg_type) == int(msg.msg_type)
            assert (
                got.requester_id, got.destination_id, got.vnet, got.address,
                got.cur_owner, got.dirty, got.data_block,
            ) == (
                msg.requester_id, msg.destination_id, msg.vnet, msg.address,
                msg.cur_owner, msg.dirty, msg.data_block,
            )

    @given(
        msg_type=st.sampled_from(sorted(MsgType, key=int)),
        requester=st.integers(0, 255),
        destination=st.integers(0, 255),
        vnet=st.integers(0, 3),
        address=st.integers(0, (1 << 64) - 1),
        cur_owner=st.integers(0, 255),
        dirty=st.booleans(),
        data=st.binary(min_size=64, max_size=64),
        width=st.sampled_from(LINK_WIDTHS),
    )
    def test_roundtrip_property(
        self, msg_type, requester, destination, vnet, address, cur_owner,
        dirty, data, width,
    ):
        msg = CoherenceMessage(
            msg_type, requester, destination, vnet, address, cur_owner, dirty,
            data if msg_type in DATA_CARRYING_TYPES else None,
        )
        assert decode(encode(msg, width), width) == msg

    def test_undefined_code_survives(self):
        msg = CoherenceMessage(30, 1, 64, 0, 0x40)
        got = decode(encode(msg, 64), 64)
        assert got.msg_type == 30
        assert got.type_name == "UNDEFINED_30"

    def test_flit_positions(self):
        control = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0)
        assert [f.position for f in encode(control, 128)] == [FlitPosition.HEAD_TAIL]
        assert [f.position for f in encode(control, 64)] == [
            FlitPosition.HEAD, FlitPosition.TAIL,
        ]
        data = CoherenceMessage(
            MsgType.DATA, 0, 1, 2, 0, data_block=bytes(64)
        )
        positions = [f.position for f in encode(data, 128)]
        assert positions[0] is FlitPosition.HEAD
        assert positions[-1] is FlitPosition.TAIL
        assert all(p is FlitPosition.BODY for p in positions[1:-1])


class TestErrors:
    def test_bad_width(self):
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0)
        with pytest.raises(EncodingError):
            encode(msg, 32)

    def test_field_overflow(self):
        msg = CoherenceMessage(MsgType.GETS, 999, 64, 0, 0)
        with pytest.raises(EncodingError):
            encode(msg, 128)

    def test_data_block_on_control_type(self):
        msg = CoherenceMessage(MsgType.GETS, 0, 64, 0, 0, data_block=bytes(64))
        with pytest.raises(EncodingError):
            encode(msg, 128)

    def test_missing_data_block(self):
        msg = CoherenceMessage(MsgType.DATA, 0, 1, 2, 0)
        with pytest.raises(EncodingError):
            encode(msg, 128)

    def test_decode_empty_stream(self):
        with pytest.raises(MalformedStreamError):
            decode([], 64)

    def test_decode_width_mismatch(self):
        flits = encode(CoherenceMessage(MsgType.GETS, 0, 64, 0, 0), 64)
        with pytest.raises(MalformedStreamError):
            decode(flits, 128)

    def test_decode_truncated(self):
        flits = encode(
            CoherenceMessage(MsgType.DATA, 0, 1, 2, 0, data_block=bytes(64)), 64
        )
        with pytest.raises(MalformedStreamError):
            decode(flits[:-1], 64)

    def test_decode_control_overlong(self):
        flits = encode(CoherenceMessage(MsgType.GETS, 0, 64, 0, 0), 64)
        extra = Flit(0, 64, FlitPosition.TAIL)
        with pytest.raises(MalformedStreamError):
            decode(flits + [extra], 64)


class TestExtractStage:
    def test_width128_single_cycle(self):
        msg = CoherenceMessage(MsgType.GETX, 3, 65, 0, 0x123440, cur_owner=9)
        fields = extract_stage(encode(msg, 128), 128, 1)
        assert fields.msg_type == int(MsgType.GETX)
        assert fields.requester_id == 3
        assert fields.address == 0x123440

    def test_width64_two_cycles(self):
        msg = CoherenceMessage(MsgType.GETX, 3, 65, 0, 0x123440)
        flits = encode(msg, 64)
        first = extract_stage(flits[:1], 64, 1)
        assert first.msg_type == int(MsgType.GETX)
        assert first.address is None
        second = extract_stage(flits, 64, 2)
        assert second.address == 0x123440

    def test_missing_address_flit(self):
        flits = encode(CoherenceMessage(MsgType.GETS, 0, 64, 0, 0), 64)
        with pytest.raises(MalformedStreamError):
            extract_stage(flits[:1], 64, 2)

    def test_bad_cycle(self):
        flits = encode(CoherenceMessage(MsgType.GETS, 0, 64, 0, 0), 128)
        with pytest.raises(ValueError):
            extract_stage(flits, 128, 3)


class TestGoldenVectors:
    def test_vectors_byte_identical(self):
        """Every frozen vector re-encodes to exactly the recorded line."""
        lines = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 36
        for line in lines:
            width_field, payloads, _ = (part.strip() for part in line.split("|"))
            width = int(width_field[1:])
            hex_digits = width // 4
            flits = []
            payload_list = payloads.split(",")
            for i, text in enumerate(payload_list):
                assert len(text) == hex_digits
                if len(payload_list) == 1:
                    pos = FlitPosition.HEAD_TAIL
                elif i == 0:
                    pos = FlitPosition.HEAD
                elif i == len(payload_list) - 1:
                    pos = FlitPosition.TAIL
                else:
                    pos = FlitPosition.BODY
                flits.append(Flit(int(text, 16), width, pos))
            msg = decode(flits, width)
            assert golden_line(msg, width) == line

    def test_vectors_cover_both_widths_and_data(self):
        text = GOLDEN_PATH.read_text(encoding="utf-8")
        assert "w64 |" in text and "w128 |" in text
        assert "UNDEFINED_30" in text
        assert "data=-" in text  # control messages
        assert "MEMORY_DATA" in text  # data-carrying messages


def test_canonical_text_fields():
    msg = CoherenceMessage(MsgType.NACK, 56, 0, 2, 0x1C0, cur_owner=0)
    text = msg.canonical_text()
    assert text.startswith("NACK req=56 dst=0 vnet=2 addr=0x")
    assert "data=-" in text
