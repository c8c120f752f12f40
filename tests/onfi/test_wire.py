"""Framing and the opcode-table codec: symmetry, bounds, defined failures."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.errors import (
    AddressError,
    CommandError,
    NandError,
    ProgramError,
)
from repro.onfi import (
    FLAG_PARTIAL,
    FLAG_THRESHOLD,
    FLAG_TRACE,
    MAX_PAYLOAD,
    MIN_LENGTH,
    Field,
    FrameReader,
    Op,
    decode_error,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
    error_kind,
    write_frame,
)

#: Page width for codec-level tests (any width works; small is fast).
COLS = 16

SETTINGS = dict(max_examples=25, deadline=None)


def frame(opcode, flags, tag, payload=b""):
    out = io.BytesIO()
    write_frame(out, opcode, flags, tag, [payload])
    return out.getvalue()


def read_one(data: bytes):
    return FrameReader(io.BytesIO(data)).read_frame()


def joined(chunks) -> bytearray:
    """Encoded chunks as one writable buffer, as a FrameReader yields."""
    return bytearray(b"".join(chunks))


def test_frame_round_trip():
    opcode, flags, tag, payload = read_one(
        frame(int(Op.READ), 0x02, 0xBEEF, b"payload")
    )
    assert (opcode, flags, tag) == (int(Op.READ), 0x02, 0xBEEF)
    assert bytes(payload) == b"payload"


def test_scatter_write_frames_every_chunk():
    out = io.BytesIO()
    write_frame(out, int(Op.READ), 0, 3, [b"ab", bytearray(b"c"), b"de"])
    assert bytes(read_one(out.getvalue())[3]) == b"abcde"


def test_empty_payload_frame_is_minimal():
    data = frame(int(Op.RESET), 0, 1)
    assert len(data) == 4 + MIN_LENGTH
    opcode, _, _, payload = read_one(data)
    assert opcode == int(Op.RESET) and bytes(payload) == b""


def test_clean_eof_returns_none():
    assert read_one(b"") is None


def test_truncated_header_raises():
    with pytest.raises(CommandError):
        read_one(frame(int(Op.READ), 0, 1)[:5])


def test_truncated_payload_raises():
    with pytest.raises(CommandError):
        read_one(frame(int(Op.READ), 0, 1, b"abcdef")[:-2])


def test_undersized_length_field_raises():
    bad = (MIN_LENGTH - 1).to_bytes(4, "little") + b"\x00\x00\x00\x00"
    with pytest.raises(CommandError):
        read_one(bad)


def test_oversized_length_field_raises():
    bad = (MIN_LENGTH + MAX_PAYLOAD + 1).to_bytes(4, "little")
    bad += b"\x00\x00\x00\x00"
    with pytest.raises(CommandError):
        read_one(bad)


def test_write_frame_rejects_oversized_payload():
    class Huge(bytes):
        def __len__(self):
            return MAX_PAYLOAD + 1

    out = io.BytesIO()
    with pytest.raises(CommandError):
        write_frame(out, 0, 0, 0, [Huge()])
    assert out.getvalue() == b""  # nothing reaches the stream


def test_multiple_frames_stream():
    stream = io.BytesIO(frame(1, 0, 10, b"a") + frame(2, 0, 11, b"bc"))
    reader = FrameReader(stream)
    assert reader.read_frame()[2] == 10
    assert reader.read_frame()[2] == 11
    assert reader.read_frame() is None


# ----------------------------------------------------------------------
# field codecs, through the table rows that use them


def test_scalar_codecs_round_trip():
    values = (-5, 2**62, 2**62 + 1, 4096, 2**64 - 1, 2.5, 3)
    payload = joined(encode_response(Op.HELLO, values))
    assert decode_response(Op.HELLO, payload, COLS) == values


def test_scalar_codecs_raise_on_truncation():
    with pytest.raises(CommandError):
        decode_response(Op.BLOCK_PEC, b"\x00" * 7, COLS)
    with pytest.raises(CommandError):
        decode_response(Op.ADVANCE_TIME, b"\x00" * 4, COLS)
    with pytest.raises(CommandError):
        decode_response(Op.READ_STATUS, b"", COLS)


def test_i64_array_round_trip():
    values = np.array([-1, 0, 7, 2**40], dtype=np.int64)
    _, chunks = encode_request(Op.PROBE_PAGES, (3, values))
    block, pages = decode_request(Op.PROBE_PAGES, 0, joined(chunks), COLS)[1]
    assert block == 3 and np.array_equal(pages, values)


def test_i64_array_rejects_ragged_tail():
    _, chunks = encode_request(Op.PROBE_PAGES, (0, [1]))
    with pytest.raises(CommandError, match="trailing"):
        decode_request(Op.PROBE_PAGES, 0, joined(chunks) + b"\x00", COLS)


def test_i64_count_rejects_negative_and_short():
    def probe(count, n_values):
        payload = np.array(
            [0, count] + list(range(n_values)), dtype=np.int64
        ).tobytes()
        return decode_request(Op.PROBE_PAGES, 0, payload, COLS)[1][1]

    assert list(probe(3, 3)) == [0, 1, 2]
    with pytest.raises(CommandError):
        probe(4, 3)
    with pytest.raises(CommandError):
        probe(-1, 0)


def test_u8_matrix_round_trip_is_writable():
    rows = np.arange(3 * COLS, dtype=np.uint8).reshape(3, COLS)
    (decoded,) = decode_response(
        Op.READ_PAGES, joined(encode_response(Op.READ_PAGES, (rows,))), COLS
    )
    assert np.array_equal(decoded, rows)
    decoded[0, 0] = 99  # zero-copy view over a bytearray stays writable
    assert decoded[0, 0] == 99


def test_u8_matrix_rejects_size_mismatch():
    payload = joined(encode_response(Op.READ_PAGES, (np.zeros((3, COLS)),)))
    with pytest.raises(CommandError):
        decode_response(Op.READ_PAGES, payload[:-1], COLS)
    with pytest.raises(CommandError):
        decode_response(Op.READ_PAGES, payload, COLS + 1)


def test_locations_round_trip_preserves_negatives():
    locations = [(0, 1), (-2, 5), (3, -9)]
    _, chunks = encode_request(Op.PROBE_LOCATIONS, (locations,))
    (decoded,) = decode_request(
        Op.PROBE_LOCATIONS, 0, joined(chunks), COLS
    )[1]
    assert decoded.shape == (3, 2)
    assert [tuple(pair) for pair in decoded.tolist()] == locations


def test_locations_reject_odd_element_count():
    # Two pairs promised, three i64 delivered.
    payload = np.array([2, 0, 1, 2], dtype=np.int64).tobytes()
    with pytest.raises(CommandError):
        decode_request(Op.PROBE_LOCATIONS, 0, payload, COLS)


def test_unhonoured_request_flags_are_rejected():
    _, chunks = encode_request(Op.ERASE, (0,))
    for flags in (FLAG_THRESHOLD, FLAG_PARTIAL, 0x80):
        with pytest.raises(CommandError, match="flags"):
            decode_request(Op.ERASE, flags, joined(chunks), COLS)


# ----------------------------------------------------------------------
# the schema property: every table row round-trips, exactly

i64s = st.integers(-(2**63), 2**63 - 1)
f64s = st.floats(allow_nan=False, width=64)

FIELD_VALUES = {
    Field.I64: i64s,
    Field.U64: st.integers(0, 2**64 - 1),
    Field.F64: f64s,
    Field.U8: st.integers(0, 255),
    Field.OPT_F64: st.none() | f64s,
    Field.I64_ARRAY: st.lists(i64s, max_size=4).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    Field.LOCATIONS: st.lists(st.tuples(i64s, i64s), max_size=4),
    Field.PAGE: st.binary(min_size=COLS, max_size=COLS).map(
        lambda b: np.frombuffer(b, dtype=np.uint8)
    ),
    Field.ROWS: st.integers(0, 3).flatmap(
        lambda n: st.binary(min_size=n * COLS, max_size=n * COLS).map(
            lambda b: np.frombuffer(b, dtype=np.uint8).reshape(n, COLS)
        )
    ),
    Field.BLOB: st.binary(max_size=24),
}


def same(field, sent, got) -> bool:
    if field is Field.LOCATIONS:
        sent = np.asarray(sent, dtype=np.int64).reshape(-1, 2)
    if isinstance(got, np.ndarray):
        return got.shape == np.shape(sent) and np.array_equal(got, sent)
    if field is Field.BLOB:
        return bytes(got) == sent
    return type(got) is type(sent) and got == sent


def assert_exact(fields, sent, got):
    assert len(got) == len(sent)
    for field, a, b in zip(fields, sent, got):
        assert same(field, a, b), (field, a, b)


def assert_prefixes_and_extensions_rejected(decode, payload):
    for cut in range(len(payload)):
        with pytest.raises(CommandError):
            decode(payload[:cut])
    for extra in (b"\x00", b"\xff"):
        with pytest.raises(CommandError):
            decode(payload + extra)


def threshold_prefix(op):
    return (st.none() | f64s,) if op.flags & FLAG_THRESHOLD else ()


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
@given(data=st.data())
@settings(**SETTINGS)
def test_every_op_schema_round_trips(op, data):
    request_strategies = threshold_prefix(op) + tuple(
        FIELD_VALUES[field] for field in op.request
    )
    args = data.draw(st.tuples(*request_strategies), label="args")
    flags, chunks = encode_request(op, args)
    payload = joined(chunks)
    parent, decoded = decode_request(op, flags, payload, COLS)
    assert parent is None
    if op.flags & FLAG_THRESHOLD:
        assert decoded[0] == args[0]
        assert bool(flags & FLAG_THRESHOLD) == (args[0] is not None)
        args, decoded = args[1:], decoded[1:]
    assert_exact(op.request, args, decoded)
    assert_prefixes_and_extensions_rejected(
        lambda p: decode_request(op, flags, p, COLS), payload
    )

    values = data.draw(
        st.tuples(*(FIELD_VALUES[field] for field in op.response)),
        label="response",
    )
    payload = joined(encode_response(op, values))
    assert_exact(op.response, values, decode_response(op, payload, COLS))
    assert_prefixes_and_extensions_rejected(
        lambda p: decode_response(op, p, COLS), payload
    )


@pytest.mark.parametrize(
    "op",
    [op for op in Op if op.flags & FLAG_THRESHOLD],
    ids=lambda op: op.name,
)
@given(
    data=st.data(),
    parent=st.none() | st.text(max_size=12),
    threshold=st.none() | f64s,
)
@settings(**SETTINGS)
def test_trace_and_threshold_prefixes_combine(op, data, parent, threshold):
    args = (threshold,) + data.draw(
        st.tuples(*(FIELD_VALUES[field] for field in op.request))
    )
    flags, chunks = encode_request(op, args, trace_parent=parent)
    assert bool(flags & FLAG_TRACE) == (parent is not None)
    assert bool(flags & FLAG_THRESHOLD) == (threshold is not None)
    payload = joined(chunks)
    got_parent, decoded = decode_request(op, flags, payload, COLS)
    assert got_parent == parent and decoded[0] == threshold
    assert_exact(op.request, args[1:], decoded[1:])
    assert_prefixes_and_extensions_rejected(
        lambda p: decode_request(op, flags, p, COLS), payload
    )


# ----------------------------------------------------------------------
# error payloads


@pytest.mark.parametrize(
    "exc",
    [
        NandError("base"),
        CommandError("bad frame"),
        AddressError("block -1 out of range"),
        ProgramError("page already programmed"),
        ValueError("fraction must be in (0, 2], got 3.0"),
    ],
)
def test_error_codec_preserves_type_and_message(exc):
    decoded = decode_error(encode_error(exc))
    assert type(decoded) is type(exc)
    assert str(decoded) == str(exc)


@pytest.mark.parametrize(
    "exc_type",
    [NandError, *NandError.__subclasses__(), ValueError],
    ids=lambda exc_type: exc_type.__name__,
)
def test_every_chip_error_type_round_trips(exc_type):
    """The kind code is a bijection over every error the chip raises."""
    assert type(decode_error(encode_error(exc_type("m")))) is exc_type


def test_error_kind_uses_most_specific_type():
    class CustomAddress(AddressError):
        pass

    assert error_kind(CustomAddress("x")) == error_kind(AddressError("x"))


def test_decode_error_defined_on_garbage():
    assert isinstance(decode_error(b""), NandError)
    assert isinstance(decode_error(bytes([250]) + b"zz"), NandError)
    decoded = decode_error(bytes([1]) + b"\xff\xfe")  # invalid UTF-8
    assert isinstance(decoded, CommandError)
