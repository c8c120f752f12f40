"""The ONFI wire: frame layout and the one opcode table (DESIGN §13).

One frame = an 8-byte little-endian header plus a payload::

    <u32 length> <u8 opcode> <u8 flags/status> <u16 tag> <payload ...>

``length`` counts every byte *after* the length field (opcode + flags +
tag + payload), so it is at least :data:`MIN_LENGTH`.  The third header
byte is request *flags* on the way in and the real ONFI status byte
(:class:`repro.nand.onfi.Status`) on the way out; a response whose
status has the FAIL bit set carries an error payload (``u8 kind`` +
UTF-8 message) instead of data.  ``tag`` echoes verbatim so a
pipelining client can match responses to requests out of band.

Every opcode's payload layout is declared once, as a row of
:class:`Op`: its request fields, its response fields, the request flags
it honours and whether it rolls the status register.  :func:`encode`
and :func:`decode` walk a row's fields, so the client's packing and the
server's parsing cannot drift apart.  All addresses travel as signed
64-bit integers — negative blocks and pages cross the wire intact and
are rejected by the *server's* chip with exactly the in-process error.
Cell bits and voltages travel as raw ``uint8`` bytes, decoded as
``frombuffer`` views; nothing on this wire is pickled.
"""

from __future__ import annotations

import struct
from enum import Enum, IntEnum, unique
from functools import reduce
from operator import or_
from typing import (
    Any,
    BinaryIO,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..cursor import Buffer, Reader, Writer
from ..nand.errors import (
    AddressError,
    CommandError,
    EraseError,
    NandError,
    ProgramError,
    WearOutError,
)

#: ``<length u32> <opcode u8> <flags/status u8> <tag u16>``, little-endian.
HEADER = struct.Struct("<IBBH")

#: Bytes after the length field that are header, not payload.
MIN_LENGTH = HEADER.size - struct.calcsize("<I")

#: Payload ceiling — bounds server-side allocations against hostile or
#: corrupt length fields (a full location batch on the bench geometry is
#: a few MiB; 64 MiB leaves an order of magnitude of headroom).
MAX_PAYLOAD = 64 << 20

#: Request flag bits, in bit order:
#:
#: * ``FLAG_PARTIAL`` — hold this PROGRAM open so a following RESET can
#:   abort it early (the paper's partial-program sequence, §1/§6.1);
#: * ``FLAG_THRESHOLD`` — the payload starts with an explicit f64 read
#:   threshold (the vendor reference shift, for this operation only);
#: * ``FLAG_TRACE`` — the payload starts with a trace-parent prefix (u16
#:   length + UTF-8 span name) naming the client-side span this frame's
#:   server-side spans stitch under.  Only set when the client negotiated
#:   tracing at HELLO *and* observability is enabled, so with
#:   ``REPRO_OBS=0`` a frame carries zero extra bytes.  The trace prefix
#:   precedes a threshold prefix when both are set.
FLAG_PARTIAL, FLAG_THRESHOLD, FLAG_TRACE = (1 << i for i in range(3))

#: HELLO capability bits, in bit order: the client may issue
#: OBS_COLLECT / OBS_RESET, and may prefix frames with FLAG_TRACE
#: parents.  The client requests a set; the server answers the subset
#: it accepts.
HELLO_BITS = HELLO_OBS, HELLO_TRACE = tuple(1 << i for i in range(2))
HELLO_FLAGS_MASK = reduce(or_, HELLO_BITS)

#: Span names are short dotted paths; a length beyond this is corruption.
MAX_TRACE_PARENT = 1 << 12


class Field(Enum):
    """The kinds a payload field can have (all little-endian)."""

    I64 = "i64"
    U64 = "u64"
    F64 = "f64"
    U8 = "u8"
    #: ``u8`` presence (0/1), then an f64 when present -> float or None.
    OPT_F64 = "opt_f64"
    #: i64 count, then that many i64 -> 1-D int64 array.
    I64_ARRAY = "i64_array"
    #: i64 count, then that many ``(block, page)`` i64 pairs -> (n, 2).
    LOCATIONS = "locations"
    #: ``cells_per_page`` u8 -> one page of bits or voltages.
    PAGE = "page"
    #: i64 count, then that many ``cells_per_page`` u8 rows -> (n, cols).
    ROWS = "rows"
    #: i64 length, then that many opaque bytes (an obs snapshot).
    BLOB = "blob"


I64, U64, F64, U8, OPT_F64, I64_ARRAY, LOCATIONS, PAGE, ROWS, BLOB = Field

_SCALAR_CODES = {I64: "q", U64: "Q", F64: "d", U8: "B"}
_I64_DTYPE = np.dtype("<i8")
_U8_DTYPE = np.dtype("u1")


class Layout(tuple):
    """One payload layout: a tuple of fields, plus the steps the codec
    walks.  A step is ``(struct, n)`` for a run of `n` fixed-width
    scalars packed as one struct, or ``(field, 0)`` for any other field.
    """

    steps: Tuple[Tuple[Any, int], ...]

    def __new__(cls, fields: Sequence[Field]) -> "Layout":
        layout = super().__new__(cls, fields)
        steps: List[Tuple[Any, int]] = []
        for field in fields:
            code = _SCALAR_CODES.get(field)
            if code is None:
                steps.append((field, 0))
            elif steps and isinstance(steps[-1][0], str):
                steps[-1] = (steps[-1][0] + code, steps[-1][1] + 1)
            else:
                steps.append((code, 1))
        layout.steps = tuple(
            (struct.Struct("<" + step), n) if isinstance(step, str)
            else (step, n)
            for step, n in steps
        )
        return layout


@unique
class Op(IntEnum):
    """Wire opcodes, one row each: the command-constant table.

    Single-page operations reuse the ONFI/vendor encodings of
    :class:`repro.nand.onfi.Command`; the coalesced batch operations —
    one frame per location-batch chip call — live in the 0xB0 vendor
    range and the host-side admin operations in 0xA0.

    An op with an empty response is posted (pipelined) by the client.
    An op that honours FLAG_THRESHOLD takes the optional threshold as
    its first argument.  Host-side queries do not roll the register.
    """

    request: Layout
    response: Layout
    #: Request flags this op honours (FLAG_TRACE is honoured by all).
    flags: int
    #: Whether a completed frame rolls the ONFI status register.
    rolls: bool

    def __new__(
        cls,
        code: int,
        request: Tuple[Field, ...],
        response: Tuple[Field, ...] = (),
        flags: int = 0,
        rolls: bool = True,
    ) -> "Op":
        member = int.__new__(cls, code)
        member._value_ = code
        member.request = Layout(request)
        member.response = Layout(response)
        member.flags = flags
        member.rolls = rolls
        return member

    # Columns: code, request fields, response fields, honoured request
    # flags, rolls the status register.
    #
    # -- singles (ONFI / vendor encodings) ---------------------------------
    READ =               0x00, (I64, I64),             (PAGE,), FLAG_THRESHOLD
    ERASE =              0x60, (I64,)
    READ_STATUS =        0x70, (),                     (U8,),   0, False
    PROGRAM =            0x80, (I64, I64, PAGE),       (),      FLAG_PARTIAL
    SET_READ_THRESHOLD = 0xC5, (OPT_F64,)
    PROBE_VOLTAGES =     0xC6, (I64, I64),             (PAGE,)
    RESET =              0xFF, (OPT_F64,)
    # -- coalesced batches (one frame per batch op) ------------------------
    READ_PAGES =         0xB0, (I64, I64_ARRAY),       (ROWS,), FLAG_THRESHOLD
    PROBE_PAGES =        0xB1, (I64, I64_ARRAY),       (ROWS,)
    PROGRAM_PAGES =      0xB2, (I64, I64_ARRAY, ROWS)
    READ_LOCATIONS =     0xB3, (LOCATIONS,),           (ROWS,), FLAG_THRESHOLD
    PROBE_LOCATIONS =    0xB4, (LOCATIONS,),           (ROWS,)
    PROGRAM_LOCATIONS =  0xB5, (LOCATIONS, ROWS)
    # fraction, precision, locations, per-location cell counts, the
    # locations' cell indices concatenated in location order.
    PARTIAL_PROGRAM_LOCATIONS = (
                         0xB6, (F64, F64, LOCATIONS, I64_ARRAY, I64_ARRAY))
    # -- admin -------------------------------------------------------------
    # HELLO requests capability bits and answers (blocks, pages/block,
    # cells/page, bytes/page, seed, clock, accepted capability bits).
    HELLO =              0xA0, (U8,), (I64, I64, I64, I64, U64, F64, U8), 0, False
    ADVANCE_TIME =       0xA1, (F64,),                 (F64,)
    IS_PROGRAMMED =      0xA3, (I64, I64),             (U8,)
    BLOCK_PEC =          0xA4, (I64,),                 (I64,)
    # OBS_COLLECT's u8 request switches on reset-after-snapshot.
    OBS_COLLECT =        0xA5, (U8,),                  (BLOB,), 0, False
    OBS_RESET =          0xA6, (),                     (),      0, False
    SHUTDOWN =           0xAF, (),                     (),      0, False


#: Error payload kinds — ``u8`` codes mapping wire errors back onto the
#: exact exception type the in-process chip raises.
ERROR_KINDS: Tuple[type, ...] = (
    NandError,
    CommandError,
    AddressError,
    ProgramError,
    EraseError,
    WearOutError,
    ValueError,
)
_KIND_BY_TYPE = {exc: code for code, exc in enumerate(ERROR_KINDS)}


def error_kind(exc: BaseException) -> int:
    """The wire code of an exception (most specific type wins)."""
    for klass in type(exc).__mro__:
        code = _KIND_BY_TYPE.get(klass)
        if code is not None:
            return code
    return 0


def encode_error(exc: BaseException) -> bytes:
    """Pack an exception as an error payload (kind + UTF-8 message)."""
    return bytes([error_kind(exc)]) + str(exc).encode("utf-8")


def decode_error(payload: bytes) -> Exception:
    """Rebuild the in-process exception an error payload describes."""
    if not payload:
        return NandError("malformed error frame (empty payload)")
    kind = payload[0]
    message = payload[1:].decode("utf-8", errors="replace")
    if kind >= len(ERROR_KINDS):
        return NandError(message)
    return ERROR_KINDS[kind](message)


# ----------------------------------------------------------------------
# framing


def write_frame(
    wfile: BinaryIO,
    opcode: int,
    flags_or_status: int,
    tag: int,
    chunks: Sequence[Buffer] = (),
) -> None:
    """Write one frame as a header plus the payload's chunks.

    The scatter write keeps multi-megabyte batch payloads out of an
    intermediate concatenated copy; callers flush when the exchange
    needs the frame on the wire.
    """
    size = sum(map(len, chunks))
    if size > MAX_PAYLOAD:
        raise CommandError(
            f"payload of {size} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame cap"
        )
    wfile.write(HEADER.pack(
        MIN_LENGTH + size, opcode & 0xFF, flags_or_status & 0xFF,
        tag & 0xFFFF,
    ))
    for chunk in chunks:
        wfile.write(chunk)


class FrameReader:
    """Incremental frame decoder over a readable binary stream.

    ``read_frame`` returns ``None`` on a clean end-of-stream at a frame
    boundary (the peer hung up between commands) and raises
    :class:`~repro.nand.errors.CommandError` when the stream ends inside
    a frame or the length field is out of bounds — truncation is always
    a *defined* failure, never a hang or a partial decode.
    """

    __slots__ = ("stream",)

    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream

    def _read_exact(self, n: int) -> Optional[bytearray]:
        """Read exactly `n` bytes into a fresh writable buffer.

        Returns ``None`` on immediate EOF (nothing read), raises on a
        short read.  The buffer is a ``bytearray`` so ndarray payloads
        can be viewed writable via ``np.frombuffer`` without a copy;
        ``readinto`` fills it straight from the stream when available.
        """
        buffer = bytearray(n)
        view = memoryview(buffer)
        readinto = getattr(self.stream, "readinto", None)
        got = 0
        while got < n:
            if readinto is not None:
                count = readinto(view[got:])
            else:
                chunk = self.stream.read(n - got)
                count = len(chunk) if chunk else 0
                if count:
                    view[got:got + count] = chunk
            if not count:
                if got == 0:
                    return None
                raise CommandError(
                    f"stream truncated: wanted {n} bytes, got {got}"
                )
            got += count
        return buffer

    def read_frame(self) -> Optional[Tuple[int, int, int, bytearray]]:
        """The next ``(opcode, flags_or_status, tag, payload)`` frame."""
        header = self._read_exact(HEADER.size)
        if header is None:
            return None
        length, opcode, flags, tag = HEADER.unpack(bytes(header))
        if length < MIN_LENGTH:
            raise CommandError(
                f"frame length {length} below the {MIN_LENGTH}-byte "
                f"header minimum"
            )
        if length - MIN_LENGTH > MAX_PAYLOAD:
            raise CommandError(
                f"frame length {length} exceeds the "
                f"{MAX_PAYLOAD}-byte payload cap"
            )
        payload = self._read_exact(length - MIN_LENGTH)
        if payload is None and length > MIN_LENGTH:
            raise CommandError(
                f"stream truncated: frame promised "
                f"{length - MIN_LENGTH} payload bytes, got none"
            )
        return opcode, flags, tag, payload if payload is not None else bytearray()


# ----------------------------------------------------------------------
# payload codec: one walker each way over a row's fields


def _byte_view(array: np.ndarray) -> Buffer:
    """A C-contiguous array's bytes as a flat view (no copy)."""
    return memoryview(array).cast("B") if array.size else b""


_I64 = struct.Struct("<q")
_OPT_ABSENT = b"\x00"
_OPT_PRESENT = struct.Struct("<Bd")


def encode(layout: Layout, values: Sequence[Any], w: Writer) -> None:
    """Append `values`, one per field of `layout`, to `w`."""
    if len(values) != len(layout):
        raise ValueError(
            f"{len(layout)} fields need {len(layout)} values, "
            f"got {len(values)}"
        )
    append = w.chunks.append
    i = 0
    for step, n in layout.steps:
        if n:
            append(step.pack(*values[i:i + n]))
            i += n
            continue
        value = values[i]
        i += 1
        if step is PAGE:
            append(_byte_view(np.ascontiguousarray(value, _U8_DTYPE)))
        elif step is OPT_F64:
            append(
                _OPT_ABSENT if value is None else _OPT_PRESENT.pack(1, value)
            )
        elif step is BLOB:
            append(_I64.pack(len(value)))
            append(value)
        else:
            array = np.ascontiguousarray(
                value, _U8_DTYPE if step is ROWS else _I64_DTYPE
            )
            if step is I64_ARRAY:
                array = array.reshape(-1)
            elif step is LOCATIONS:
                array = array.reshape(-1, 2)
            append(_I64.pack(len(array)))
            append(_byte_view(array))


def decode(layout: Layout, r: Reader, cols: int) -> Tuple[Any, ...]:
    """Read one value per field of `layout`; `r` must then be exhausted.

    `cols` is the page width (``cells_per_page``) of PAGE and ROWS
    fields.  Arrays are zero-copy views of the reader's buffer.  Raises
    :class:`ValueError` on a short or overlong payload.
    """
    values: List[Any] = []
    for step, n in layout.steps:
        if n:
            values.extend(r.unpack(step))
        elif step is PAGE:
            values.append(r.array(_U8_DTYPE, cols))
        elif step is OPT_F64:
            present = r.u8()
            if present > 1:
                raise ValueError(f"optional-field marker {present} not 0/1")
            values.append(r.f64() if present else None)
        elif step is BLOB:
            values.append(r.take(r.i64()))
        else:
            count = r.i64()
            if step is I64_ARRAY:
                values.append(r.array(_I64_DTYPE, count))
            elif step is LOCATIONS:
                values.append(
                    r.array(_I64_DTYPE, 2 * count).reshape(count, 2)
                )
            else:
                values.append(
                    r.array(_U8_DTYPE, count * cols).reshape(count, cols)
                )
    r.end()
    return tuple(values)


def encode_request(
    op: Op,
    args: Sequence[Any],
    flags: int = 0,
    trace_parent: Optional[str] = None,
) -> Tuple[int, List[Buffer]]:
    """A request's ``(flags, payload chunks)``.

    For an op that honours FLAG_THRESHOLD, ``args[0]`` is the optional
    threshold: a number sets the flag and the f64 prefix, ``None``
    leaves both out.  A `trace_parent` sets FLAG_TRACE and its prefix.
    """
    w = Writer()
    if trace_parent is not None:
        raw = trace_parent.encode("utf-8")
        if len(raw) > MAX_TRACE_PARENT:
            raise CommandError(
                f"trace parent of {len(raw)} bytes exceeds the "
                f"{MAX_TRACE_PARENT}-byte cap"
            )
        flags |= FLAG_TRACE
        w.u16(len(raw))
        w.raw(raw)
    if op.flags & FLAG_THRESHOLD:
        threshold, *args = args
        if threshold is not None:
            flags |= FLAG_THRESHOLD
            w.f64(threshold)
    encode(op.request, args, w)
    return flags, w.chunks


def decode_request(
    op: Op, flags: int, payload: Buffer, cols: int
) -> Tuple[Optional[str], Tuple[Any, ...]]:
    """The ``(trace parent, args)`` of a request; inverse of
    :func:`encode_request`.  Any malformation is a CommandError."""
    r = Reader(payload)
    try:
        unknown = flags & ~(op.flags | FLAG_TRACE)
        if unknown:
            raise ValueError(
                f"{op.name} does not take request flags 0x{unknown:02X}"
            )
        parent: Optional[str] = None
        if flags & FLAG_TRACE:
            size = r.u16()
            if size > MAX_TRACE_PARENT:
                raise ValueError(
                    f"trace parent of {size} bytes exceeds the "
                    f"{MAX_TRACE_PARENT}-byte cap"
                )
            parent = bytes(r.take(size)).decode("utf-8", errors="replace")
        prefix: Tuple[Any, ...] = ()
        if op.flags & FLAG_THRESHOLD:
            prefix = (r.f64() if flags & FLAG_THRESHOLD else None,)
        return parent, prefix + decode(op.request, r, cols)
    except ValueError as exc:
        raise CommandError(f"malformed {op.name} request: {exc}") from exc


def encode_response(op: Op, values: Sequence[Any]) -> List[Buffer]:
    """A response's payload chunks."""
    w = Writer()
    encode(op.response, values, w)
    return w.chunks


def decode_response(
    op: Op, payload: Buffer, cols: int
) -> Tuple[Any, ...]:
    """A response's values; any malformation is a CommandError."""
    try:
        return decode(op.response, Reader(payload), cols)
    except ValueError as exc:
        raise CommandError(f"malformed {op.name} response: {exc}") from exc
