"""ONFI wire transport: chips as out-of-process device servers.

The host/tester split of the paper's §6.1 made literal: a
:class:`ChipServer` owns one :class:`~repro.nand.chip.FlashChip` and
serves the binary frame protocol of :mod:`repro.onfi.wire`; a
:class:`RemoteChip` client exposes the same batch API as the in-process
chip — bit-identically — over a socket, socketpair or pipe, so the
fleet and hiding layers run unchanged against remote silicon.  See
DESIGN.md §13 for the frame layout, the opcode table, status-byte
semantics and pipelining rules.
"""

from .client import MAX_OUTSTANDING, RemoteChip
from .server import (
    ChipServer,
    ServerHandle,
    serve_listener,
    serve_socket,
    serve_stream,
    spawn_chip_server,
)
from .wire import (
    ERROR_KINDS,
    FLAG_PARTIAL,
    FLAG_THRESHOLD,
    FLAG_TRACE,
    HEADER,
    HELLO_FLAGS_MASK,
    HELLO_OBS,
    HELLO_TRACE,
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

__all__ = [
    "ChipServer",
    "ERROR_KINDS",
    "FLAG_PARTIAL",
    "FLAG_THRESHOLD",
    "FLAG_TRACE",
    "Field",
    "FrameReader",
    "HELLO_FLAGS_MASK",
    "HELLO_OBS",
    "HELLO_TRACE",
    "HEADER",
    "MAX_OUTSTANDING",
    "MAX_PAYLOAD",
    "MIN_LENGTH",
    "Op",
    "RemoteChip",
    "ServerHandle",
    "decode_error",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
    "error_kind",
    "serve_listener",
    "serve_socket",
    "serve_stream",
    "spawn_chip_server",
    "write_frame",
]
