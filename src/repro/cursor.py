"""Bounds-checked little-endian byte cursors.

The one reader/writer pair behind both binary codecs in the repo: the
ONFI frame payloads of :mod:`repro.onfi.wire` and the telemetry
snapshots of :mod:`repro.obs.wirefmt`.  It lives outside both packages
because ``repro.obs`` may not import ``repro.onfi``.

Every read checks its bounds and raises :class:`ValueError` on a short
buffer; :meth:`Reader.end` rejects trailing bytes.  Arrays are read as
``np.frombuffer`` views, so a cursor over a ``bytearray`` yields
writable arrays without a copy, and :meth:`Writer.raw` appends a buffer
without copying it, so large arrays reach a scatter write untouched.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple, Union

import numpy as np

Buffer = Union[bytes, bytearray, memoryview]

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class Writer:
    """Accumulates an encoding as a list of chunks.

    ``chunks`` feeds a scatter write; :meth:`getvalue` joins them when
    one ``bytes`` is wanted.  :meth:`raw` appends its buffer uncopied.
    """

    __slots__ = ("chunks",)

    def __init__(self) -> None:
        self.chunks: List[Buffer] = []

    def pack(self, fmt: struct.Struct, *values: Any) -> None:
        """Append `values` packed by one little-endian struct."""
        self.chunks.append(fmt.pack(*values))

    def u8(self, value: int) -> None:
        self.pack(_U8, value)

    def u16(self, value: int) -> None:
        self.pack(_U16, value)

    def u32(self, value: int) -> None:
        self.pack(_U32, value)

    def i64(self, value: int) -> None:
        self.pack(_I64, value)

    def f64(self, value: float) -> None:
        self.pack(_F64, value)

    def raw(self, buffer: Buffer) -> None:
        """Append `buffer` uncopied."""
        if len(buffer):
            self.chunks.append(buffer)

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class Reader:
    """Sequential decoder over one buffer; every read bounds-checks."""

    __slots__ = ("_buffer", "_size", "pos")

    def __init__(self, buffer: Buffer) -> None:
        self._buffer = buffer
        self._size = len(buffer)
        self.pos = 0

    def _advance(self, size: int) -> int:
        """Claim the next `size` bytes; returns their start offset."""
        start = self.pos
        end = start + size
        if size < 0 or end > self._size:
            raise ValueError(
                f"payload truncated: wanted {size} bytes at offset "
                f"{start}, have {self._size}"
            )
        self.pos = end
        return start

    def take(self, size: int) -> memoryview:
        """The next `size` bytes as a view."""
        start = self._advance(size)
        return memoryview(self._buffer)[start:self.pos]

    def unpack(self, fmt: Any) -> Tuple[Any, ...]:
        """The next values of one little-endian ``struct.Struct``."""
        return fmt.unpack_from(self._buffer, self._advance(fmt.size))

    def u8(self) -> int:
        return int(self.unpack(_U8)[0])

    def u16(self) -> int:
        return int(self.unpack(_U16)[0])

    def u32(self) -> int:
        return int(self.unpack(_U32)[0])

    def i64(self) -> int:
        return int(self.unpack(_I64)[0])

    def f64(self) -> float:
        return float(self.unpack(_F64)[0])

    def utf8(self, size: int) -> str:
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"string is not UTF-8: {exc}") from exc

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        """The next `count` items of `dtype` as a zero-copy view."""
        if count < 0:
            raise ValueError(f"negative element count {count}")
        offset = self._advance(count * dtype.itemsize)
        return np.frombuffer(self._buffer, dtype, count, offset)

    def end(self) -> None:
        """Reject trailing bytes: every encoding parses exactly."""
        extra = self._size - self.pos
        if extra:
            raise ValueError(f"{extra} trailing payload bytes")
