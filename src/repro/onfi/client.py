"""RemoteChip: the FlashChip batch API over a wire connection.

The host half of the device-server split.  A :class:`RemoteChip` speaks
the frame protocol of :mod:`repro.onfi.wire` to a
:class:`~repro.onfi.server.ChipServer` and exposes the same surface the
fleet and hiding layers use on an in-process
:class:`~repro.nand.chip.FlashChip` — same batch calls, same results
bit for bit, same error types and messages.

Two properties make the transport cheap and exact:

* **Coalesced batch framing** — every location-batch operation is one
  frame each way, with ndarray payloads shipped as raw bytes (no
  pickling, no per-page round trips), so framing cost amortises over
  the batch.
* **Pipelining** — every op whose table row has an empty response
  (programs, erases, partial programs, threshold sets, resets) is
  posted without waiting;
  responses are matched by echoed tags at the next synchronising call.
  The server executes frames strictly in order, so pipelined and
  synchronous issue orders produce identical chip states.  A posted
  operation's failure surfaces at the next sync point with the original
  exception type and message (earliest failure first).

Client-side validation mirrors only the *pure* checks
(:func:`~repro.nand.chip.check_pages`,
:func:`~repro.nand.chip.check_locations`,
:func:`~repro.nand.chip.as_bits`) — shared module-level code, so the
error text matches in-process exactly; everything stateful is judged by
the real chip on the server.
"""

from __future__ import annotations

import os
import socket
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nand.chip import (
    OpCounters,
    as_bits,
    check_locations,
    check_pages,
    check_pp_rows,
)
from ..nand.errors import CommandError, ProgramError
from ..nand.geometry import ChipGeometry
from ..nand.onfi import Status
from ..nand.params import ChipParams
from ..obs.metrics import ObsSnapshot, is_enabled as _obs_enabled
from ..obs.trace import current_span_name
from ..obs.wirefmt import decode_snapshot
from .wire import (
    FLAG_PARTIAL,
    HELLO_FLAGS_MASK,
    HELLO_TRACE,
    FrameReader,
    Op,
    decode_error,
    decode_response,
    encode_request,
    write_frame,
)

#: Posted (unacknowledged) operations in flight before a forced drain.
#: The server answers each posted frame with an 8-byte ack that the
#: client reads only at the next drain, so the acks of every outstanding
#: op must fit in the server's socket send buffer, or the server blocks
#: writing an ack while the client blocks writing the next frame.  Small
#: as the acks are, AF_UNIX charges each send its full skb truesize: on
#: Linux's default 212,992-byte buffer fewer than 300 of them fit.  The
#: bound sits well below that count (a regression test measures it).
MAX_OUTSTANDING = 128


class RemoteChip:
    """A flash chip living behind a :mod:`repro.onfi` wire connection."""

    def __init__(
        self,
        transport,
        geometry: ChipGeometry,
        params: Optional[ChipParams] = None,
        pipeline: bool = True,
    ) -> None:
        """Connect over `transport` (a socket or an ``(rfile, wfile)``
        stream pair) and verify the served chip matches `geometry`.
        """
        self.geometry = geometry
        self.params = params if params is not None else ChipParams()
        self.pipeline = pipeline
        self._sock: Optional[socket.socket] = None
        if isinstance(transport, socket.socket):
            self._sock = transport
            self._rfile = transport.makefile("rb")
            self._wfile = transport.makefile("wb")
        else:
            self._rfile, self._wfile = transport
        self._reader = FrameReader(self._rfile)
        # The initial tag is random so a desynchronised or replayed
        # stream is detected on the first response (TCP-ISN style).
        # It frames transport bookkeeping only and never reaches the
        # chip, so determinism of results is unaffected.
        self._tag = int.from_bytes(os.urandom(2), "little")  # repro: noqa[DET001] — wire tag seed is transport bookkeeping, never a chip input
        self._outstanding: Deque[Tuple[int, Op]] = deque()
        self._deferred: List[Exception] = []
        self._closed = False
        #: Request frames sent, by opcode — transport accounting only
        #: (tests assert the disabled-obs path adds zero frames).
        self.sent_ops: Dict[int, int] = {}
        #: HELLO-negotiated capability bits from the server.
        self.server_flags = 0
        self._hello()

    # ------------------------------------------------------------------
    # transport plumbing

    def _next_tag(self) -> int:
        self._tag = (self._tag + 1) & 0xFFFF
        return self._tag

    def _read_matching(self, want_tag: int, want_op: Op):
        """Read one response and verify it answers (`want_tag`, op)."""
        frame = self._reader.read_frame()
        if frame is None:
            raise CommandError("server closed the connection mid-exchange")
        opcode, status_byte, tag, payload = frame
        if tag != want_tag or opcode != int(want_op):
            raise CommandError(
                f"response desync: expected tag {want_tag} opcode "
                f"0x{int(want_op):02X}, got tag {tag} opcode 0x{opcode:02X}"
            )
        return Status.from_byte(status_byte), payload

    def _drain_acks(self) -> None:
        """Collect responses for every posted operation, deferring
        failures in arrival (= issue) order."""
        while self._outstanding:
            tag, op = self._outstanding.popleft()
            status, payload = self._read_matching(tag, op)
            if status.failed:
                self._deferred.append(decode_error(bytes(payload)))

    def _raise_deferred(self) -> None:
        if self._deferred:
            error = self._deferred[0]
            self._deferred = []
            raise error

    def _trace_parent(self) -> Optional[str]:
        """The span a request frame names as its server spans' parent.

        Only when the server accepted HELLO_TRACE and observability is
        enabled — otherwise frames carry zero trace bytes, so the wire
        image of a disabled-obs run is byte-identical to one without
        tracing.
        """
        if self.server_flags & HELLO_TRACE and _obs_enabled():
            return current_span_name()
        return None

    def _send(self, op: Op, args: Tuple, flags: int) -> int:
        """Encode and write one request frame; returns its tag."""
        flags, chunks = encode_request(op, args, flags, self._trace_parent())
        tag = self._next_tag()
        self.sent_ops[int(op)] = self.sent_ops.get(int(op), 0) + 1
        write_frame(self._wfile, int(op), flags, tag, chunks)
        return tag

    def _post(self, op: Op, *args, flags: int = 0) -> None:
        """Issue an op with an empty response, pipelined when enabled."""
        if not self.pipeline:
            self._call(op, *args, flags=flags)
            return
        if len(self._outstanding) >= MAX_OUTSTANDING:
            self.drain()
        self._outstanding.append((self._send(op, args, flags), op))

    def _call(self, op: Op, *args, flags: int = 0) -> Tuple:
        """Issue an op and wait for its decoded response (a sync point).

        Flushes the pipeline first; failures of earlier posted
        operations take precedence over this call's own outcome.
        """
        tag = self._send(op, args, flags)
        self._wfile.flush()
        self._drain_acks()
        status, payload = self._read_matching(tag, op)
        error: Optional[Exception] = None
        if status.failed:
            error = decode_error(bytes(payload))
        self._raise_deferred()
        if error is not None:
            raise error
        return decode_response(op, payload, self.geometry.cells_per_page)

    def drain(self) -> None:
        """Synchronise: flush posted operations and surface any failure."""
        self._wfile.flush()
        self._drain_acks()
        self._raise_deferred()

    def _hello(self) -> None:
        # Request every capability this client knows; the server answers
        # the accepted subset.
        *served, self.seed, self.clock, accepted = self._call(
            Op.HELLO, HELLO_FLAGS_MASK
        )
        self.server_flags = accepted & HELLO_FLAGS_MASK
        geometry = self.geometry
        expected = (
            geometry.n_blocks,
            geometry.pages_per_block,
            geometry.cells_per_page,
            geometry.page_bytes,
        )
        if tuple(served) != expected:
            raise CommandError(
                f"server chip geometry {tuple(served)} does not match the "
                f"client's {expected} "
                f"(blocks, pages/block, cells/page, bytes/page)"
            )

    def close(self, shutdown: bool = True) -> None:
        """Drain the pipeline, optionally SHUTDOWN the server, hang up."""
        if self._closed:
            return
        self._closed = True
        try:
            if shutdown:
                self._post(Op.SHUTDOWN)
            self.drain()
        finally:
            for stream in (self._wfile, self._rfile):
                try:
                    stream.close()
                except OSError:
                    pass
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "RemoteChip":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Suppress SHUTDOWN on an error path: the connection may be
        # mid-desync and the server's exit is the handle's job anyway.
        self.close(shutdown=exc_type is None)

    # ------------------------------------------------------------------
    # FlashChip surface — singles

    def read_page(
        self, block: int, page: int, threshold: Optional[float] = None
    ) -> np.ndarray:
        (bits,) = self._call(Op.READ, threshold, block, page)
        return bits

    def probe_voltages(self, block: int, page: int) -> np.ndarray:
        (voltages,) = self._call(Op.PROBE_VOLTAGES, block, page)
        return voltages

    def program_page(self, block: int, page: int, data) -> None:
        self._post(Op.PROGRAM, block, page, as_bits(self.geometry, data))

    def erase_block(self, block: int) -> None:
        self._post(Op.ERASE, block)

    def partial_program(
        self,
        block: int,
        page: int,
        cells: Sequence[int],
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> None:
        self.partial_program_locations(
            [(block, page)], [cells], fraction=fraction, precision=precision
        )

    def partial_program_via_reset(
        self, block: int, page: int, data, abort_after_us: float = 600.0
    ) -> None:
        """The §6.1 host sequence on the wire: a PROGRAM of `data` held
        open (FLAG_PARTIAL) and aborted by RESET after `abort_after_us`
        microseconds, charging the pattern's '0' cells partially —
        exactly :meth:`repro.nand.onfi.OnfiBus.partial_program`.
        """
        bits = as_bits(self.geometry, data)
        self._post(Op.PROGRAM, block, page, bits, flags=FLAG_PARTIAL)
        self._post(Op.RESET, abort_after_us)

    def set_read_threshold(self, level: Optional[float]) -> None:
        """Set the server-side read reference shift (bus state)."""
        self._post(Op.SET_READ_THRESHOLD, level)

    def reset(self) -> None:
        """Plain RESET: clears volatile server state (threshold, SR)."""
        self._post(Op.RESET, None)

    def read_status(self) -> Status:
        """READ_STATUS: the server's ONFI status register, decoded.

        The register byte arrives in the payload — the response header's
        FAIL bit reports only whether the query frame itself failed.
        """
        (byte,) = self._call(Op.READ_STATUS)
        return Status.from_byte(byte)

    # ------------------------------------------------------------------
    # FlashChip surface — coalesced batches (one frame per call)

    def read_pages(
        self,
        block: int,
        pages: Sequence[int],
        threshold: Optional[float] = None,
    ) -> np.ndarray:
        pages = check_pages(self.geometry, block, pages)
        (bits,) = self._call(Op.READ_PAGES, threshold, block, pages)
        return bits

    def probe_voltages_batch(
        self, block: int, pages: Sequence[int]
    ) -> np.ndarray:
        pages = check_pages(self.geometry, block, pages)
        (voltages,) = self._call(Op.PROBE_PAGES, block, pages)
        return voltages

    def program_pages(
        self, block: int, pages: Sequence[int], data: Iterable
    ) -> None:
        pages = check_pages(self.geometry, block, pages)
        bits = self._stack_bits(data, len(pages), "pages")
        self._post(Op.PROGRAM_PAGES, block, pages, bits)

    def read_locations(
        self,
        locations: Sequence[Tuple[int, int]],
        threshold: Optional[float] = None,
    ) -> np.ndarray:
        pairs = check_locations(self.geometry, locations)
        (bits,) = self._call(Op.READ_LOCATIONS, threshold, pairs)
        return bits

    def probe_voltages_locations(
        self, locations: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        pairs = check_locations(self.geometry, locations)
        (voltages,) = self._call(Op.PROBE_LOCATIONS, pairs)
        return voltages

    def program_locations(
        self, locations: Sequence[Tuple[int, int]], data: Iterable
    ) -> None:
        pairs = check_locations(self.geometry, locations)
        bits = self._stack_bits(data, len(pairs), "locations")
        self._post(Op.PROGRAM_LOCATIONS, pairs, bits)

    def partial_program_locations(
        self,
        locations: Sequence[Tuple[int, int]],
        cells: Sequence[Sequence[int]],
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> None:
        pairs, rows = check_pp_rows(self.geometry, locations, cells)
        self._post(
            Op.PARTIAL_PROGRAM_LOCATIONS,
            fraction,
            precision,
            pairs,
            [row.size for row in rows],
            np.concatenate(rows),
        )

    def _stack_bits(self, data: Iterable, count: int, noun: str) -> np.ndarray:
        """Canonicalise one payload per target page into a bit matrix."""
        payloads = list(data)
        if len(payloads) != count:
            raise ProgramError(
                f"got {len(payloads)} payloads for {count} {noun}"
            )
        return np.stack(
            [as_bits(self.geometry, payload) for payload in payloads]
        )

    # ------------------------------------------------------------------
    # FlashChip surface — clock, counters, queries

    def advance_time(self, seconds: float) -> None:
        (self.clock,) = self._call(Op.ADVANCE_TIME, seconds)

    def obs_collect(self, reset: bool = False) -> ObsSnapshot:
        """Harvest the server's telemetry registry as an ObsSnapshot.

        Counters, gauges, histograms, profile and spans are whatever the
        server recorded since its last reset; ``op_counters`` are always
        the chip's cumulative totals.  ``reset=True`` clears the
        registry (not the op counters) after the snapshot — the fleet's
        per-round delta harvest.  Every float is f64 on the wire, so the
        snapshot is bit-identical to one taken in the server's process.
        """
        (blob,) = self._call(Op.OBS_COLLECT, reset)
        try:
            return decode_snapshot(blob)
        except ValueError as exc:
            raise CommandError(
                f"OBS_COLLECT payload undecodable: {exc}"
            ) from exc

    def obs_reset(self) -> None:
        """Clear the server's telemetry registry (op counters persist)."""
        self._post(Op.OBS_RESET)

    @property
    def counters(self) -> OpCounters:
        """The server chip's cumulative op counters (f64-exact).

        Rides the generic OBS_COLLECT snapshot encoding — new
        ``OpCounters`` fields transport without touching this client.
        """
        ops: Optional[OpCounters] = self.obs_collect().op_counters
        if ops is None:
            raise CommandError("OBS_COLLECT answered no op counters")
        return ops

    def is_page_programmed(self, block: int, page: int) -> bool:
        (programmed,) = self._call(Op.IS_PROGRAMMED, block, page)
        return bool(programmed)

    def block_pec(self, block: int) -> int:
        (pec,) = self._call(Op.BLOCK_PEC, block)
        return pec
