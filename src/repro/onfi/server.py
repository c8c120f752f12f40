"""ChipServer: one :class:`~repro.nand.chip.FlashChip` behind the wire.

The device half of the §6.1 host/tester boundary: a server owns a chip
and serves the frame protocol of :mod:`repro.onfi.wire` over any byte
stream (socket, socketpair, pipe, or an in-memory stream for tests).
Dispatch is strictly sequential per connection — frames execute in
arrival order, which is what makes client-side pipelining semantically
identical to synchronous calls — and every malformed frame yields a
*defined* error response: the connection only drops on header-level
corruption, where the stream offset itself is no longer trustworthy.

The ONFI status register (:class:`repro.nand.onfi.Status`) rolls after
every chip operation exactly as the in-process :class:`OnfiBus` rolls
it; READ_STATUS, HELLO, GET_COUNTERS and SHUTDOWN are host-side queries
and leave it untouched.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from dataclasses import replace
from typing import BinaryIO, Dict, Optional, Tuple

import numpy as np

from ..nand.chip import FlashChip
from ..nand.errors import CommandError, NandError
from ..nand.geometry import ChipGeometry
from ..nand.onfi import (
    STATUS_FAIL,
    Status,
    partial_program_fraction,
    validate_threshold,
)
from ..nand.params import ChipParams
from ..obs.metrics import (
    Registry,
    is_enabled as _obs_enabled,
    pop_registry,
    push_registry,
    set_enabled,
)
from ..obs.trace import adopt_parent, span
from ..obs.wirefmt import encode_snapshot
from .wire import (
    FLAG_PARTIAL,
    FLAG_THRESHOLD,
    FLAG_TRACE,
    HELLO_FLAGS_MASK,
    FrameReader,
    Op,
    encode_error,
    pack_f64,
    write_frame,
    pack_i64,
    pack_u64,
    u8_payload,
    take_f64,
    take_i64,
    take_i64_array,
    take_i64_count,
    take_locations,
    take_trace_parent,
    take_u8_matrix,
)

#: Opcodes that are host-side queries: they answer from existing state
#: and do not roll the status register.
_NO_ROLL = frozenset(
    {Op.READ_STATUS, Op.HELLO, Op.GET_COUNTERS, Op.OBS_COLLECT,
     Op.OBS_RESET, Op.SHUTDOWN}
)


def _done(payload, offset: int) -> None:
    """Reject trailing payload bytes — every frame parses exactly."""
    if offset != len(payload):
        raise CommandError(
            f"{len(payload) - offset} trailing payload bytes"
        )


class ChipServer:
    """Serve one flash chip to one connection at a time."""

    def __init__(self, chip: FlashChip, proc_label: str = "") -> None:
        self.chip = chip
        #: The ONFI status register, shared semantics with OnfiBus.
        self.status = Status()
        #: Volatile read-reference shift (the SET_READ_THRESHOLD state).
        self._read_threshold: Optional[float] = None
        #: A PROGRAM held open by FLAG_PARTIAL, waiting for its RESET:
        #: ``(block, page, bits)``.
        self._pending: Optional[Tuple[int, int, np.ndarray]] = None
        #: This server's private telemetry domain.  Pushed around every
        #: frame dispatch (when observability is enabled), so server-side
        #: spans and metrics accumulate here — isolated from the caller's
        #: registries on the thread backend, and harvestable over the
        #: wire via OBS_COLLECT on both backends.  ``proc_label`` stamps
        #: recorded spans for multi-process trace stitching.
        self.registry = Registry(proc_label=proc_label)
        #: HELLO-negotiated capability bits (HELLO_OBS | HELLO_TRACE).
        self.hello_flags = 0

    # ------------------------------------------------------------------
    # frame dispatch (pure in the frame; fuzzable without a socket)

    def handle_frame(
        self, opcode: int, flags: int, tag: int, payload
    ) -> Tuple[int, bytes, bool]:
        """Execute one frame -> ``(status_byte, payload, keep_serving)``.

        Any malformed opcode/flags/payload — and any chip-level failure —
        produces an error payload under a FAIL status byte; nothing a
        frame contains can raise out of here short of an internal bug,
        so a connection survives arbitrary garbage *frames* (only broken
        *framing* closes it, in :meth:`serve`).
        """
        try:
            op: Optional[Op] = Op(opcode)
        except ValueError:
            op = None
        rolls = op is None or op not in _NO_ROLL
        try:
            if op is None:
                raise CommandError(f"unknown opcode 0x{opcode:02X}")
            if self._pending is not None and op is not Op.RESET:
                # Any command other than the closing RESET aborts the
                # held PROGRAM before any charge is injected.
                self._pending = None
                raise CommandError(
                    f"a PROGRAM is held open for RESET; opcode "
                    f"0x{opcode:02X} aborts it uncharged"
                )
            trace_parent: Optional[str] = None
            if flags & FLAG_TRACE:
                # Zero-copy strip: handlers see only their own payload.
                trace_parent, o = take_trace_parent(payload, 0)
                payload = memoryview(payload)[o:]
                flags &= ~FLAG_TRACE
            handler = self._HANDLERS[op]
            if _obs_enabled():
                # Route this frame's spans/metrics into the server's
                # private registry (parented under the client's span
                # when the frame carried a trace-parent prefix).
                push_registry(self.registry)
                try:
                    if trace_parent is not None:
                        with adopt_parent(trace_parent):
                            out, status_byte = self._traced(
                                op, handler, flags, payload, rolls
                            )
                    else:
                        out, status_byte = self._traced(
                            op, handler, flags, payload, rolls
                        )
                finally:
                    pop_registry()
            else:
                out, status_byte = handler(self, flags, payload)
        except (NandError, ValueError) as exc:
            if rolls:
                self.status = self.status.rolled(failed=True)
                byte = self.status.to_byte()
            else:
                byte = self.status.to_byte() | STATUS_FAIL
            # A SHUTDOWN ends the connection even when its frame is
            # malformed: the host has asked to hang up either way.
            return byte, encode_error(exc), op is not Op.SHUTDOWN
        if status_byte is None:
            if rolls:
                self.status = self.status.rolled(failed=False)
                status_byte = self.status.to_byte()
            else:
                # Header FAIL always means *this frame* failed; a query
                # reports the register's own FAIL via READ_STATUS's
                # payload, never via the response header.
                status_byte = self.status.to_byte() & ~STATUS_FAIL
        return status_byte, out, op is not Op.SHUTDOWN

    def _traced(
        self, op: Op, handler, flags: int, payload, rolls: bool
    ) -> Tuple[bytes, Optional[int]]:
        """Run a handler under a server-side span (data-path ops only).

        Queries (``_NO_ROLL``) stay span-free: an OBS_COLLECT span would
        always close *after* the snapshot it serves and leak into the
        next harvest.
        """
        if rolls:
            with span(f"onfi.{op.name.lower()}"):
                return handler(self, flags, payload)
        return handler(self, flags, payload)

    def serve(self, reader: FrameReader, wfile: BinaryIO) -> None:
        """Serve frames until clean EOF, SHUTDOWN or broken framing."""
        while True:
            try:
                frame = reader.read_frame()
            except CommandError:
                # Header-level corruption: the stream offset is
                # undefined, so hanging up is the only safe answer.
                return
            if frame is None:
                return
            opcode, flags, tag, payload = frame
            status, out, keep = self.handle_frame(opcode, flags, tag, payload)
            write_frame(wfile, opcode, status, tag, out)
            wfile.flush()
            if not keep:
                return

    # ------------------------------------------------------------------
    # handlers: (flags, payload) -> (response payload, status override)
    #
    # A ``None`` status override means "roll the register for a
    # successful operation and report it"; overrides are for responses
    # whose byte is not a completed-operation roll (busy, fresh reset).

    def _threshold_from(self, flags: int, payload, offset: int):
        if flags & FLAG_THRESHOLD:
            threshold, offset = take_f64(payload, offset)
            return threshold, offset
        return self._read_threshold, offset

    def _op_read(self, flags, payload):
        threshold, o = self._threshold_from(flags, payload, 0)
        block, o = take_i64(payload, o)
        page, o = take_i64(payload, o)
        _done(payload, o)
        bits = self.chip.read_page(block, page, threshold=threshold)
        return u8_payload(bits), None

    def _op_probe(self, flags, payload):
        block, o = take_i64(payload, 0)
        page, o = take_i64(payload, o)
        _done(payload, o)
        return u8_payload(self.chip.probe_voltages(block, page)), None

    def _op_program(self, flags, payload):
        block, o = take_i64(payload, 0)
        page, o = take_i64(payload, o)
        bits = take_u8_matrix(
            payload, o, 1, self.chip.geometry.cells_per_page
        )[0]
        if flags & FLAG_PARTIAL:
            # Held open: charge is only injected when RESET arrives with
            # an abort time.  The device reports busy (RDY/ARDY clear);
            # FAIL stays clear — the frame itself was accepted.
            self._pending = (int(block), int(page), bits)
            busy = replace(
                self.status, ready=False, array_ready=False, failed=False
            )
            return b"", busy.to_byte()
        self.chip.program_page(block, page, bits)
        return b"", None

    def _op_erase(self, flags, payload):
        block, o = take_i64(payload, 0)
        _done(payload, o)
        self.chip.erase_block(block)
        return b"", None

    def _op_reset(self, flags, payload):
        if len(payload) == 0:
            # Plain RESET: volatile settings and the status register
            # clear; a held PROGRAM is aborted uncharged.
            self._pending = None
            self._read_threshold = None
            self.status = Status()
            return b"", self.status.to_byte()
        abort_after_us, o = take_f64(payload, 0)
        _done(payload, o)
        if self._pending is None:
            raise CommandError(
                "RESET carries an abort time but no PROGRAM is held open"
            )
        block, page, bits = self._pending
        self._pending = None
        fraction = partial_program_fraction(self.chip, abort_after_us)
        # The held PROGRAM pattern charges its '0' cells — aborted at
        # `abort_after_us`, exactly OnfiBus.partial_program's mapping.
        cells = np.flatnonzero(bits == 0)
        self.chip.partial_program(block, page, cells, fraction=fraction)
        return b"", None

    def _op_partial_program(self, flags, payload):
        block, o = take_i64(payload, 0)
        page, o = take_i64(payload, o)
        fraction, o = take_f64(payload, o)
        precision, o = take_f64(payload, o)
        cells = take_i64_array(payload, o)
        self.chip.partial_program(
            block, page, cells, fraction=fraction, precision=precision
        )
        return b"", None

    def _op_set_read_threshold(self, flags, payload):
        if len(payload) == 0:
            level: Optional[float] = None
        else:
            level, o = take_f64(payload, 0)
            _done(payload, o)
        validate_threshold(level)
        self._read_threshold = level
        return b"", None

    def _op_read_status(self, flags, payload):
        _done(payload, 0)
        # The register byte travels in the payload: the response header
        # FAIL bit is reserved for this frame's own outcome.
        return bytes([self.status.to_byte()]), None

    # -- coalesced batches ----------------------------------------------

    def _op_read_pages(self, flags, payload):
        threshold, o = self._threshold_from(flags, payload, 0)
        block, o = take_i64(payload, o)
        pages = take_i64_array(payload, o)
        bits = self.chip.read_pages(block, pages, threshold=threshold)
        return u8_payload(bits), None

    def _op_probe_pages(self, flags, payload):
        block, o = take_i64(payload, 0)
        pages = take_i64_array(payload, o)
        return u8_payload(
            self.chip.probe_voltages_batch(block, pages)
        ), None

    def _op_program_pages(self, flags, payload):
        block, o = take_i64(payload, 0)
        count, o = take_i64(payload, o)
        pages, o = take_i64_count(payload, o, count)
        bits = take_u8_matrix(
            payload, o, count, self.chip.geometry.cells_per_page
        )
        self.chip.program_pages(block, pages, bits)
        return b"", None

    def _op_read_locations(self, flags, payload):
        threshold, o = self._threshold_from(flags, payload, 0)
        locations = take_locations(payload, o)
        bits = self.chip.read_locations(locations, threshold=threshold)
        return u8_payload(bits), None

    def _op_probe_locations(self, flags, payload):
        locations = take_locations(payload, 0)
        return u8_payload(
            self.chip.probe_voltages_locations(locations)
        ), None

    def _op_program_locations(self, flags, payload):
        count, o = take_i64(payload, 0)
        if count < 0:
            raise CommandError(f"negative location count {count}")
        flat, o = take_i64_count(payload, o, count * 2)
        locations = [
            (int(flat[i]), int(flat[i + 1])) for i in range(0, len(flat), 2)
        ]
        bits = take_u8_matrix(
            payload, o, count, self.chip.geometry.cells_per_page
        )
        self.chip.program_locations(locations, bits)
        return b"", None

    # -- admin -----------------------------------------------------------

    def _op_hello(self, flags, payload):
        # Payload: optionally one capability byte (absent = legacy
        # client, no obs/trace).  The response echoes the accepted
        # subset as a trailing byte.
        if len(payload) == 0:
            requested = 0
        else:
            requested = payload[0]
            _done(payload, 1)
        self.hello_flags = requested & HELLO_FLAGS_MASK
        geometry = self.chip.geometry
        out = (
            pack_i64(
                geometry.n_blocks,
                geometry.pages_per_block,
                geometry.cells_per_page,
                geometry.page_bytes,
            )
            + pack_u64(self.chip.seed)
            + pack_f64(self.chip.clock)
            + bytes([self.hello_flags])
        )
        return out, None

    def _op_advance_time(self, flags, payload):
        seconds, o = take_f64(payload, 0)
        _done(payload, o)
        self.chip.advance_time(seconds)
        return pack_f64(self.chip.clock), None

    def _op_get_counters(self, flags, payload):
        _done(payload, 0)
        counters = self.chip.counters
        out = pack_i64(
            counters.reads,
            counters.programs,
            counters.erases,
            counters.partial_programs,
        ) + pack_f64(counters.busy_time_s, counters.energy_j)
        return out, None

    def _op_obs_collect(self, flags, payload):
        # Payload: optionally one u8 — nonzero resets the registry after
        # the snapshot (delta-harvest mode, used by the fleet's per-round
        # collection).  The snapshot's op_counters are always the chip's
        # *cumulative* totals: they are core chip state, not registry
        # state, so OBS_COLLECT answers them even with REPRO_OBS=0 and a
        # reset never rewinds them.
        if len(payload) == 0:
            reset = False
        else:
            reset = payload[0] != 0
            _done(payload, 1)
        snapshot = self.registry.snapshot()
        snapshot.op_counters = self.chip.counters.copy()
        out = encode_snapshot(snapshot)
        if reset:
            self.registry.reset()
        return out, None

    def _op_obs_reset(self, flags, payload):
        _done(payload, 0)
        self.registry.reset()
        return b"", None

    def _op_is_programmed(self, flags, payload):
        block, o = take_i64(payload, 0)
        page, o = take_i64(payload, o)
        _done(payload, o)
        return bytes(
            [1 if self.chip.is_page_programmed(block, page) else 0]
        ), None

    def _op_block_pec(self, flags, payload):
        block, o = take_i64(payload, 0)
        _done(payload, o)
        return pack_i64(self.chip.block_pec(block)), None

    def _op_shutdown(self, flags, payload):
        _done(payload, 0)
        return b"", None

    _HANDLERS: Dict[Op, object] = {
        Op.READ: _op_read,
        Op.PROBE_VOLTAGES: _op_probe,
        Op.PROGRAM: _op_program,
        Op.ERASE: _op_erase,
        Op.RESET: _op_reset,
        Op.PARTIAL_PROGRAM: _op_partial_program,
        Op.SET_READ_THRESHOLD: _op_set_read_threshold,
        Op.READ_STATUS: _op_read_status,
        Op.READ_PAGES: _op_read_pages,
        Op.PROBE_PAGES: _op_probe_pages,
        Op.PROGRAM_PAGES: _op_program_pages,
        Op.READ_LOCATIONS: _op_read_locations,
        Op.PROBE_LOCATIONS: _op_probe_locations,
        Op.PROGRAM_LOCATIONS: _op_program_locations,
        Op.HELLO: _op_hello,
        Op.ADVANCE_TIME: _op_advance_time,
        Op.GET_COUNTERS: _op_get_counters,
        Op.OBS_COLLECT: _op_obs_collect,
        Op.OBS_RESET: _op_obs_reset,
        Op.IS_PROGRAMMED: _op_is_programmed,
        Op.BLOCK_PEC: _op_block_pec,
        Op.SHUTDOWN: _op_shutdown,
    }


# ----------------------------------------------------------------------
# transports


def serve_stream(
    chip: FlashChip,
    rfile: BinaryIO,
    wfile: BinaryIO,
    proc_label: str = "",
) -> None:
    """Serve one connection given buffered read/write streams."""
    ChipServer(chip, proc_label=proc_label).serve(FrameReader(rfile), wfile)


def serve_socket(
    chip: FlashChip, sock: socket.socket, proc_label: str = ""
) -> None:
    """Serve one connected socket until the peer hangs up or SHUTDOWN."""
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    try:
        serve_stream(chip, rfile, wfile, proc_label=proc_label)
    except (BrokenPipeError, ConnectionResetError, OSError):
        pass  # the peer vanished mid-response; nothing left to answer
    finally:
        for stream in (wfile, rfile):
            try:
                stream.close()
            except OSError:
                pass


def serve_listener(
    chip: FlashChip, listener: socket.socket, once: bool = False
) -> None:
    """Accept-and-serve loop for ``repro-stash onfi-serve``.

    One connection at a time — the protocol is stateful per connection
    (status register, held PROGRAM), and the chip itself is single-die.
    ``once`` serves a single connection and returns (testable with an
    ephemeral port).
    """
    while True:
        conn, _ = listener.accept()
        try:
            serve_socket(chip, conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
        if once:
            return


class ServerHandle:
    """Lifecycle handle for a spawned chip server (thread or process)."""

    def __init__(self, worker, chip: Optional[FlashChip] = None) -> None:
        self._worker = worker
        #: The served chip — only available on the thread backend, where
        #: it shares the caller's address space (used by bit-identity
        #: tests to inspect server-side state directly).
        self.chip = chip

    def join(self, timeout: float = 10.0) -> None:
        self._worker.join(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Wait for the server to exit; force-stop a stuck process."""
        self._worker.join(timeout)
        if isinstance(self._worker, multiprocessing.process.BaseProcess):
            if self._worker.is_alive():
                self._worker.terminate()
                self._worker.join(timeout)
            self._worker.close()


def _serve_child(
    conn: socket.socket,
    geometry: ChipGeometry,
    params: Optional[ChipParams],
    seed: int,
    obs_enabled: bool,
    proc_label: str,
) -> None:
    """Process entry point: build the chip in the child and serve.

    The parent's observability state is applied explicitly: fork
    inherits the environment, but a parent that toggled recording
    programmatically (``obs.set_enabled``) after a spawn-incompatible
    env read would otherwise desynchronise.  Safe because this process
    exists only to serve this chip.
    """
    set_enabled(obs_enabled)
    chip = FlashChip(geometry, params, seed=seed)
    serve_socket(chip, conn, proc_label=proc_label)


def spawn_chip_server(
    geometry: ChipGeometry,
    params: Optional[ChipParams] = None,
    seed: int = 0,
    backend: str = "process",
    proc_label: Optional[str] = None,
) -> Tuple[socket.socket, ServerHandle]:
    """Start a chip server on one end of a socketpair.

    Returns the client end (hand it to
    :class:`~repro.onfi.client.RemoteChip`) and a :class:`ServerHandle`.
    ``backend="process"`` forks a dedicated server process — the route
    past the GIL for multi-shard fleets; ``backend="thread"`` serves
    from a daemon thread in-process (no extra core, but the handle
    exposes the chip for white-box tests).
    """
    if backend not in ("process", "thread"):
        raise ValueError(f"unknown server backend {backend!r}")
    if proc_label is None:
        proc_label = f"chip:{seed}"
    client_end, server_end = socket.socketpair()
    if backend == "thread":
        chip = FlashChip(geometry, params, seed=seed)
        worker = threading.Thread(
            target=serve_socket,
            args=(chip, server_end),
            kwargs={"proc_label": proc_label},
            daemon=True,
        )
        worker.start()
        return client_end, ServerHandle(worker, chip=chip)
    context = multiprocessing.get_context("fork")
    worker = context.Process(
        target=_serve_child,
        args=(server_end, geometry, params, seed, _obs_enabled(), proc_label),
        daemon=True,
    )
    worker.start()
    server_end.close()  # the child holds its own duplicate
    return client_end, ServerHandle(worker)
