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
it; the host-side queries (``Op.rolls`` false in the opcode table)
leave it untouched.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cursor import Buffer
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
    HELLO_FLAGS_MASK,
    FrameReader,
    Op,
    decode_request,
    encode_error,
    encode_response,
    write_frame,
)


class ChipServer:
    """Serve one flash chip to one connection at a time."""

    _HANDLERS: Dict[Op, Callable[..., Tuple[Any, ...]]]

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
        self, opcode: int, flags: int, tag: int, payload: Buffer
    ) -> Tuple[int, bytes, bool]:
        """Execute one frame -> ``(status_byte, payload, keep_serving)``.

        Any malformed opcode/flags/payload — and any chip-level failure —
        produces an error payload under a FAIL status byte; nothing a
        frame contains can raise out of here short of an internal bug,
        so a connection survives arbitrary garbage *frames* (only broken
        *framing* closes it, in :meth:`serve`).
        """
        status, chunks, keep = self._execute(opcode, flags, payload)
        return status, b"".join(chunks), keep

    def _execute(
        self, opcode: int, flags: int, payload: Buffer
    ) -> Tuple[int, List[Buffer], bool]:
        """:meth:`handle_frame` with the response left as chunks, so
        :meth:`serve` can scatter-write page arrays without a copy."""
        try:
            op: Optional[Op] = Op(opcode)
        except ValueError:
            op = None
        rolls = op is None or op.rolls
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
            parent, args = decode_request(
                op, flags, payload, self.chip.geometry.cells_per_page
            )
            if op.flags & FLAG_THRESHOLD and args[0] is None:
                args = (self._read_threshold,) + args[1:]
            handler = self._HANDLERS[op]
            if _obs_enabled():
                # Route this frame's spans/metrics into the server's
                # private registry (parented under the client's span
                # when the frame carried a trace-parent prefix).  Only
                # data-path ops get a span: an OBS_COLLECT span would
                # close *after* the snapshot it serves and leak into
                # the next harvest.
                adopted = (
                    adopt_parent(parent) if parent is not None
                    else nullcontext()
                )
                traced = (
                    span(f"onfi.{op.name.lower()}") if op.rolls
                    else nullcontext()
                )
                push_registry(self.registry)
                try:
                    with adopted, traced:
                        values = handler(self, flags, *args)
                finally:
                    pop_registry()
            else:
                values = handler(self, flags, *args)
            out = encode_response(op, values)
        except (NandError, ValueError) as exc:
            if rolls:
                self.status = self.status.rolled(failed=True)
                byte = self.status.to_byte()
            else:
                byte = self.status.to_byte() | STATUS_FAIL
            # A SHUTDOWN ends the connection even when its frame is
            # malformed: the host has asked to hang up either way.
            return byte, [encode_error(exc)], op is not Op.SHUTDOWN
        if self._pending is not None:
            # A held PROGRAM: the device reports busy (RDY/ARDY clear)
            # until its RESET; FAIL stays clear — the frame was accepted.
            busy = replace(
                self.status, ready=False, array_ready=False, failed=False
            )
            status_byte = busy.to_byte()
        elif rolls:
            self.status = self.status.rolled(failed=False)
            status_byte = self.status.to_byte()
        else:
            # Header FAIL always means *this frame* failed; a query
            # reports the register's own FAIL via READ_STATUS's
            # payload, never via the response header.
            status_byte = self.status.to_byte() & ~STATUS_FAIL
        return status_byte, out, op is not Op.SHUTDOWN

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
            status, out, keep = self._execute(opcode, flags, payload)
            write_frame(wfile, opcode, status, tag, out)
            wfile.flush()
            if not keep:
                return

    # ------------------------------------------------------------------
    # handlers, one per opcode: (flags, *request args) -> response values
    #
    # An op that honours FLAG_THRESHOLD receives the threshold first,
    # already resolved against the volatile SET_READ_THRESHOLD state.

    def _op_read(self, flags, threshold, block, page):
        return (self.chip.read_page(block, page, threshold=threshold),)

    def _op_probe_voltages(self, flags, block, page):
        return (self.chip.probe_voltages(block, page),)

    def _op_program(self, flags, block, page, bits):
        if flags & FLAG_PARTIAL:
            # Held open: charge is only injected when RESET arrives with
            # an abort time.
            self._pending = (int(block), int(page), bits)
        else:
            self.chip.program_page(block, page, bits)
        return ()

    def _op_erase(self, flags, block):
        self.chip.erase_block(block)
        return ()

    def _op_reset(self, flags, abort_after_us):
        if abort_after_us is None:
            # Plain RESET: volatile settings and the status register
            # clear (the roll of a fresh register is a fresh register);
            # a held PROGRAM is aborted uncharged.
            self._pending = None
            self._read_threshold = None
            self.status = Status()
            return ()
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
        return ()

    def _op_set_read_threshold(self, flags, level):
        validate_threshold(level)
        self._read_threshold = level
        return ()

    def _op_read_status(self, flags):
        # The register byte travels in the payload: the response header
        # FAIL bit is reserved for this frame's own outcome.
        return (self.status.to_byte(),)

    # -- coalesced batches ----------------------------------------------

    def _op_read_pages(self, flags, threshold, block, pages):
        return (self.chip.read_pages(block, pages, threshold=threshold),)

    def _op_probe_pages(self, flags, block, pages):
        return (self.chip.probe_voltages_batch(block, pages),)

    def _op_program_pages(self, flags, block, pages, bits):
        self.chip.program_pages(block, pages, bits)
        return ()

    def _op_read_locations(self, flags, threshold, locations):
        return (
            self.chip.read_locations(locations.tolist(), threshold=threshold),
        )

    def _op_probe_locations(self, flags, locations):
        return (self.chip.probe_voltages_locations(locations.tolist()),)

    def _op_program_locations(self, flags, locations, bits):
        self.chip.program_locations(locations.tolist(), bits)
        return ()

    def _op_partial_program_locations(
        self, flags, fraction, precision, locations, counts, cells
    ):
        if (
            counts.size != len(locations)
            or (counts < 0).any()
            or (counts > cells.size).any()
            or int(counts.sum()) != cells.size
        ):
            raise CommandError(
                f"{counts.size} cell counts do not split {cells.size} "
                f"cells over {len(locations)} locations"
            )
        self.chip.partial_program_locations(
            locations.tolist(),
            np.split(cells, np.cumsum(counts)[:-1]),
            fraction=fraction,
            precision=precision,
        )
        return ()

    # -- admin -----------------------------------------------------------

    def _op_hello(self, flags, requested):
        self.hello_flags = requested & HELLO_FLAGS_MASK
        geometry = self.chip.geometry
        return (
            geometry.n_blocks,
            geometry.pages_per_block,
            geometry.cells_per_page,
            geometry.page_bytes,
            self.chip.seed,
            self.chip.clock,
            self.hello_flags,
        )

    def _op_advance_time(self, flags, seconds):
        self.chip.advance_time(seconds)
        return (self.chip.clock,)

    def _op_obs_collect(self, flags, reset):
        # The snapshot's op_counters are always the chip's *cumulative*
        # totals: they are core chip state, not registry state, so
        # OBS_COLLECT answers them even with REPRO_OBS=0 and a reset
        # (the fleet's per-round delta harvest) never rewinds them.
        snapshot = self.registry.snapshot()
        snapshot.op_counters = self.chip.counters.copy()
        out = encode_snapshot(snapshot)
        if reset:
            self.registry.reset()
        return (out,)

    def _op_obs_reset(self, flags):
        self.registry.reset()
        return ()

    def _op_is_programmed(self, flags, block, page):
        return (int(self.chip.is_page_programmed(block, page)),)

    def _op_block_pec(self, flags, block):
        return (self.chip.block_pec(block),)

    def _op_shutdown(self, flags):
        return ()


# One handler per table row; a row without one fails here, at import.
ChipServer._HANDLERS = {
    op: getattr(ChipServer, f"_op_{op.name.lower()}") for op in Op
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
