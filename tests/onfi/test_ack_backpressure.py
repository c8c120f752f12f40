"""Pipelined posts cannot deadlock on the server's ack path.

Posted operations are acknowledged with 8-byte frames that the client
reads only when it drains.  If more acks are outstanding than the
server's send buffer can hold, the server blocks on an ack while the
client blocks on its next frame.  These tests pin the bound against the
buffer the host actually provides and drive a long post stream through
a real socketpair.
"""

import socket
import threading

import numpy as np

from repro.nand import TEST_MODEL
from repro.onfi import RemoteChip, spawn_chip_server
from repro.onfi.client import MAX_OUTSTANDING

#: Seconds a healthy 2,000-post stream needs is well under one; a
#: deadlock never finishes.
DEADLINE_S = 60.0


def _acks_that_fit() -> int:
    """8-byte sends a fresh non-blocking socketpair absorbs unread."""
    sender, receiver = socket.socketpair()
    try:
        sender.setblocking(False)
        count = 0
        try:
            while count < 1_000_000:
                sender.send(b"\x00" * 8)
                count += 1
        except BlockingIOError:
            pass
        return count
    finally:
        sender.close()
        receiver.close()


def test_outstanding_bound_sits_well_below_ack_capacity():
    assert MAX_OUTSTANDING * 2 <= _acks_that_fit()


def test_back_to_back_partial_programs_complete():
    geometry = TEST_MODEL.geometry
    sock, handle = spawn_chip_server(
        geometry, TEST_MODEL.params, seed=3, backend="thread"
    )
    chip = RemoteChip(sock, geometry, TEST_MODEL.params)
    # Frames of ~8 KiB: once the server stalls on an ack, the frames the
    # client still has to post overflow its own send buffer too.
    cells = np.arange(1024, dtype=np.int64)
    n_posts = 2_000
    outcome = {}

    def post_all():
        try:
            for i in range(n_posts):
                block = i % geometry.n_blocks
                page = (i // geometry.n_blocks) % geometry.pages_per_block
                chip.partial_program(block, page, cells)
            chip.drain()
            outcome["ok"] = True
        except Exception as error:  # surfaced by the assertion below
            outcome["error"] = error

    worker = threading.Thread(target=post_all, daemon=True)
    worker.start()
    worker.join(DEADLINE_S)
    try:
        assert not worker.is_alive(), (
            f"{n_posts} posted partial programs did not complete in "
            f"{DEADLINE_S:.0f} s"
        )
        assert outcome == {"ok": True}
        assert handle.chip.counters.partial_programs == n_posts
    finally:
        if worker.is_alive():
            sock.close()  # unblock both ends of the deadlock
        else:
            chip.close()
        handle.close()
