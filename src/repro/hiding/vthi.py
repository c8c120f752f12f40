"""VT-HI: voltage-level data hiding (the paper's core contribution, §5).

The hiding user (HU) stores extra bits inside flash cells that already hold
public '1' bits, by charging pseudo-randomly selected cells just above a
secret threshold V_th that still lies inside the natural voltage range of a
non-programmed cell.  Public reads are unaffected (all hidden cells stay
far below the SLC threshold); hidden reads are a single threshold-shifted
read (§5.3).

Encoding follows Algorithm 1:

1. select ``|H|`` non-programmed public bit offsets with ``PRNG(Key, Page)``
2. program public data P to the page
3. encrypt H with the key and apply ECC
4. repeat up to m times: read cell voltages; partial-program every hidden
   '0' cell still below V_th

(The implementation programs public data first and then selects cells,
since selection draws from the public bits actually stored — the same
observable order the paper's prototype uses.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..crypto.keys import HidingKey
from ..nand.chip import FlashChip
from .config import STANDARD_CONFIG, HidingConfig
from .payload import PayloadCodec
from .selection import SelectionError, select_cells

_OBS_EMBED_PAGES = obs.counter("vthi.embed.pages")
_OBS_EMBED_PP_STEPS = obs.counter("vthi.embed.pp_steps")
_OBS_STEPS_HIST = obs.histogram("vthi.embed.steps_per_page")
_OBS_RECOVER_PAGES = obs.counter("vthi.recover.pages")


@dataclass(frozen=True)
class EmbedStats:
    """Observability record of one page embedding."""

    page_address: int
    n_hidden_bits: int
    n_zero_bits: int
    pp_steps_used: int
    cells_left_below: int


class VtHi:
    """Hide and recover data on one flash chip using VT-HI.

    With a `public_codec` (a :class:`~repro.ecc.page.PagePipeline`), public
    data passes through page-level ECC like on a real SSD, and the decoder
    derives the selection map from the *corrected* public page — making
    recovery robust to raw public read errors without the caller having to
    supply the public bits.
    """

    def __init__(
        self,
        chip: FlashChip,
        config: HidingConfig = STANDARD_CONFIG,
        public_codec=None,
    ) -> None:
        self.chip = chip
        self.config = config
        self.codec = PayloadCodec(config)
        self.public_codec = public_codec

    def public_view(self, block: int, page: int) -> np.ndarray:
        """The decoder's view of a page's public bits.

        The ECC-corrected page when a public codec is configured, otherwise
        the raw read.
        """
        raw = self.chip.read_page(block, page)
        if self.public_codec is None:
            return raw
        return self.public_codec.correct(raw)

    # ------------------------------------------------------------------
    # capacity / layout helpers

    def hidden_pages(self, block: int) -> List[int]:
        """Pages of `block` that carry hidden data at this page interval."""
        return list(
            self.config.hidden_pages(self.chip.geometry.pages_per_block)
        )

    @property
    def max_data_bytes_per_page(self) -> int:
        """Hidden payload bytes one page carries after ECC."""
        return self.codec.max_data_bytes

    def block_capacity_bytes(self) -> int:
        """Hidden payload bytes one block carries."""
        return self.max_data_bytes_per_page * len(self.hidden_pages(0))

    # ------------------------------------------------------------------
    # low-level bit embedding (Algorithm 1 without the payload framing)

    def embed_bits(
        self,
        block: int,
        page: int,
        hidden_bits: np.ndarray,
        key: HidingKey,
        public_bits: Optional[np.ndarray] = None,
    ) -> EmbedStats:
        """Embed raw hidden bits into a page already holding public data.

        `hidden_bits` should already be whitened (uniform 0/1); the
        high-level :meth:`hide` handles encryption and ECC.  If the caller
        knows the public bits (it usually does — it just programmed them),
        passing them skips one public read.
        """
        return self.embed_pages(
            block,
            [page],
            [hidden_bits],
            key,
            public_bits=None if public_bits is None else [public_bits],
        )[0]

    def embed_pages(
        self,
        block: int,
        pages: Sequence[int],
        hidden_bits: Sequence[np.ndarray],
        key: HidingKey,
        public_bits: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[EmbedStats]:
        """Embed hidden bits into several pages of one block at once.

        Selects each page's cells, then runs Algorithm 1's read-PP loop
        through :meth:`embed_prepared`, step-synchronised across the
        pages.  Per-page outcomes are bit-identical to embedding the
        pages one after another (pulse randomness, probe values and step
        counts are all per-page state).
        """
        if len(hidden_bits) != len(pages):
            raise ValueError(
                f"got {len(hidden_bits)} hidden-bit vectors for "
                f"{len(pages)} pages"
            )
        if public_bits is None:
            public_bits = [None] * len(pages)
        elif len(public_bits) != len(pages):
            raise ValueError(
                f"got {len(public_bits)} public-bit vectors for "
                f"{len(pages)} pages"
            )
        all_bits: List[np.ndarray] = []
        for bits in hidden_bits:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.ndim != 1 or bits.size > self.config.bits_per_page:
                raise ValueError(
                    f"hidden bits must be a vector of <= "
                    f"{self.config.bits_per_page} bits, got shape "
                    f"{bits.shape}"
                )
            all_bits.append(bits)
        self._check_programmed([(block, page) for page in pages])
        addresses = [
            self.chip.geometry.page_address(block, page) for page in pages
        ]
        zero_cells: List[np.ndarray] = []
        for i, page in enumerate(pages):
            public = public_bits[i]
            if public is None:
                public = self.public_view(block, page)
            cells = select_cells(
                key, addresses[i], public, all_bits[i].size
            )
            zero_cells.append(cells[all_bits[i] == 0])
        with obs.span("vthi.embed", block=block, pages=len(pages)):
            outcomes = self.embed_prepared(
                [(block, page, cells) for page, cells in zip(pages, zero_cells)]
            )
        return [
            EmbedStats(
                page_address=addresses[i],
                n_hidden_bits=int(all_bits[i].size),
                n_zero_bits=int(zero_cells[i].size),
                pp_steps_used=steps,
                cells_left_below=left,
            )
            for i, (steps, left) in enumerate(outcomes)
        ]

    def _check_programmed(self, locations: Sequence[tuple]) -> None:
        for block, page in locations:
            if not self.chip.is_page_programmed(block, page):
                raise SelectionError(
                    f"page {page} of block {block} holds no public data; "
                    "VT-HI hides inside public data (§5.1)"
                )

    def embed_prepared(
        self, items: Sequence[tuple]
    ) -> List[tuple]:
        """Algorithm 1's read-PP loop over prepared items *across blocks*.

        Each item is ``(block, page, zero_cells)`` — the hidden-'0' cell
        indices the caller already derived from its selection map (a
        multi-tenant service computes those under per-tenant keys).  The
        loop runs step-synchronised: each step is one
        :meth:`~repro.nand.chip.FlashChip.probe_voltages_locations` call
        over every item still converging, then one
        :meth:`~repro.nand.chip.FlashChip.partial_program_locations`
        pulse over every item with cells still below the target.  An item
        with no hidden '0' is never probed.  Per-item outcomes — probe
        values, pulse randomness, step counts — are bit-identical to
        embedding each item alone, in any grouping: every input to the
        loop (voltages, PP pulse streams, pulse counts) is per-(block,
        page) state, and items in one batch never share a page.

        Returns ``(pp_steps_used, cells_left_below)`` per item.
        """
        prepared = [
            (int(block), int(page), np.asarray(cells, dtype=np.int64))
            for block, page, cells in items
        ]
        self._check_programmed([item[:2] for item in prepared])
        target = self.config.threshold + self.config.guard
        steps = [0] * len(prepared)
        below = [cells for _, _, cells in prepared]
        active = [i for i in range(len(prepared)) if below[i].size]
        with obs.span("vthi.embed_prepared", items=len(prepared)):
            for _ in range(self.config.pp_steps):
                if not active:
                    break
                voltages = self.chip.probe_voltages_locations(
                    [prepared[i][:2] for i in active]
                )
                for row, i in enumerate(active):
                    zero_cells = prepared[i][2]
                    below[i] = zero_cells[
                        voltages[row, zero_cells] < target
                    ]
                active = [i for i in active if below[i].size]
                if active:
                    self.chip.partial_program_locations(
                        [prepared[i][:2] for i in active],
                        [below[i] for i in active],
                        fraction=self.config.pp_fraction,
                        precision=self.config.pp_precision,
                    )
                for i in active:
                    steps[i] += 1
        _OBS_EMBED_PAGES.inc(len(prepared))
        _OBS_EMBED_PP_STEPS.inc(sum(steps))
        if obs.is_enabled():
            for count in steps:
                _OBS_STEPS_HIST.observe(count)
        return [
            (steps[i], int(below[i].size)) for i in range(len(prepared))
        ]

    def read_bits(
        self,
        block: int,
        page: int,
        n_bits: int,
        key: HidingKey,
        public_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read raw hidden bits back: one threshold-shifted read (§5.3).

        The selection map is recomputed from the public bits; in a deployed
        system the decoder uses the ECC-corrected public page, which the
        caller provides via `public_bits`.  With the default raw read, an
        (unlikely) public bit error can misalign the selection — the tests
        quantify this.
        """
        address = self.chip.geometry.page_address(block, page)
        if public_bits is None:
            public_bits = self.public_view(block, page)
        cells = select_cells(key, address, public_bits, n_bits)
        shifted = self.chip.read_page(
            block, page, threshold=self.config.threshold
        )
        # A '1' at the hiding threshold (voltage below V_th) is hidden '1'.
        return shifted[cells]

    # ------------------------------------------------------------------
    # high-level payload API

    def hide(
        self,
        block: int,
        page: int,
        public_data,
        hidden_data: bytes,
        key: HidingKey,
    ) -> EmbedStats:
        """Program public data and hide an encrypted payload inside it.

        `public_data` is page-sized bytes or a full bit vector — the NU's
        data — unless a public codec is configured, in which case it is the
        user payload (up to ``public_codec.data_bytes``) and the codec
        produces the page bits including parity.  `hidden_data` must fit
        :attr:`max_data_bytes_per_page`.
        """
        address = self.chip.geometry.page_address(block, page)
        if self.public_codec is not None:
            public_bits = self.public_codec.encode(
                bytes(public_data), page_address=address
            )
        else:
            public_bits = self._as_bits(public_data)
        self.chip.program_page(block, page, public_bits)
        coded = self.codec.encode(key, address, hidden_data)
        return self.embed_bits(
            block, page, coded, key, public_bits=public_bits
        )

    def hide_pages(
        self,
        block: int,
        pages: Sequence[int],
        public_data: Sequence,
        hidden_data: Sequence[bytes],
        key: HidingKey,
    ) -> List[EmbedStats]:
        """Batch :meth:`hide`: several pages of one block in one go.

        Per-page outcomes are bit-identical to hiding page by page, but
        the public-page ECC encodes, the payload BCH encodes, and the
        embed read-PP loop all run batched (the embed loop
        step-synchronised across pages via :meth:`embed_pages`).
        """
        if len(public_data) != len(pages) or len(hidden_data) != len(pages):
            raise ValueError(
                f"got {len(public_data)} public and {len(hidden_data)} "
                f"hidden payloads for {len(pages)} pages"
            )
        addresses = [
            self.chip.geometry.page_address(block, page) for page in pages
        ]
        if self.public_codec is not None:
            public_bits = self.public_codec.encode_pages(
                [bytes(data) for data in public_data], addresses
            )
        else:
            public_bits = [self._as_bits(data) for data in public_data]
        for page, bits in zip(pages, public_bits):
            self.chip.program_page(block, page, bits)
        coded = self.codec.encode_pages(key, addresses, list(hidden_data))
        return self.embed_pages(
            block, pages, coded, key, public_bits=public_bits
        )

    def recover(
        self,
        block: int,
        page: int,
        key: HidingKey,
        n_bytes: int,
        public_bits: Optional[np.ndarray] = None,
    ) -> bytes:
        """Recover a hidden payload of known length from a page."""
        address = self.chip.geometry.page_address(block, page)
        coded_len = self.codec.coded_length(n_bytes)
        coded = self.read_bits(
            block, page, coded_len, key, public_bits=public_bits
        )
        return self.codec.decode(key, address, coded, n_bytes)

    def recover_pages(
        self,
        block: int,
        pages: Sequence[int],
        key: HidingKey,
        n_bytes: int,
        on_error: str = "raise",
    ) -> List[Optional[bytes]]:
        """Recover same-length payloads from several pages of one block.

        Per-page results are bit-identical to calling :meth:`recover`
        page by page, but the chip reads run as two batched ops (one raw
        read per page for the selection maps, one threshold-shifted read
        per page for the hidden bits) and the ECC of all pages decodes in
        one vectorised pass.  With ``on_error="return"``, a page whose
        payload is uncorrectable yields ``None`` instead of raising —
        the mount scan's expected case.
        """
        if not pages:
            return []
        _OBS_RECOVER_PAGES.inc(len(pages))
        with obs.span("vthi.recover", block=block, pages=len(pages)):
            addresses = [
                self.chip.geometry.page_address(block, page)
                for page in pages
            ]
            coded_len = self.codec.coded_length(n_bytes)
            raw = self.chip.read_pages(block, pages)
            if self.public_codec is None:
                views = list(raw)
            else:
                views = self.public_codec.correct_pages(raw)
            cells = [
                select_cells(key, addresses[i], views[i], coded_len)
                for i in range(len(pages))
            ]
            shifted = self.chip.read_pages(
                block, pages, threshold=self.config.threshold
            )
            coded = [shifted[i][cells[i]] for i in range(len(pages))]
            return self.codec.decode_pages(
                key, addresses, coded, n_bytes, on_error=on_error
            )

    # ------------------------------------------------------------------
    # lifecycle (§5.1, §9.1)

    def erase_hidden(self, block: int) -> None:
        """Destroy hidden data instantly by erasing the block.

        "Erasing a block of public data ... also erases any hidden payload
        in the cells" (§9.1) — which is also the fast panic switch §1
        advertises ("erasing hidden data ... is almost instantaneous").
        """
        self.chip.erase_block(block)

    def reembed(
        self,
        src: tuple,
        dst: tuple,
        key: HidingKey,
        n_bytes: int,
        new_public_data,
    ) -> EmbedStats:
        """Migrate a hidden payload to a new public page (§5.1).

        When the public page containing hidden data is about to be
        invalidated, the HU "must re-embed the hidden data in a new
        location (e.g., a page containing newly written NU data)".  Reads
        the payload from `src`, then hides it inside `new_public_data`
        programmed at `dst`.
        """
        payload = self.recover(src[0], src[1], key, n_bytes)
        return self.hide(dst[0], dst[1], new_public_data, payload, key)

    # ------------------------------------------------------------------

    def _as_bits(self, data) -> np.ndarray:
        if isinstance(data, (bytes, bytearray)):
            return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
        return np.asarray(data, dtype=np.uint8)
