"""Hidden-cell selection (Algorithm 1, line 2).

Cells that will carry hidden bits are chosen pseudo-randomly, keyed by the
HU's secret and the page number, from the page's *non-programmed* public
bits: "we only select non-programmed (i.e., '1') bits from the public data
in a page to store hidden data" (§5.3), because partial programming can
only nudge voltages upward reliably.

The selection map is never persisted; both the encoder and the decoder
recompute it from the key, the page address, and the page's public bits.
It is computed in two parts:

* :func:`cell_order` — the keyed order: a Fisher-Yates walk over *all*
  cell offsets of the page, driven by ``PRNG(Key, Page)``.  It depends on
  the key and the page address only, never on the public bits, so a
  caller that re-programs the same page with new public data (the fleet's
  tenant rebuilds) can keep the order and skip the walk.
* :func:`filter_order` — the first `count` offsets of that order whose
  public bit is '1': ``order[bits[order] == 1][:count]``.

:func:`select_cells` runs both, walking only as long a prefix of the order
as the filter needs.  This skip-based walk makes the map locally robust
to public read errors: a bit error on a non-selected cell cannot perturb
the map at all, and one on a selected cell only desynchronises the bits
assigned after it in selection order (which the payload ECC then sees as a
correctable burst).  Selecting directly among the indices of '1' bits —
the other natural reading of the paper's "the 3rd non-programmed bit in a
specific flash page" — would let any single public bit error shift the
entire map.  In a deployed system the decoder additionally uses the
ECC-corrected public page (public data always passes through the SSD's
ECC); callers control which view is used via the explicit `public_bits`
argument.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..crypto.keys import HidingKey

_MAX_WORD = np.uint64((1 << 64) - 1)


class SelectionError(Exception):
    """Raised when a page cannot accommodate the requested hidden bits."""


class _KeyedWalk:
    """The keyed Fisher-Yates walk of one page, extendable on demand.

    A flattened ``KeyedPrng.index_stream`` walk: the keystream is drawn in
    bulk (one ``bytes()`` call per extension), the per-draw modulo and
    rejection test run vectorised, and only the inherently sequential swap
    walk stays in Python.  Byte for byte the same stream is consumed in
    the same order, so the order is identical to the reference walk's
    (see ``tests/hiding/test_selection.py``).
    """

    def __init__(
        self, key: HidingKey, page_address: int, population: int
    ) -> None:
        self._prng = key.selection_prng().for_page(page_address)
        self.population = population
        self._slots = list(range(population))
        #: The walked prefix of the keyed order.
        self.order: List[int] = []

    def extend(self, length: int) -> None:
        """Walk on until the order holds ``min(length, population)``
        offsets."""
        length = min(length, self.population)
        slots, order = self._slots, self.order
        i = len(order)
        words = np.zeros(0, dtype="<u8")
        while i < length:
            if not words.size:
                words = np.frombuffer(
                    self._prng.bytes(8 * (length - i)), dtype="<u8"
                )
            steps = np.arange(words.size, dtype=np.uint64)
            # Word t's bound is population - (i + t): valid only while
            # every earlier word was accepted (each accepted word
            # advances the walk by exactly one position).
            bounds = np.uint64(self.population - i) - steps
            rejected = words > _MAX_WORD - (np.uint64(0) - bounds) % bounds
            valid = int(np.argmax(rejected)) if rejected.any() else words.size
            targets = np.uint64(i) + steps[:valid] + (
                words[:valid] % bounds[:valid]
            )
            for j in targets.tolist():
                order.append(slots[j])
                slots[j] = slots[i]
                i += 1
            # A rejected word (probability < population / 2**64 per
            # draw) is skipped: the next word retries the same draw, so
            # the stream position stays where the reference walk's is.
            words = words[valid + 1:]


def cell_order(
    key: HidingKey, page_address: int, population: int, length: int
) -> np.ndarray:
    """The first `length` offsets of the page's keyed cell order.

    Depends on (key, page_address, population) only.  Any prefix of the
    full order is the order's own prefix, so a caller may cache the full
    order (``length == population``) and filter it against any public
    bits of the same page.
    """
    if not 0 <= length <= population:
        raise ValueError(
            f"order length must be in [0, {population}], got {length}"
        )
    walk = _KeyedWalk(key, page_address, population)
    walk.extend(length)
    return np.asarray(walk.order, dtype=np.int64)


def filter_order(
    order: np.ndarray, public_bits: np.ndarray, count: int, page_address: int
) -> np.ndarray:
    """The first `count` offsets of a page's full keyed `order` whose
    public bit is '1' — :func:`select_cells` without the walk.

    Raises :class:`SelectionError` exactly when :func:`select_cells`
    would: the page holds fewer than `count` '1' bits.
    """
    picked = order[public_bits[order] == 1]
    if picked.size < count:
        raise _too_few(page_address, picked.size, count)
    return picked[:count]


def _too_few(page_address: int, n_ones: int, count: int) -> SelectionError:
    return SelectionError(
        f"page {page_address} has {n_ones} non-programmed bits; "
        f"cannot select {count} hidden cells"
    )


def select_cells(
    key: HidingKey,
    page_address: int,
    public_bits: np.ndarray,
    count: int,
) -> np.ndarray:
    """Choose `count` hidden-cell indices among the page's '1' bits.

    Returns cell indices in selection order (the order hidden bits are
    assigned to cells).  Deterministic in (key, page_address, public_bits)
    and equal to filtering :func:`cell_order` against `public_bits`.
    """
    bits = np.asarray(public_bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("public_bits must be a bit vector")
    n_ones = int((bits == 1).sum())
    if count > n_ones:
        raise _too_few(page_address, n_ones, count)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    population = bits.size
    walk = _KeyedWalk(key, page_address, population)
    # Expected steps until `count` hits among `n_ones` of `population`
    # cells is count*population/n_ones; walk that plus slack up front so
    # the common case needs a single extension.
    length = -(-count * population // n_ones) + count // 4 + 64
    while True:
        walk.extend(length)
        order = np.asarray(walk.order, dtype=np.int64)
        picked = order[bits[order] == 1]
        if picked.size >= count:
            return picked[:count]
        length += max(256, length // 2)
