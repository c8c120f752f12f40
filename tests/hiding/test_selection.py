"""Hidden-cell selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import HidingKey
from repro.crypto.prng import KeyedPrng
from repro.hiding import SelectionError, select_cells
from repro.hiding.selection import cell_order, filter_order

KEY = HidingKey.generate(b"sel")


def bits_with_ones(n, ones_fraction=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < ones_fraction).astype(np.uint8)


def test_selects_only_one_cells():
    bits = bits_with_ones(2048)
    cells = select_cells(KEY, 0, bits, 100)
    assert (bits[cells] == 1).all()


def test_deterministic_in_inputs():
    bits = bits_with_ones(2048)
    a = select_cells(KEY, 5, bits, 64)
    b = select_cells(KEY, 5, bits, 64)
    assert np.array_equal(a, b)


def test_page_dependent():
    bits = bits_with_ones(2048)
    a = select_cells(KEY, 0, bits, 64)
    b = select_cells(KEY, 1, bits, 64)
    assert not np.array_equal(a, b)


def test_key_dependent():
    bits = bits_with_ones(2048)
    other = HidingKey.generate(b"other")
    a = select_cells(KEY, 0, bits, 64)
    b = select_cells(other, 0, bits, 64)
    assert not np.array_equal(a, b)


def test_distinct_cells():
    bits = bits_with_ones(2048)
    cells = select_cells(KEY, 0, bits, 500)
    assert len(set(cells.tolist())) == 500


def test_insufficient_ones_rejected():
    bits = np.zeros(256, dtype=np.uint8)
    bits[:10] = 1
    with pytest.raises(SelectionError):
        select_cells(KEY, 0, bits, 11)
    assert select_cells(KEY, 0, bits, 10).size == 10


def test_selection_spreads_over_the_page():
    bits = np.ones(4096, dtype=np.uint8)
    cells = select_cells(KEY, 0, bits, 256)
    # keyed-uniform selection: both halves populated
    assert (cells < 2048).sum() > 64
    assert (cells >= 2048).sum() > 64


def test_local_robustness_to_public_bit_flip():
    """A flip on a NON-selected cell must not change the map at all —
    the property that makes raw-read decoding mostly safe."""
    bits = bits_with_ones(4096, seed=3)
    cells = select_cells(KEY, 0, bits, 64)
    flipped = bits.copy()
    victim = next(
        i for i in range(bits.size)
        if i not in set(cells.tolist()) and bits[i] == 1
    )
    # Only flips on cells the keyed walk visits before completion matter;
    # find a '1' cell that is not selected and comes after all selected
    # ones in the walk by checking the map is unchanged.
    flipped[victim] = 0
    cells_after = select_cells(KEY, 0, flipped, 64)
    changed = not np.array_equal(cells, cells_after)
    if changed:
        # if the victim was inside the walk prefix, the tail may shift,
        # but the prefix before it must be identical
        common = 0
        for a, b in zip(cells, cells_after):
            if a != b:
                break
            common += 1
        assert common > 0
    else:
        assert np.array_equal(cells, cells_after)


@given(
    count=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_selection_size_and_range(count, seed):
    bits = bits_with_ones(512, seed=seed)
    if count > int((bits == 1).sum()):
        with pytest.raises(SelectionError):
            select_cells(KEY, 2, bits, count)
    else:
        cells = select_cells(KEY, 2, bits, count)
        assert cells.size == count
        assert ((cells >= 0) & (cells < 512)).all()


def test_shape_validation():
    with pytest.raises(ValueError):
        select_cells(KEY, 0, np.zeros((2, 2)), 1)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_matches_reference_index_stream_walk(seed):
    # The production selector inlines and bulk-decodes the keystream;
    # it must consume the exact same stream as the straightforward
    # ``KeyedPrng.index_stream`` walk and pick the same cells.
    bits = bits_with_ones(700, seed=seed)
    ones = int((bits == 1).sum())
    count = min(ones, 1 + seed % 128)
    fast = select_cells(KEY, seed, bits, count)
    prng = KEY.selection_prng().for_page(seed)
    chosen = []
    for offset in prng.index_stream(bits.size):
        if bits[offset] == 1:
            chosen.append(offset)
            if len(chosen) == count:
                break
    np.testing.assert_array_equal(fast, np.asarray(chosen, dtype=np.int64))


def reference_selection(key, page_address, bits, count):
    """The straightforward ``KeyedPrng.index_stream`` walk."""
    chosen = []
    if count:
        prng = key.selection_prng().for_page(page_address)
        for offset in prng.index_stream(bits.size):
            if bits[offset] == 1:
                chosen.append(offset)
                if len(chosen) == count:
                    break
    return np.asarray(chosen, dtype=np.int64)


@given(
    address=st.integers(min_value=0, max_value=10_000),
    cover_seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=5
    ),
    ones_fraction=st.floats(min_value=0.2, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_cached_order_filter_equals_select_cells(
    address, cover_seeds, ones_fraction
):
    """One walk per page serves every cover of it: filtering the cached
    full order equals a fresh selection and the reference walk."""
    n = 600
    order = cell_order(KEY, address, n, n)
    assert sorted(order.tolist()) == list(range(n))
    for cover_seed in cover_seeds:
        bits = bits_with_ones(n, ones_fraction, seed=cover_seed)
        count = min(int(bits.sum()), 1 + cover_seed % 300)
        picked = filter_order(order, bits, count, address)
        np.testing.assert_array_equal(
            picked, select_cells(KEY, address, bits, count)
        )
        np.testing.assert_array_equal(
            picked, reference_selection(KEY, address, bits, count)
        )


def test_order_prefixes_agree():
    full = cell_order(KEY, 7, 300, 300)
    np.testing.assert_array_equal(cell_order(KEY, 7, 300, 40), full[:40])
    assert cell_order(KEY, 7, 300, 0).size == 0
    with pytest.raises(ValueError):
        cell_order(KEY, 7, 300, 301)


def test_filter_order_rejects_short_pages():
    bits = np.zeros(256, dtype=np.uint8)
    bits[:10] = 1
    order = cell_order(KEY, 0, 256, 256)
    with pytest.raises(SelectionError) as filtered:
        filter_order(order, bits, 11, 0)
    with pytest.raises(SelectionError) as walked:
        select_cells(KEY, 0, bits, 11)
    assert str(filtered.value) == str(walked.value)


class InjectingPrng(KeyedPrng):
    """A keystream whose listed 64-bit words read 2**64 - 1.

    That value lies above the rejection limit of every bound that is
    not a power of two, so each listed word is rejected by the walk —
    a branch real keystreams reach with probability ~1e-16 per draw.
    """

    words: frozenset = frozenset()

    def __init__(self, key, context=b""):
        super().__init__(key, context)
        self._position = 0

    def derive(self, label):
        return InjectingPrng(self._key, self._context + b"/" + bytes(label))

    def bytes(self, n):
        out = bytearray(super().bytes(n))
        for k in range(n):
            if (self._position + k) // 8 in self.words:
                out[k] = 0xFF
        self._position += n
        return bytes(out)


@pytest.mark.parametrize(
    "words",
    [
        {3},
        {3, 4, 5},  # consecutive rejections
        {0, 250, 251, 480},  # first word, and words a lazy walk extends to
    ],
)
def test_rejected_words_are_skipped_like_the_reference(monkeypatch, words):
    clean_order = cell_order(KEY, 9, 500, 500)
    monkeypatch.setattr(InjectingPrng, "words", frozenset(words))
    monkeypatch.setattr(
        HidingKey,
        "selection_prng",
        lambda key: InjectingPrng(key._subkey(b"selection")),
    )
    reference = KEY.selection_prng().for_page(9)
    expected = list(reference.index_stream(500))
    order = cell_order(KEY, 9, 500, 500)
    assert order.tolist() == expected
    assert not np.array_equal(order, clean_order)  # rejections happened
    # Sparse covers make select_cells extend its prefix across the
    # injected words.
    for ones_fraction in (0.1, 0.5):
        bits = bits_with_ones(500, ones_fraction, seed=len(words))
        count = int(bits.sum()) // 2
        np.testing.assert_array_equal(
            select_cells(KEY, 9, bits, count),
            reference_selection(KEY, 9, bits, count),
        )
