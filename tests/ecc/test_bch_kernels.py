"""The batched locator kernels, tested against their scalar twins.

`test_bch_batch.py` pins the end-to-end ``decode_many`` contract; this
module aims lower, at the kernels the dirty path is made of —
``_parity_syndromes`` against ``_syndromes``,
``_berlekamp_massey_batch`` against ``_berlekamp_massey`` and
``_chien_batch`` against ``_chien_search`` — plus the bookkeeping that
stitches them back into per-word results (``error_positions``,
``batch_index``) for mixed clean/dirty/failing batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import EccError
from repro.ecc.bch import get_code

#: (m, t) pairs small enough that hypothesis can sweep them repeatedly.
SMALL_PARAMS = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (7, 5)]

#: The small sets plus the drive fleet's hidden-slot codec.
KERNEL_PARAMS = SMALL_PARAMS + [(10, 30)]


def _corrupted_batch(code, rng, n_words, weights=None):
    """Corrupted (possibly shortened) codewords plus their clean twins."""
    words, cleans = [], []
    for i in range(n_words):
        k_use = int(rng.integers(1, code.k + 1))
        clean = code.encode(rng.integers(0, 2, k_use).astype(np.uint8))
        weight = (
            int(rng.integers(0, code.t + 2))
            if weights is None
            else weights[i % len(weights)]
        )
        bad = clean.copy()
        positions = rng.choice(
            clean.size, size=min(weight, clean.size), replace=False
        )
        bad[positions] ^= 1
        words.append(bad)
        cleans.append(clean)
    return words, cleans


def _weighted_words(code, rng, weights):
    """One corrupted word per weight, each at a random shortened length
    (weights beyond the word length saturate)."""
    words = []
    for weight in weights:
        word_len = int(rng.integers(code.n_parity + 1, code.n + 1))
        word = code.encode(
            rng.integers(0, 2, word_len - code.n_parity).astype(np.uint8)
        )
        flips = rng.choice(word_len, size=min(weight, word_len), replace=False)
        word[flips] ^= 1
        words.append(word)
    return words


def _massey_discrepancies(code, syndromes):
    """The scalar Berlekamp-Massey loop, returning its locator and the
    discrepancy of every step (a transcription of ``_berlekamp_massey``
    that also records what it computes)."""
    field = code.field
    sigma, prev_sigma = [1], [1]
    prev_discrepancy, m_gap, length = 1, 1, 0
    discrepancies = []
    for i, syndrome in enumerate(syndromes):
        discrepancy = syndrome
        for j in range(1, length + 1):
            if j < len(sigma) and sigma[j]:
                discrepancy ^= field.mul(sigma[j], syndromes[i - j])
        discrepancies.append(discrepancy)
        if discrepancy == 0:
            m_gap += 1
            continue
        scale = field.div(discrepancy, prev_discrepancy)
        adjustment = [0] * m_gap + [field.mul(scale, c) for c in prev_sigma]
        new_sigma = list(sigma) + [0] * max(0, len(adjustment) - len(sigma))
        for j, coeff in enumerate(adjustment):
            new_sigma[j] ^= coeff
        if 2 * length <= i:
            prev_sigma, prev_discrepancy = sigma, discrepancy
            length, m_gap = i + 1 - length, 1
        else:
            m_gap += 1
        sigma = new_sigma
    while len(sigma) > 1 and sigma[-1] == 0:
        sigma.pop()
    return sigma, discrepancies


class TestParitySyndromes:
    @pytest.mark.parametrize("params", KERNEL_PARAMS)
    def test_match_scalar_syndromes(self, params):
        """The parity-column GEMM (odd syndromes) plus squaring (even
        ones) equals the scalar syndromes of the received word, across
        shortened lengths and error weights 0..t+1 — clean words give
        all-zero difference rows and all-zero syndromes."""
        code = get_code(*params)
        rng = np.random.default_rng(params[0] * 100 + params[1])
        for _ in range(4):
            word_len = int(rng.integers(code.n_parity + 1, code.n + 1))
            data_len = word_len - code.n_parity
            words = []
            for weight in [0, 0, 1, code.t, code.t + 1, 2 * code.t + 3]:
                word = code.encode(
                    rng.integers(0, 2, data_len).astype(np.uint8)
                )
                flips = rng.choice(
                    word_len, size=min(weight, word_len), replace=False
                )
                word[flips] ^= 1
                words.append(word)
            stacked = np.stack(words)
            diff = stacked[:, data_len:] ^ code._parity_batch(
                stacked[:, :data_len]
            )
            assert not diff[:2].any()
            got = code._parity_syndromes(diff)
            assert got.dtype == np.int64
            for row, word in zip(got, words):
                assert row.tolist() == code._syndromes(
                    word, code.n - word_len
                )


class TestBinaryBerlekampMassey:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_real_syndromes_skip_only_zero_steps(self, data):
        """On syndromes of received words with 0..2t+10 errors the
        batch BM (which skips the odd steps) equals the scalar loop,
        and every odd-step discrepancy of the scalar loop is zero."""
        m, t = data.draw(st.sampled_from(KERNEL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        weights = [int(w) for w in rng.integers(0, 2 * t + 11, 6)]
        syndromes = [
            code._syndromes(word, code.n - word.size)
            for word in _weighted_words(code, rng, weights)
        ]
        batch = code._berlekamp_massey_batch(
            np.array(syndromes, dtype=np.int64)
        )
        for row, syndrome_row in zip(batch, syndromes):
            scalar = code._berlekamp_massey(syndrome_row)
            traced, discrepancies = _massey_discrepancies(code, syndrome_row)
            assert traced == scalar
            assert discrepancies[1::2] == [0] * t
            assert row.tolist() == scalar + [0] * (row.size - len(scalar))


class TestBerlekampMasseyBatch:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_real_syndromes(self, data):
        """Lockstep BM row-for-row equals the scalar loop on syndromes of
        genuinely corrupted words, error weights 0..t+1."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(code, rng, 8)
        rows = []
        scalars = []
        for word in words:
            syndromes = code._syndromes(word, code.n - word.size)
            rows.append(syndromes)
            scalars.append(code._berlekamp_massey(syndromes))
        batch = code._berlekamp_massey_batch(
            np.array(rows, dtype=np.int64)
        )
        for row, scalar in zip(batch, scalars):
            padded = scalar + [0] * (row.size - len(scalar))
            assert row.tolist() == padded

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_arbitrary_syndromes(self, data):
        """BM is defined for any syndrome sequence; the lockstep kernel
        must agree even on sequences no codeword could have produced."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_rows = data.draw(st.integers(min_value=1, max_value=8))
        syndromes = rng.integers(
            0, code.field.size, (n_rows, 2 * code.t)
        ).astype(np.int64)
        batch = code._berlekamp_massey_batch(syndromes)
        for row, syndrome_row in zip(batch, syndromes):
            scalar = code._berlekamp_massey(
                [int(s) for s in syndrome_row]
            )
            padded = scalar + [0] * (row.size - len(scalar))
            assert row.tolist() == padded


class TestChienBatch:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_search(self, data):
        """The table-driven search returns exactly the scalar root set
        for every locator row, across shortened lengths."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        word_len = int(
            rng.integers(code.n_parity + 1, code.n + 1)
        )
        shortening = code.n - word_len
        locators = []
        for _ in range(6):
            weight = int(rng.integers(0, code.t + 1))
            clean = code.encode(
                rng.integers(0, 2, word_len - code.n_parity).astype(
                    np.uint8
                )
            )
            bad = clean.copy()
            positions = rng.choice(word_len, size=weight, replace=False)
            bad[positions] ^= 1
            locators.append(
                code._berlekamp_massey(
                    code._syndromes(bad, shortening)
                )
            )
        width = 2 * code.t + 1
        sigma = np.zeros((len(locators), width), dtype=np.int64)
        for row, locator in enumerate(locators):
            sigma[row, : len(locator)] = locator
        root_rows, root_cols = code._chien_batch(
            sigma, shortening, word_len
        )
        for row, locator in enumerate(locators):
            expected = code._chien_search(locator, shortening, word_len)
            got = root_cols[root_rows == row]
            assert np.array_equal(got, expected)

    def test_no_roots_case(self):
        """A locator with no roots in the window yields empty indices."""
        code = get_code(4, 2)
        # sigma(x) = 1: never zero anywhere.
        sigma = np.zeros((1, 2 * code.t + 1), dtype=np.int64)
        sigma[0, 0] = 1
        root_rows, root_cols = code._chien_batch(sigma, 0, code.n)
        assert root_rows.size == 0
        assert root_cols.size == 0


class TestDecodeManyMatchesDecode:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_slot_matches_scalar(self, data):
        """``decode_many(on_error="return")`` equals per-word ``decode``
        for 0..2t+10 errors over mixed shortened lengths: data, codeword,
        error positions, corrected count, and for words beyond t the
        error message and ``batch_index``."""
        m, t = data.draw(st.sampled_from(KERNEL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        weights = [int(w) for w in rng.integers(0, 2 * t + 11, 8)]
        words = _weighted_words(code, rng, weights)
        batch = code.decode_many(words, on_error="return")
        for index, word in enumerate(words):
            try:
                scalar = code.decode(word)
            except EccError as error:
                scalar = error
            result = batch[index]
            if isinstance(scalar, EccError):
                assert isinstance(result, EccError)
                assert str(result) == str(scalar)
                assert result.batch_index == index
            else:
                assert not isinstance(result, EccError)
                assert np.array_equal(result.data, scalar.data)
                assert np.array_equal(result.codeword, scalar.codeword)
                assert result.corrected_errors == scalar.corrected_errors
                assert np.array_equal(
                    np.asarray(result.error_positions),
                    np.asarray(scalar.error_positions),
                )


class TestMixedBatchBookkeeping:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_interleaved_clean_dirty_failing(self, data):
        """Clean, correctable and failing words interleaved: every slot
        matches its scalar outcome — data, codeword, error positions,
        and which indices fail with which message."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(
            code, rng, 9, weights=[0, t, t + 1]
        )
        batch = code.decode_many(words, on_error="return")
        failing = []
        for index, word in enumerate(words):
            try:
                scalar = code.decode(word)
            except EccError as error:
                scalar = error
            result = batch[index]
            if isinstance(scalar, EccError):
                failing.append(index)
                assert isinstance(result, EccError)
                assert str(result) == str(scalar)
                assert result.batch_index == index
            else:
                assert not isinstance(result, EccError)
                assert np.array_equal(result.data, scalar.data)
                assert result.corrected_errors == scalar.corrected_errors
                assert np.array_equal(result.codeword, scalar.codeword)
                assert np.array_equal(
                    np.asarray(result.error_positions),
                    np.asarray(scalar.error_positions),
                )
        if failing:
            with pytest.raises(EccError) as excinfo:
                code.decode_many(words)
            assert excinfo.value.batch_index == failing[0]

    def test_error_positions_ascending_and_match_flips(self):
        """Reported positions are ascending and are exactly the flipped
        bits of the corrected word."""
        code = get_code(6, 2)
        rng = np.random.default_rng(3)
        clean = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        positions = np.sort(rng.choice(clean.size, 2, replace=False))
        bad = clean.copy()
        bad[positions] ^= 1
        (result,) = code.decode_many([bad])
        assert np.array_equal(np.asarray(result.error_positions), positions)
        assert np.array_equal(bad ^ result.codeword != 0, np.isin(
            np.arange(clean.size), positions
        ))
