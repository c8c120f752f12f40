"""Interleaver, parity group."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import (
    ParityGroup,
    deinterleave,
    interleave,
)


class TestInterleave:
    @given(
        depth=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, depth, rows):
        bits = np.arange(depth * rows) % 2
        assert np.array_equal(
            deinterleave(interleave(bits, depth), depth), bits
        )

    def test_spreads_bursts(self):
        bits = np.zeros(32, dtype=np.uint8)
        woven = interleave(bits, 4)
        woven[0:4] = 1  # a burst of 4 in the channel
        restored = deinterleave(woven, 4)
        positions = np.flatnonzero(restored)
        # the burst lands on positions spaced `depth` apart
        assert np.array_equal(positions, [0, 4, 8, 12])

    def test_validation(self):
        with pytest.raises(ValueError):
            interleave(np.zeros(5), 2)
        with pytest.raises(ValueError):
            interleave(np.zeros(4), 0)
        with pytest.raises(ValueError):
            deinterleave(np.zeros(5), 2)


class TestParityGroup:
    def payloads(self):
        rng = np.random.default_rng(0)
        return [rng.integers(0, 2, 64).astype(np.uint8) for _ in range(4)]

    def test_parity_is_xor(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        manual = payloads[0] ^ payloads[1] ^ payloads[2] ^ payloads[3]
        assert np.array_equal(group.parity, manual)

    def test_reconstruct_each_position(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        for missing in range(4):
            surviving = [
                None if i == missing else p
                for i, p in enumerate(payloads)
            ]
            restored = group.reconstruct(surviving, group.parity)
            assert np.array_equal(restored[missing], payloads[missing])

    def test_nothing_missing_is_identity(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        restored = group.reconstruct(payloads, group.parity)
        for original, got in zip(payloads, restored):
            assert np.array_equal(original, got)

    def test_two_missing_rejected(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        surviving = [None, None] + payloads[2:]
        with pytest.raises(ValueError):
            group.reconstruct(surviving, group.parity)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ParityGroup([np.zeros(4), np.zeros(5)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ParityGroup([])
