"""Property tests for the block-level chip kernels (DESIGN §11).

The chip data plane runs as batched ndarray kernels with lazy
per-(page, epoch) latent-field caches.  These tests pin the contracts
the rebuild relies on:

* batch ops equal the serial single-page loops bit for bit under any
  wear level, clock position, partial-program history, and any page
  subset in any order;
* cached latent fields (leakage, disturb, effective rows, PP response)
  never survive an erase and always equal a cold recompute;
* ``cycle_block`` equals the explicit erase + per-page program loop it
  replaced, pattern draws and wear accounting included;
* ``partial_program_locations`` equals the per-page pulse loop it
  batches (an explicit reference implementation below), and a batch
  with one bad row anywhere changes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import NandError
from repro.rng import substream

GEOMETRY = TEST_MODEL.geometry
PAGES_PER_BLOCK = GEOMETRY.pages_per_block
CELLS = GEOMETRY.cells_per_page


def fresh_chip(seed=1234):
    return FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)


def chip_pair(seed=1234):
    return fresh_chip(seed), fresh_chip(seed)


def pattern(seed, page):
    rng = substream(seed, "kernel-test-pattern", page)
    return (rng.random(CELLS) < 0.5).astype(np.uint8)


def counters_tuple(chip):
    c = chip.counters
    return (
        c.reads, c.programs, c.erases, c.partial_programs,
        c.busy_time_s, c.energy_j,
    )


# ----------------------------------------------------------------------
# batch == serial under arbitrary device state


@settings(max_examples=10, deadline=None)
@given(
    pages=st.lists(
        st.integers(0, PAGES_PER_BLOCK - 1),
        unique=True, min_size=1, max_size=PAGES_PER_BLOCK,
    ),
    pec=st.integers(0, 2500),
    hours=st.floats(0.0, 2000.0),
    pp_pulses=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_batch_equals_serial_under_wear_clock_and_pp(
    pages, pec, hours, pp_pulses, seed
):
    """Any wear, clock, and PP history: batch ops == serial loops."""
    batch_chip, loop_chip = chip_pair(seed)
    for c in (batch_chip, loop_chip):
        c.age_block(0, pec)
    data = [pattern(seed, p) for p in pages]
    batch_chip.program_pages(0, pages, data)
    for page, bits in zip(pages, data):
        loop_chip.program_page(0, page, bits)
    cells = np.arange(0, CELLS, 7)
    for _ in range(pp_pulses):
        for c in (batch_chip, loop_chip):
            c.partial_program(0, pages[0], cells, fraction=0.5)
    for c in (batch_chip, loop_chip):
        c.advance_time(hours * 3600.0)
    np.testing.assert_array_equal(
        batch_chip.probe_voltages_batch(0, pages),
        np.stack([loop_chip.probe_voltages(0, p) for p in pages]),
    )
    np.testing.assert_array_equal(
        batch_chip.read_pages(0, pages),
        np.stack([loop_chip.read_page(0, p) for p in pages]),
    )
    assert counters_tuple(batch_chip) == counters_tuple(loop_chip)


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations(range(PAGES_PER_BLOCK)))
def test_batch_rows_follow_request_order(perm):
    """Row i of a batch is page ``pages[i]`` regardless of ordering."""
    chip = fresh_chip(31)
    chip.program_pages(
        0, range(PAGES_PER_BLOCK),
        [pattern(31, p) for p in range(PAGES_PER_BLOCK)],
    )
    chip.advance_time(3600.0)
    in_order = chip.probe_voltages_batch(0, range(PAGES_PER_BLOCK))
    permuted = chip.probe_voltages_batch(0, perm)
    np.testing.assert_array_equal(permuted, in_order[list(perm)])


# ----------------------------------------------------------------------
# latent-field cache lifecycle


def test_erase_drops_every_latent_cache():
    chip = fresh_chip(7)
    chip.program_page(0, 0, pattern(7, 0))
    chip.partial_program(0, 1, [3, 5], fraction=0.5)
    chip.advance_time(90 * 24 * 3600.0)
    chip.read_page(0, 0)  # warms leak/disturb/effective caches
    state = chip._block(0)
    assert state.leak_fields and state.effective_rows
    assert state.pp_responses
    chip.erase_block(0)
    assert not state.leak_fields
    assert not state.disturb_fields
    assert not state.effective_rows
    assert not state.pp_responses


def test_warm_caches_do_not_leak_across_erase():
    """A chip whose caches were warmed before an erase behaves exactly
    like one that never read in the first epoch: stale leakage, disturb
    or effective rows surviving the erase would split these probes."""
    warm, cold = chip_pair(19)
    for c in (warm, cold):
        c.program_page(0, 0, pattern(19, 0))
        c.advance_time(90 * 24 * 3600.0)
    warm.probe_voltages(0, 0)  # populate epoch-1 caches on `warm` only
    for c in (warm, cold):
        c.erase_block(0)
        c.program_page(0, 0, pattern(20, 0))
        c.advance_time(90 * 24 * 3600.0)
    np.testing.assert_array_equal(
        warm.probe_voltages(0, 0), cold.probe_voltages(0, 0)
    )


def test_cache_hit_equals_cold_recompute():
    chip = fresh_chip(11)
    chip.program_page(0, 0, pattern(11, 0))
    chip.advance_time(3600.0)
    state = chip._block(0)
    row = chip._effective_voltages(state, 0).copy()
    leak = chip._leak_field(state, 0)
    disturb = chip._disturb_field(state, 0).copy()
    response = chip._pp_response(0, 2).copy()
    state.leak_fields.clear()
    state.disturb_fields.clear()
    state.effective_rows.clear()
    state.pp_responses.clear()
    np.testing.assert_array_equal(chip._effective_voltages(state, 0), row)
    refreshed = chip._leak_field(state, 0)
    np.testing.assert_array_equal(refreshed.leaky_idx, leak.leaky_idx)
    np.testing.assert_array_equal(
        refreshed.neg_log_magnitude, leak.neg_log_magnitude
    )
    np.testing.assert_array_equal(chip._disturb_field(state, 0), disturb)
    np.testing.assert_array_equal(chip._pp_response(0, 2), response)


def test_partial_program_invalidates_effective_row():
    """A PP pulse after a probe must show up in the next probe — the
    cached effective row may not shadow the new charge."""
    warm, control = chip_pair(23)
    for c in (warm, control):
        c.program_page(0, 0, pattern(23, 0))
        c.advance_time(3600.0)
    warm.probe_voltages(0, 0)  # caches the pre-pulse effective row
    cells = np.arange(0, CELLS, 5)
    for c in (warm, control):
        c.partial_program(0, 0, cells, fraction=1.0)
    np.testing.assert_array_equal(
        warm.probe_voltages(0, 0), control.probe_voltages(0, 0)
    )


# ----------------------------------------------------------------------
# cycle_block == explicit serial loop


def test_cycle_block_matches_explicit_serial_loop():
    cycles = 3
    fast, slow = chip_pair(777)
    fast.cycle_block(0, cycles)
    pattern_rng = substream(slow.seed, "cycle-pattern", 0)
    for _ in range(cycles):
        slow.erase_block(0)
        for page in range(PAGES_PER_BLOCK):
            draws = pattern_rng.random(CELLS)
            slow.program_page(0, page, (draws < 0.5).astype(np.uint8))
    slow.erase_block(0)
    assert fast.block_pec(0) == slow.block_pec(0)
    np.testing.assert_array_equal(
        fast._block(0).voltages, slow._block(0).voltages
    )
    assert counters_tuple(fast) == counters_tuple(slow)


def test_cycle_block_without_program_only_erases():
    a, b = chip_pair(81)
    a.cycle_block(0, 4, program=False)
    for _ in range(4):
        b.erase_block(0)
    assert a.block_pec(0) == b.block_pec(0) == 4
    np.testing.assert_array_equal(a._block(0).voltages, b._block(0).voltages)


# ----------------------------------------------------------------------
# erased-state kernels


def test_fresh_block_equals_epoch_zero_erase_draws():
    """"NAND ships erased": a never-touched block carries the same
    erased-state sample a block erased in epoch 0 would."""
    chip = fresh_chip(101)
    fresh_rows = chip._block(0).voltages.copy()
    assert chip.block_pec(0) == 0
    # An aged twin erased into epoch 1 differs (new epoch, new draws) …
    other = fresh_chip(101)
    other.erase_block(0)
    assert not np.array_equal(other._block(0).voltages, fresh_rows)
    # … but the same chip re-materialised reproduces epoch 0 exactly.
    again = fresh_chip(101)
    np.testing.assert_array_equal(again._block(0).voltages, fresh_rows)


def test_erased_pages_read_all_ones_when_fresh():
    chip = fresh_chip(5)
    bits = chip.read_pages(0, range(PAGES_PER_BLOCK))
    assert (bits == 1).all()


# ----------------------------------------------------------------------
# partial_program_locations == the per-page pulse loop

N_BLOCKS = 3


def reference_partial_program(chip, block, page, cells, fraction, precision):
    """One PP pulse, spelled out serially (the pre-batching kernel)."""
    if not 0.0 < fraction <= 2.0:
        raise ValueError(f"fraction must be in (0, 2], got {fraction}")
    if not 0.0 < precision <= 1.0:
        raise ValueError(f"precision must be in (0, 1], got {precision}")
    state = chip._block(block)
    chip.geometry.check_page(block, page)
    cells = np.asarray(cells, dtype=np.int64)
    pp = chip.params.partial_program
    response = chip._pp_response(block, page)[cells]
    pulse_rng = substream(
        chip.seed, "pp-pulse", block, page, state.erase_epoch,
        int(state.page_pp_pulses[page]),
    )
    mean = pp.pulse_mean * fraction
    std = pp.pulse_std * fraction * precision
    pulses = pulse_rng.normal(mean, std, size=cells.size)
    np.clip(pulses, 0.0, mean + 2.0 * std, out=pulses)
    state.voltages[page, cells] += (response * pulses).astype(np.float32)
    state.invalidate_page_voltages(page)
    state.page_pp_pulses[page] += 1
    chip._expose_neighbours(
        state, page, chip.params.disturb.pp_flip_prob * fraction
    )
    chip._account("partial_program")


def chip_state(chip):
    """Everything a PP pulse may touch, for exact comparison."""
    blocks = [chip._block(b) for b in range(N_BLOCKS)]
    return (
        [state.voltages.copy() for state in blocks],
        [state.page_pp_pulses.copy() for state in blocks],
        [state.page_exposure.copy() for state in blocks],
        counters_tuple(chip),
    )


def assert_same_state(a, b):
    for rows_a, rows_b in zip(a[:3], b[:3]):
        for x, y in zip(rows_a, rows_b):
            np.testing.assert_array_equal(x, y)
    assert a[3] == b[3]


def prepared_chip(seed, pec):
    """A chip with programmed pages and some prior PP history."""
    chip = fresh_chip(seed)
    for block in range(N_BLOCKS):
        chip.age_block(block, pec)
        chip.program_pages(
            block, range(PAGES_PER_BLOCK),
            [pattern(seed + block, p) for p in range(PAGES_PER_BLOCK)],
        )
    chip.partial_program(0, 1, [2, 4, 6], fraction=0.7)
    return chip


pp_rows = st.lists(
    st.tuples(
        st.integers(0, N_BLOCKS - 1),
        st.integers(0, PAGES_PER_BLOCK - 1),
        # Small index range: duplicates within a row are common.
        st.lists(st.integers(0, 40), max_size=12),
    ),
    min_size=1,
    max_size=10,
    unique_by=lambda row: row[:2],
)


@settings(max_examples=25, deadline=None)
@given(
    rows=pp_rows,
    fraction=st.floats(0.05, 2.0),
    precision=st.floats(0.05, 1.0),
    pulses=st.integers(1, 3),
    pec=st.integers(0, 2500),
    seed=st.integers(0, 2**16),
)
def test_partial_program_locations_equals_serial_loop(
    rows, fraction, precision, pulses, pec, seed
):
    """Voltages, pulse counts, exposure and counters, float-exact."""
    locations = [row[:2] for row in rows]
    cells = [row[2] for row in rows]
    batch, serial, reference = (prepared_chip(seed, pec) for _ in range(3))
    for _ in range(pulses):
        batch.partial_program_locations(
            locations, cells, fraction=fraction, precision=precision
        )
        for (block, page), row in zip(locations, cells):
            serial.partial_program(
                block, page, row, fraction=fraction, precision=precision
            )
            reference_partial_program(
                reference, block, page, row, fraction, precision
            )
    assert_same_state(chip_state(batch), chip_state(reference))
    assert_same_state(chip_state(serial), chip_state(reference))


def test_partial_program_locations_fixed_shapes():
    """Rows spanning blocks, adjacent pages of one block (their disturb
    exposure lands on each other), duplicate indices, empty rows."""
    locations = [(0, 3), (2, 0), (0, 4), (1, 7), (0, 5)]
    cells = [[1, 9, 9, 1, 30], [], [5, 6, 7], [0, 0, 0], []]
    batch, reference = prepared_chip(5, 900), prepared_chip(5, 900)
    batch.partial_program_locations(locations, cells, fraction=1.3)
    for (block, page), row in zip(locations, cells):
        reference_partial_program(reference, block, page, row, 1.3, 1.0)
    assert_same_state(chip_state(batch), chip_state(reference))
    # Page 4 of block 0 sits between two pulsed pages: two exposures.
    flip = TEST_MODEL.params.disturb.pp_flip_prob * 1.3
    assert batch._block(0).page_exposure[4] >= 2 * flip


BAD_ROWS = {
    "page out of range": ((0, PAGES_PER_BLOCK), [1]),
    "block out of range": ((GEOMETRY.n_blocks, 0), [1]),
    "negative cell": ((2, 6), [3, -1]),
    "cell out of range": ((2, 6), [CELLS]),
    "bad block": ((1, 2), [1]),
}


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(sorted(BAD_ROWS)),
    position=st.integers(0, 4),
)
def test_bad_row_anywhere_leaves_chip_untouched(kind, position):
    """Every row is validated before any cell changes; the error is the
    one the serial loop raises first."""
    locations = [(0, 0), (0, 2), (2, 3), (2, 5)]
    cells = [[1, 2], [3], [], [4, 4]]
    bad_location, bad_cells = BAD_ROWS[kind]
    locations.insert(position, bad_location)
    cells.insert(position, bad_cells)
    chip, serial = prepared_chip(3, 0), prepared_chip(3, 0)
    for c in (chip, serial):
        c._block(1).bad = True
    before = chip_state(chip)
    with pytest.raises(NandError) as batch_error:
        chip.partial_program_locations(locations, cells)
    assert_same_state(chip_state(chip), before)
    with pytest.raises(NandError) as serial_error:
        for (block, page), row in zip(locations, cells):
            serial.partial_program(block, page, row)
    assert type(batch_error.value) is type(serial_error.value)
    assert str(batch_error.value) == str(serial_error.value)


@pytest.mark.parametrize(
    "locations, cells, kwargs",
    [
        ([(0, 0), (0, 0)], [[1], [2]], {}),
        ([(0, 0), (0, 1)], [[1]], {}),
        ([], [], {}),
        ([(0, 0)], [[1]], {"fraction": 2.5}),
        ([(0, 0)], [[1]], {"precision": 0.0}),
    ],
)
def test_malformed_batch_leaves_chip_untouched(locations, cells, kwargs):
    chip = prepared_chip(4, 0)
    before = chip_state(chip)
    with pytest.raises((NandError, ValueError)):
        chip.partial_program_locations(locations, cells, **kwargs)
    assert_same_state(chip_state(chip), before)
