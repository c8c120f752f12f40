"""Coalescing is semantics-free: bit-identical per-tenant results.

The headline property of the fleet layer (DESIGN §12): for any workload,
any arrival interleaving, any round cap and either scheduler, every
tenant observes exactly the same responses — coalescing changes *when*
chip work happens, never *what* a tenant reads back.  Hypothesis drives
the workload generator's seeds and the queue/scheduler knobs; the chips
are compared down to raw block voltages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FLEET_HIDING,
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    NaiveScheduler,
    WorkloadConfig,
    generate_requests,
)
from repro.hiding import select_cells
from repro.hiding.selection import cell_order

SETTINGS = dict(max_examples=8, deadline=None)


def run_workload(
    workload,
    scheduler,
    n_shards=2,
    fleet_seed=9,
    max_round_requests=None,
    hiding=FLEET_HIDING,
):
    service = FleetService(FleetConfig(
        tenants=workload.tenants,
        n_shards=n_shards,
        seed=fleet_seed,
        max_round_requests=max_round_requests,
        hiding=hiding,
    ))
    for request in generate_requests(workload):
        assert service.submit(request)
    responses = service.drain(scheduler)
    return service, sorted(r.deterministic_view() for r in responses)


def assert_chips_identical(service_a, service_b):
    for shard_a, shard_b in zip(service_a.shards, service_b.shards):
        for block in range(service_a.model.geometry.n_blocks):
            np.testing.assert_array_equal(
                shard_a.chip._block(block).voltages,
                shard_b.chip._block(block).voltages,
            )


def int_counters(service):
    totals = service.fleet_snapshot().op_counters
    return (
        totals.reads, totals.programs, totals.erases,
        totals.partial_programs,
    )


class TestSchedulerEquivalence:
    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**16),
        tenants=st.integers(1, 10),
        ops=st.integers(1, 6),
    )
    def test_naive_and_coalesced_bit_identical(self, seed, tenants, ops):
        workload = WorkloadConfig(
            tenants=tenants, ops_per_tenant=ops, seed=seed
        )
        shards = min(2, tenants)
        svc_naive, out_naive = run_workload(
            workload, NaiveScheduler(), n_shards=shards
        )
        svc_coal, out_coal = run_workload(
            workload, CoalescingScheduler(), n_shards=shards
        )
        assert out_naive == out_coal
        # Not just the responses: the simulated silicon ends bit-equal.
        assert_chips_identical(svc_naive, svc_coal)
        assert int_counters(svc_naive) == int_counters(svc_coal)

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**16),
        arrival_a=st.integers(0, 2**16),
        arrival_b=st.integers(0, 2**16),
    )
    def test_arrival_interleaving_is_immaterial(
        self, seed, arrival_a, arrival_b
    ):
        base = dict(tenants=6, ops_per_tenant=4, seed=seed)
        wl_a = WorkloadConfig(arrival_seed=arrival_a, **base)
        wl_b = WorkloadConfig(arrival_seed=arrival_b, **base)
        svc_a, out_a = run_workload(wl_a, CoalescingScheduler())
        svc_b, out_b = run_workload(wl_b, CoalescingScheduler())
        assert out_a == out_b
        assert_chips_identical(svc_a, svc_b)

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**16),
        cap=st.one_of(st.none(), st.integers(1, 5)),
    )
    def test_round_cap_is_immaterial(self, seed, cap):
        workload = WorkloadConfig(tenants=6, ops_per_tenant=4, seed=seed)
        _, capped = run_workload(
            workload, CoalescingScheduler(), max_round_requests=cap
        )
        _, uncapped = run_workload(workload, CoalescingScheduler())
        assert capped == uncapped

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**16),
        shards_a=st.integers(1, 4),
        shards_b=st.integers(1, 4),
    )
    def test_shard_count_is_service_invisible(self, seed, shards_a, shards_b):
        # Placement (shard/block/chip seed) changes with the shard
        # count, so voltages and pp_steps legitimately differ — but the
        # service-level outcome (status, payload, directory) of every
        # request must not.
        workload = WorkloadConfig(tenants=6, ops_per_tenant=4, seed=seed)
        _, out_a = run_workload(
            workload, CoalescingScheduler(), n_shards=shards_a
        )
        _, out_b = run_workload(
            workload, CoalescingScheduler(), n_shards=shards_b
        )
        def strip(view):
            return view[:6]  # drop pp_steps

        assert [strip(v) for v in out_a] == [strip(v) for v in out_b]


def fleet_counter(service, name):
    return service.aggregator.totals().counters.get(name, 0)


def spy_rebuild_batches(service):
    """Record the job count of every rebuild batch the service runs."""
    sizes = []
    rebuild = service._rebuild

    def spy(shard, jobs):
        if jobs:
            sizes.append(len(jobs))
        return rebuild(shard, jobs)

    service._rebuild = spy
    return sizes


def assert_rebuild_equivalence(workload, hiding=FLEET_HIDING):
    """Naive vs coalesced on a rebuild-heavy workload: responses, chips,
    op counts and rebuild/loss counters all equal; returns the coalesced
    service's (rebuilds, lost slots, rebuild batch sizes)."""
    runs = {}
    for name, scheduler in (
        ("naive", NaiveScheduler()), ("coalesced", CoalescingScheduler()),
    ):
        service = FleetService(FleetConfig(
            tenants=workload.tenants, n_shards=2, seed=9, hiding=hiding,
        ))
        # Two host pages per tenant: every third write to a full block
        # rebuilds it.
        assert len(service._host_pages) == 2
        sizes = spy_rebuild_batches(service)
        for request in generate_requests(workload):
            assert service.submit(request)
        responses = service.drain(scheduler)
        runs[name] = (
            service,
            sorted(r.deterministic_view() for r in responses),
            sizes,
        )
    (naive, out_naive, naive_sizes), (coal, out_coal, coal_sizes) = (
        runs["naive"], runs["coalesced"],
    )
    assert out_naive == out_coal
    assert_chips_identical(naive, coal)
    assert int_counters(naive) == int_counters(coal)
    totals_naive = naive.fleet_snapshot().op_counters
    totals_coal = coal.fleet_snapshot().op_counters
    assert totals_naive.busy_time_s == pytest.approx(
        totals_coal.busy_time_s, rel=1e-12
    )
    assert totals_naive.energy_j == pytest.approx(
        totals_coal.energy_j, rel=1e-12
    )
    for name in ("fleet.rebuilds", "fleet.lost_slots"):
        assert fleet_counter(naive, name) == fleet_counter(coal, name)
    # The naive scheduler hands execute_round one request at a time.
    assert set(naive_sizes) <= {1}
    return (
        fleet_counter(coal, "fleet.rebuilds"),
        fleet_counter(coal, "fleet.lost_slots"),
        coal_sizes,
    )


class TestSameRoundRebuilds:
    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**16),
        tenants=st.integers(4, 10),
        ops=st.integers(4, 6),
        lba_space=st.integers(1, 2),
    )
    def test_batched_rebuilds_bit_identical(
        self, seed, tenants, ops, lba_space
    ):
        workload = WorkloadConfig(
            tenants=tenants, ops_per_tenant=ops, seed=seed,
            lba_space=lba_space, mix=(0.85, 0.15, 0.0),
        )
        rebuilds, _, _ = assert_rebuild_equivalence(workload)
        assert rebuilds > 0

    def test_several_tenants_rebuild_in_one_shard_round(self):
        workload = WorkloadConfig(
            tenants=8, ops_per_tenant=5, seed=4, lba_space=2,
            mix=(1.0, 0.0, 0.0),
        )
        rebuilds, _, sizes = assert_rebuild_equivalence(workload)
        assert rebuilds == sum(sizes)
        assert max(sizes) > 1

    def test_uncorrectable_rebuild_reads_drop_identically(self):
        # A deliberately feeble code (t=2 against a ~6-error/page raw
        # BER): rebuild read-back decodes fail and their slots are lost,
        # the same ones under both schedulers.
        workload = WorkloadConfig(
            tenants=6, ops_per_tenant=5, seed=2, lba_space=2,
            mix=(1.0, 0.0, 0.0),
        )
        rebuilds, lost, sizes = assert_rebuild_equivalence(
            workload, hiding=FLEET_HIDING.replace(ecc_t=2)
        )
        assert rebuilds > 0
        assert lost > 0
        assert max(sizes) > 1


class TestReplayDeterminism:
    def test_same_config_same_everything(self):
        workload = WorkloadConfig(tenants=5, ops_per_tenant=5, seed=123)
        svc_a, out_a = run_workload(workload, CoalescingScheduler())
        svc_b, out_b = run_workload(workload, CoalescingScheduler())
        assert out_a == out_b
        assert_chips_identical(svc_a, svc_b)
        snap_a = svc_a.fleet_snapshot()
        snap_b = svc_b.fleet_snapshot()
        assert snap_a.counters == snap_b.counters
        # float totals too: same submission order => bit-equal floats
        assert snap_a.op_counters.busy_time_s == snap_b.op_counters.busy_time_s
        assert snap_a.op_counters.energy_j == snap_b.op_counters.energy_j


class TestSelectionCache:
    """The keyed order is cached per tenant host page across rebuilds;
    only the per-epoch filter reruns, and it still equals a fresh
    selection on the current cover."""

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**16), rounds=st.integers(2, 4))
    def test_order_survives_rebuilds(self, seed, rounds):
        service = FleetService(FleetConfig(tenants=6, n_shards=2, seed=9))
        geometry = service.model.geometry
        orders = {}
        for k in range(rounds):
            workload = WorkloadConfig(
                tenants=6, ops_per_tenant=4, seed=seed + k,
                lba_space=2, mix=(1.0, 0.0, 0.0),
            )
            for request in generate_requests(workload):
                assert service.submit(request)
            service.drain(CoalescingScheduler())
            for ts in service.tenants.values():
                for page, order in ts.order.items():
                    key = (ts.tenant, page)
                    if key in orders:
                        assert order is orders[key]
                    orders[key] = order
        for ts in service.tenants.values():
            assert ts.epoch >= rounds - 1  # every tenant rebuilt
            for page, order in ts.order.items():
                address = geometry.page_address(ts.block, page)
                n = geometry.cells_per_page
                np.testing.assert_array_equal(
                    order, cell_order(ts.key, address, n, n)
                )
                assert order.dtype == np.uint16
            for page, cells in ts.cells.items():
                address = geometry.page_address(ts.block, page)
                np.testing.assert_array_equal(
                    cells,
                    select_cells(
                        ts.key, address, ts.cover_bits[page],
                        service._coded_len,
                    ),
                )
