"""The fleet workloads: seeded request streams through ``FleetService``.

Each tenant is a closed-loop client: the queue serves at most one
request per tenant per round, and a request's latency runs from the
completion of that tenant's previous request (or from drain start, for
its first) to the return of the shard-round that served it.
:class:`ClosedLoopStamps` takes those stamps around the program's
``CoalescingScheduler``.

Every drain is checked against a per-tenant reference model built from
the request stream (:func:`check_responses`), and every acknowledged
write is read back after the drain (:func:`lost_writes`).
"""

from __future__ import annotations

import _thread
import hashlib
import multiprocessing
import sys
import threading
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    Request,
    Response,
    WorkloadConfig,
    generate_requests,
)

from layers import Recorder, instrument

#: The device seed (``FleetConfig.seed``) is fixed; ``--seed`` drives
#: the request stream and its arrival order only.
DEVICE_SEED = 0

#: A shard-round of these workloads takes well under 3 s; this long
#: without one completing means the run is stuck.
NO_PROGRESS_S = 30.0


@dataclass(frozen=True)
class FleetSpec:
    tenants: int
    n_shards: int
    ops_per_tenant: int
    mix: Tuple[float, float, float]
    lba_space: int
    remote: bool = False
    shard_workers: Optional[int] = None

    @classmethod
    def from_record(cls, params: Dict) -> "FleetSpec":
        return cls(
            tenants=params["tenants"],
            n_shards=params["n_shards"],
            ops_per_tenant=params["ops_per_tenant"],
            mix=tuple(params["mix"]),
            lba_space=params["lba_space"],
            remote=params.get("remote", False),
            shard_workers=params.get("shard_workers"),
        )

    def requests(self, seed: int) -> List[Request]:
        return generate_requests(WorkloadConfig(
            tenants=self.tenants,
            ops_per_tenant=self.ops_per_tenant,
            seed=seed,
            arrival_seed=seed,
            mix=self.mix,
            lba_space=self.lba_space,
        ))

    def service(self) -> FleetService:
        return FleetService(FleetConfig(
            tenants=self.tenants,
            n_shards=self.n_shards,
            seed=DEVICE_SEED,
            remote=self.remote,
            remote_backend="process",
        ))


class Watchdog:
    """A no-progress deadline for one run.

    The workload calls :meth:`beat` whenever work completes.  If no beat
    arrives for `limit_s` seconds the watchdog trips: it runs
    `on_trip` (which must unblock the stuck work, e.g. by killing the
    chip servers it waits on) and records that the run failed.
    """

    def __init__(self, limit_s: float, on_trip) -> None:
        self.limit_s = limit_s
        self.tripped = False
        self._on_trip = on_trip
        self._last = monotonic()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def beat(self) -> None:
        self._last = monotonic()

    def _watch(self) -> None:
        while not self._stop.wait(0.25):
            if monotonic() - self._last > self.limit_s:
                self.tripped = True
                print(
                    f"watchdog: no progress for {self.limit_s:.0f} s, "
                    "stopping the run",
                    file=sys.stderr, flush=True,
                )
                self._on_trip()
                return

    def __enter__(self) -> "Watchdog":
        self.beat()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class ClosedLoopStamps:
    """Scheduler wrapper stamping closed-loop per-request latency."""

    def __init__(self, inner, beat=None) -> None:
        self.inner = inner
        self.name = inner.name
        #: (tenant, index in the tenant's stream) -> latency in seconds.
        self._latency: Dict[Tuple[int, int], float] = {}
        #: tenant -> (requests completed, last completion time).
        self._done: Dict[int, Tuple[int, float]] = {}
        self._origin = 0.0
        self._beat = beat

    def start(self) -> None:
        self._origin = perf_counter()

    def run_round(self, service, shard_id: int, requests: Sequence[Request]):
        responses = self.inner.run_round(service, shard_id, requests)
        now = perf_counter()
        # Shards hold disjoint tenants, so concurrent shard threads
        # never touch the same key.
        for request in requests:
            count, last = self._done.get(request.tenant, (0, self._origin))
            self._latency[(request.tenant, count)] = now - last
            self._done[request.tenant] = (count + 1, now)
        if self._beat is not None:
            self._beat()
        return responses

    @property
    def latencies(self) -> List[float]:
        """Latencies in a fixed request order (tenant, then stream)."""
        return [self._latency[key] for key in sorted(self._latency)]


def _agrees(request: Request, response: Response, model: Dict[int, bytes]):
    """Does `response` match the reference model (updating it)?"""
    if response.kind != request.kind or response.tenant != request.tenant:
        return False
    if request.kind == "write":
        if response.lba != request.lba or response.status != "ok":
            return False
        model[request.lba] = request.payload
        return True
    if request.kind == "read":
        if response.lba != request.lba:
            return False
        expected = model.get(request.lba)
        if expected is None:
            return response.status == "not_found"
        return response.status == "ok" and response.payload == expected
    directory = tuple(sorted((lba, len(data)) for lba, data in model.items()))
    return response.status == "ok" and response.directory == directory


def check_responses(
    requests: Sequence[Request], responses: Sequence[Response]
) -> Tuple[int, Dict[int, Dict[int, bytes]]]:
    """(disagreements, per-tenant model of acknowledged writes).

    Each tenant's responses must answer its requests one for one, in
    FIFO order: a write acknowledges ``ok``; a read returns the last
    acknowledged payload, or ``not_found`` if the LBA was never
    written; a mount lists exactly the model's ``(lba, length)`` set.
    """
    asked: Dict[int, List[Request]] = defaultdict(list)
    answered: Dict[int, List[Response]] = defaultdict(list)
    for request in requests:
        asked[request.tenant].append(request)
    for response in responses:
        answered[response.tenant].append(response)
    failures = sum(
        len(answered[tenant]) for tenant in answered if tenant not in asked
    )
    models: Dict[int, Dict[int, bytes]] = {}
    for tenant, stream in asked.items():
        got = answered.get(tenant, [])
        failures += abs(len(stream) - len(got))
        model = models[tenant] = {}
        for request, response in zip(stream, got):
            if not _agrees(request, response, model):
                failures += 1
    return failures, models


def lost_writes(service: FleetService, models) -> int:
    """Read back every acknowledged write; count the ones not returned."""
    expected = {}
    for tenant, model in models.items():
        for lba, payload in model.items():
            service.submit(Request(tenant, "read", lba))
            expected[(tenant, lba)] = payload
    lost = 0
    for response in service.drain(CoalescingScheduler()):
        payload = expected.pop((response.tenant, response.lba), None)
        if response.status != "ok" or response.payload != payload:
            lost += 1
    return lost + len(expected)


def digest(responses: Sequence[Response]) -> str:
    """Order-free hash of every response's deterministic view."""
    views = sorted(repr(r.deterministic_view()) for r in responses)
    return hashlib.sha256("\n".join(views).encode()).hexdigest()


@dataclass
class FleetIteration:
    """One drain of the workload through a fresh service."""

    ops: int
    wall_s: float
    latencies: List[float]
    failed: int
    kind_status: Counter
    digest: str = ""
    #: The drain was stopped by the no-progress deadline.
    stalled: bool = False
    counters: Dict[str, float] = field(default_factory=dict)


def _stop_stuck_run() -> None:
    """Unblock a stalled drain: kill chip servers, else interrupt."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    if not children:
        _thread.interrupt_main()


def _close_after_stall(service: FleetService) -> None:
    """Close a service whose chip servers were killed mid-stream."""
    for shard in service.shards:
        close = getattr(shard.chip, "close", None)
        if close is None:
            continue
        try:
            close(shutdown=False)
        except OSError:
            pass  # the server is gone; the socket is closed regardless
    service.close()


def run_iteration(
    spec: FleetSpec,
    requests: Sequence[Request],
    service: FleetService,
    recorder: Optional[Recorder] = None,
) -> FleetIteration:
    """Submit every request, drain, check; closes `service`.

    With a `recorder`, the submit and drain run instrumented and with
    the program's own counters on (``fleet_snapshot`` reads them).
    """
    traced = recorder is not None
    obs.set_enabled(traced)
    tracing = instrument(recorder) if traced else nullcontext()
    with Watchdog(NO_PROGRESS_S, _stop_stuck_run) as watchdog, tracing:
        stamps = ClosedLoopStamps(CoalescingScheduler(), watchdog.beat)
        start = perf_counter()
        try:
            for request in requests:
                if not service.submit(request):
                    raise RuntimeError("the workload must fully admit")
            stamps.start()
            responses = service.drain(stamps, shard_workers=spec.shard_workers)
        except BaseException:
            if not watchdog.tripped:
                service.close()
                raise
            responses = None
        wall_s = perf_counter() - start
    if responses is None:
        _close_after_stall(service)
        return FleetIteration(
            ops=len(requests), wall_s=wall_s, latencies=[],
            failed=len(requests), kind_status=Counter(), stalled=True,
        )
    try:
        failed, models = check_responses(requests, responses)
        counters = {}
        if traced:
            snapshot = service.fleet_snapshot().counters
            counters = {
                name: snapshot.get(name, 0.0)
                for name in (
                    "bch.decode.words", "bch.decode.dirty_words",
                    "fleet.rebuilds", "fleet.lost_slots",
                )
            }
            counters["onfi.frames"] = float(sum(
                sum(getattr(shard.chip, "sent_ops", {}).values())
                for shard in service.shards
            ))
        obs.set_enabled(False)
        failed += lost_writes(service, models)
    finally:
        obs.set_enabled(False)
        service.close()
    return FleetIteration(
        ops=len(requests),
        wall_s=wall_s,
        latencies=stamps.latencies,
        failed=failed,
        kind_status=Counter((r.kind, r.status) for r in responses),
        digest=digest(responses),
        counters=counters,
    )


def timed_service(spec: FleetSpec) -> Tuple[FleetService, float]:
    """A fresh service and its construction time (the set-up cost)."""
    start = perf_counter()
    service = spec.service()
    return service, perf_counter() - start
