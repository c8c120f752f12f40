"""The repository's re-runnable benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_read --seed 1 --seconds 45 --trace 0

Workloads (parameters, purpose, layers loaded and bypassed, default and
held-out seeds are recorded in ``perfbench/workloads.json``):

- ``fleet_read``, ``fleet_write``: seeded request streams drained through
  an in-process ``FleetService`` with the coalescing scheduler.  An op is
  one tenant request.  These two are the benchmark (``BENCHMARK.json``).
- ``fleet_remote``: ``fleet_read``'s inputs with every shard chip behind
  its own chip-server process.  It deadlocks in round 1; the run shows
  it as failed ops once the no-progress deadline stops it.
- ``detect_fig10``: the Fig. 10 SVM detectability sweep.  An op is one
  labelled block sample; ``attempted``/``failed`` count checked grid
  points, and a grid point fails when the table breaks the paper's
  claim, which it does on some seeds.

The last two stay runnable but are left out of ``BENCHMARK.json``, whose
workloads must not fail; ``workloads.json`` records why.

``--trace 0`` repeats the workload with ``REPRO_OBS=0``, at least
``MIN_REPEATS`` times and until ``--seconds`` of measured time have
passed, and prints the end-to-end metrics.  ``--trace 1`` runs it
three times, the middle run with every layer's public functions wrapped
(see ``layers.py``), prints the per-layer breakdown, reconciles self times
with wall time and reports the tracing overhead.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any output check fails.
Spans and a full result record are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from layers import TARGETS, Recorder, instrument
from measure import (
    interquartile_mean, machine_fingerprint, peak_rss_mb, percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RECORD = Path(__file__).resolve().parent / "workloads.json"

#: Thread-count variables of the BLAS libraries numpy may load; the
#: benchmark pins them to 1.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)

#: Iterations per ``--trace 0`` run at least, however short
#: ``--seconds`` is: each op's latency is the interquartile mean of its
#: repeats.
MIN_REPEATS = 4

#: Traced self time must cover this share of traced wall time (the rest
#: is the drain loop's own queueing and the benchmark's stamps).
COVERAGE_MIN = 0.90

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Functions whose calls, items and self time go on the result line of
#: ``--trace 1``: those the benchmarked fleet workloads enter (a layer
#: a workload never enters would read a constant 0).  The breakdown
#: printed above the result line and saved with the result record
#: covers every wrapped function, ml, analysis and onfi included.
PER_LAYER_FUNCTIONS = (
    "fleet.execute_round",
    "hiding.selection.select_cells",
    "stego.metadata.pack_slot",
    "stego.metadata.unpack_slot",
    "hiding.payload.encode_pages_keyed",
    "hiding.payload.decode_pages_keyed",
    "ecc.bch.encode_many",
    "ecc.bch.decode_many",
    "hiding.vthi.embed_prepared",
    "nand.chip.read_locations",
    "nand.chip.program_locations",
    "nand.chip.probe_voltages_locations",
    "nand.chip.partial_program",
    "nand.chip.erase_block",
)

#: Ratios (each with its base among the counts) and the program's own
#: counters, then the trace's wall times, overhead and coverage.
PER_LAYER_DERIVED = (
    "hiding.select_cells.cache_hit_ratio",
    "hiding.pages_touched",
    "vthi.pp_steps_per_page",
    "hiding.payload.decode_ok_ratio",
    "stego.unpack_slot.valid_ratio",
    "ecc.bch.dirty_ratio",
    "bch.decode.words",
    "fleet.batch_fill",
    "fleet.rebuilds",
    "fleet.lost_slots",
    "trace.traced_s",
    "trace.untraced_s",
    "trace.overhead_ratio",
    "trace.coverage_ratio",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric on the result line, in order."""
    batched = {target.name for target in TARGETS if target.batched}
    names = []
    for function in PER_LAYER_FUNCTIONS:
        names.append(f"{function}.calls")
        if function in batched:
            names.append(f"{function}.items")
        names.append(f"{function}.self_s")
    layers = dict.fromkeys(
        target.layer for target in TARGETS
        if target.name in PER_LAYER_FUNCTIONS
    )
    names += [f"{layer}.self_s" for layer in layers]
    return names + list(PER_LAYER_DERIVED)


@dataclass
class Report:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: name -> (value, unit, samples)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Every per-layer figure of a traced run (``metrics`` holds the
    #: reported subset).
    breakdown: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.lines.append(line)
        print(f"# {line}", flush=True)


def end_to_end(report, ops, walls, repeats, setups) -> None:
    """Fill the end-to-end metrics from one run's iterations.

    `repeats` holds one latency list per iteration, each in the same
    op order (the iterations replay identical inputs).  An op's latency
    is the interquartile mean of its repeats, which keeps one slow
    stretch of the host out of the percentiles.  This matters most for
    ``op_p99_ms``: closed-loop latencies come in clusters of one value
    per shard-round, so the p99 is set by a single round pair (the
    first, cold one) sampled once per iteration.
    """
    latencies = [interquartile_mean(op) for op in zip(*repeats)]
    metrics = {
        # A run with no completed iteration (a stalled remote drain)
        # has no timings: it reports zeros next to its failed ops.
        "ops_per_s": (
            interquartile_mean([n / wall for n, wall in zip(ops, walls)])
            if walls else 0.0,
            sum(ops),
        ),
        "op_p50_ms": (
            1e3 * percentile(latencies, 50) if latencies else 0.0,
            len(latencies),
        ),
        "op_p99_ms": (
            1e3 * percentile(latencies, 99) if latencies else 0.0,
            len(latencies),
        ),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    for name, unit in END_TO_END:
        value, samples = metrics[name]
        report.metrics[name] = (value, unit, samples)


def layer_metrics(report, recorder, traced_s, untraced_s, counters,
                  threads=1) -> None:
    """Every per-layer figure of a traced run; reports ``per_layer_names``."""
    stats = recorder.stats
    full = report.breakdown
    for name, st in stats.items():
        full[f"{name}.calls"] = (st.calls, "count", st.calls)
        full[f"{name}.items"] = (st.items, "count", st.calls)
        full[f"{name}.self_s"] = (st.self_s, "s", st.calls)
    for layer, self_s in recorder.layer_self_s().items():
        full[f"{layer}.self_s"] = (self_s, "s", 1)

    def ratio(num, den):
        return num / den if den else 0.0

    embedded = (
        stats["hiding.vthi.embed_prepared"].items
        + stats["hiding.vthi.embed_bits"].items
    )
    decoded = stats["hiding.payload.decode_pages_keyed"].items
    touched = embedded + decoded
    steps = (
        stats["hiding.vthi.embed_prepared"].useful
        + stats["hiding.vthi.embed_bits"].useful
    )
    select = stats["hiding.selection.select_cells"]
    unpack = stats["stego.metadata.unpack_slot"]
    decode = stats["hiding.payload.decode_pages_keyed"]
    rounds = stats["fleet.execute_round"]
    words = counters.get("bch.decode.words", 0.0)
    self_total = sum(st.self_s for st in stats.values())
    full.update({
        "hiding.select_cells.cache_hit_ratio": (
            1.0 - ratio(select.calls, touched) if touched else 0.0,
            "ratio", touched),
        "hiding.pages_touched": (touched, "count", touched),
        "vthi.pp_steps_per_page": (ratio(steps, embedded), "ratio", embedded),
        "hiding.payload.decode_ok_ratio": (
            ratio(decode.useful, decode.attempted), "ratio", decode.attempted),
        "stego.unpack_slot.valid_ratio": (
            ratio(unpack.useful, unpack.attempted), "ratio", unpack.attempted),
        "ecc.bch.dirty_ratio": (
            ratio(counters.get("bch.decode.dirty_words", 0.0), words),
            "ratio", int(words)),
        "bch.decode.words": (words, "count", 1),
        "fleet.batch_fill": (
            ratio(rounds.items, rounds.calls), "requests", rounds.calls),
        "fleet.rebuilds": (counters.get("fleet.rebuilds", 0.0), "count", 1),
        "fleet.lost_slots": (
            counters.get("fleet.lost_slots", 0.0), "count", 1),
        "onfi.frames": (counters.get("onfi.frames", 0.0), "count", 1),
        "trace.traced_s": (traced_s, "s", 1),
        "trace.untraced_s": (untraced_s, "s", 1),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio", 1),
        "trace.coverage_ratio": (
            ratio(self_total, traced_s * threads), "ratio", 1),
    })

    report.note("per-layer breakdown (traced run):")
    for name in sorted(stats):
        st = stats[name]
        if st.calls:
            report.note(
                f"  {name:46s} calls={st.calls:<7d} items={st.items:<8d} "
                f"self={st.self_s:9.4f} s"
            )
    shares = sorted(
        ((s / traced_s, layer) for layer, s in recorder.layer_self_s().items()),
        reverse=True,
    )
    report.note("top-3 layer shares of traced wall: " + ", ".join(
        f"{layer} {100 * share:.1f}%" for share, layer in shares[:3]
    ))
    coverage = full["trace.coverage_ratio"][0]
    verdict = "ok" if COVERAGE_MIN <= coverage <= 1.0 + 1e-9 else "OUT OF TOLERANCE"
    report.note(
        f"reconcile: layer self times sum to {self_total:.3f} s of "
        f"{traced_s:.3f} s traced wall x {threads} thread(s) = "
        f"{100 * coverage:.1f}% (tolerance {100 * COVERAGE_MIN:.0f}-100%): "
        f"{verdict}"
    )
    report.note(
        f"tracing overhead: traced {traced_s:.3f} s / plain (mean) "
        f"{untraced_s:.3f} s = {full['trace.overhead_ratio'][0]:.3f}x"
    )
    for name in per_layer_names():
        report.metrics[name] = full[name]


def save_spans(report, recorder) -> None:
    """Write the traced run's spans under ``.perfbench_out/``."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{recorder.run_id}.jsonl"
    count = recorder.write_jsonl(path)
    report.note(f"{count} spans -> {path.relative_to(ROOT)}")


def run_fleet(report, name, record, seed, seconds, trace):
    # The workload modules import repro, which is importable only once
    # main() has put the checkout's src/ on the path.
    from fleet_workloads import FleetSpec, run_iteration, timed_service

    spec = FleetSpec.from_record(record["params"])
    requests = spec.requests(seed)

    def one(label, recorder=None):
        service, setup_s = timed_service(spec)
        it = run_iteration(spec, requests, service, recorder)
        report.attempted += it.ops
        report.failed += it.failed
        report.note(
            f"{label}: {it.ops} ops in {it.wall_s:.3f} s, failed "
            f"{it.failed}{' (STALLED: no-progress deadline)' if it.stalled else ''}"
            + "; (kind,status) " + " ".join(
                f"{kind}/{status}={count}"
                for (kind, status), count in sorted(it.kind_status.items())
            )
            + f"; digest {it.digest[:16]}"
        )
        return it, setup_s

    iterations, setups = [], []
    if trace:
        # Plain iterations bracket the traced one, so host drift during
        # the run cancels out of the overhead ratio.
        before, _ = one("plain iteration")
        recorder = Recorder(f"{name}-seed{seed}")
        traced, _ = one("traced iteration", recorder)
        after, _ = one("plain iteration")
        iterations = [before, traced, after]
        layer_metrics(
            report, recorder, traced.wall_s,
            (before.wall_s + after.wall_s) / 2,
            traced.counters, threads=spec.shard_workers or 1,
        )
        save_spans(report, recorder)
    else:
        measured = 0.0
        while len(iterations) < MIN_REPEATS or measured < seconds:
            it, setup_s = one(f"iteration {len(iterations) + 1}")
            iterations.append(it)
            setups.append(setup_s)
            measured += it.wall_s
            if it.stalled:
                break
        done = [it for it in iterations if not it.stalled]
        end_to_end(
            report,
            [it.ops for it in done],
            [it.wall_s for it in done],
            [it.latencies for it in done],
            setups,
        )
    digests = {it.digest for it in iterations if not it.stalled}
    if len(digests) > 1:
        report.note("FAILED: iterations of the same inputs disagree")
        report.correct = False
    if spec.remote and digests and not any(it.stalled for it in iterations):
        local = FleetSpec.from_record(dict(
            record["params"], remote=False, shard_workers=None
        ))
        service, _ = timed_service(local)
        reference = run_iteration(local, requests, service)
        same = digests == {reference.digest}
        report.note(f"remote digest equals in-process digest: {same}")
        report.correct &= same
    report.correct &= report.failed == 0


def run_detect(report, name, record, seed, seconds, trace):
    from detect_workload import import_seconds, run_sweep

    def one(label):
        it = run_sweep(seed)
        report.attempted += it.attempted
        report.failed += it.failed
        report.note(
            f"{label}: {len(it.latencies)} block samples, {it.attempted} "
            f"grid points in {it.wall_s:.3f} s, failed {it.failed}; "
            f"accuracy rows {list(it.rows)}"
        )
        for line in it.notes:
            report.note(f"  {line}")
        return it

    if trace:
        before = one("plain sweep")
        recorder = Recorder(f"{name}-seed{seed}")
        with instrument(recorder):
            traced = one("traced sweep")
        after = one("plain sweep")
        iterations = [before, traced, after]
        layer_metrics(
            report, recorder, traced.wall_s,
            (before.wall_s + after.wall_s) / 2, {},
        )
        save_spans(report, recorder)
    else:
        setups = [import_seconds(str(SRC)) for _ in range(MIN_REPEATS)]
        iterations = []
        while (
            len(iterations) < MIN_REPEATS
            or sum(it.wall_s for it in iterations) < seconds
        ):
            iterations.append(one(f"sweep {len(iterations) + 1}"))
        end_to_end(
            report,
            [len(it.latencies) for it in iterations],
            [it.wall_s for it in iterations],
            [it.latencies for it in iterations],
            setups,
        )
    if len({it.rows for it in iterations}) > 1:
        report.note("FAILED: sweeps of the same inputs disagree")
        report.correct = False
    report.correct &= report.failed == 0


RUNNERS = {"fleet": run_fleet, "detect": run_detect}


def main(argv=None) -> int:
    records = json.loads(RECORD.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(records))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help=f"measured time per run (at least {MIN_REPEATS} iterations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run it from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    os.environ["REPRO_OBS"] = "0"
    # numpy's BLAS would otherwise spin a second thread on a 2-CPU host,
    # and its speed would follow whatever else runs on that CPU.  Set
    # before numpy is imported; chip-server children inherit it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(1, str(SRC))
    from repro import obs

    obs.set_enabled(False)
    record = records[args.workload]
    seed = record["default_seed"] if args.seed is None else args.seed
    fingerprint = machine_fingerprint()
    report = Report()
    report.note(
        f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    report.note(f"machine: {json.dumps(fingerprint, sort_keys=True)}")
    report.note(f"params: {json.dumps(record['params'], sort_keys=True)}")
    RUNNERS[record["kind"]](
        report, args.workload, record, seed, args.seconds, args.trace
    )
    for name, (value, unit, samples) in report.metrics.items():
        report.note(f"metric {name} = {value:.6g} {unit} (n={samples})")
    share = report.failed / report.attempted if report.attempted else 1.0
    report.note(
        f"fail_share = {report.failed}/{report.attempted} = {share:.6g}; "
        f"correct = {report.correct}"
    )
    result = {
        "correct": bool(report.correct),
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in report.metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "workload": args.workload, "seed": seed, "trace": args.trace,
            "seconds": args.seconds, "machine": fingerprint,
            "record": record, "result": result,
            "samples": {n: s for n, (_, _, s) in report.metrics.items()},
            "breakdown": report.breakdown,
            "lines": report.lines,
        }, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
