"""The ``detect_fig10`` workload: the paper's Fig. 10 detectability sweep.

One sweep is ``fig10.run(seed=…, workers=1, backend="serial")``: 3
hidden-data PECs × 4 normal-data PECs, each point a full cross-chip SVM
attack on freshly collected block samples.  An *op* is one labelled
block sample (``analysis.datasets.collect_block_sample``: age, program,
optionally hide, probe, featurise) — 720 per sweep; its latency is the
call's wall time, stamped by a thin wrapper.

The check is the paper's claim on the table: with equal wear the
attacker is near chance, and the widest wear gaps are detected.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List, Tuple

from repro.analysis import datasets
from repro.experiments import fig10

#: Mean accuracy over the equal-PEC cells at or below this is "near
#: chance" (each cell is 20 held-out samples: one sample is 5 points,
#: and three cells at p = 0.5 have a mean standard error of ~6.5).
EQUAL_PEC_MAX = 0.70
#: Mean accuracy over the cells with the widest wear gap (>= 2000 PEC)
#: at or above this counts as "detected".
WIDE_GAP_MIN = 0.75
WIDE_GAP_PEC = 2000


@dataclass
class SweepIteration:
    """One timed sweep."""

    wall_s: float
    latencies: List[float]
    rows: Tuple
    failed: int
    attempted: int
    notes: List[str]


@contextmanager
def _stamp_block_samples(latencies: List[float]) -> Iterator[None]:
    """Time every ``collect_block_sample`` call of the sweep."""
    original = datasets.collect_block_sample

    def stamped(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        latencies.append(perf_counter() - start)
        return result

    datasets.collect_block_sample = stamped
    try:
        yield
    finally:
        datasets.collect_block_sample = original


def check_claim(result) -> Tuple[int, List[str]]:
    """(failed grid points, notes): table shape plus the paper's claim."""
    hidden = fig10.DEFAULT_HIDDEN_PECS
    normal = fig10.DEFAULT_NORMAL_PECS
    notes = []
    failed = 0
    rows = result.rows()
    if len(rows) != len(hidden) or any(
        len(row) != len(normal) + 1 for row in rows
    ):
        notes.append(f"table shape {[len(r) for r in rows]} is wrong")
        failed += len(hidden) * len(normal)
    cells = {}
    for h in hidden:
        for n in normal:
            accuracy = result.accuracy(h, n)
            if not 0.0 <= accuracy <= 1.0:
                failed += 1
            cells[(h, n)] = accuracy
    equal = [cells[(p, p)] for p in hidden if p in normal]
    wide = [a for (h, n), a in cells.items() if abs(h - n) >= WIDE_GAP_PEC]
    equal_mean = sum(equal) / len(equal)
    wide_mean = sum(wide) / len(wide)
    notes.append(
        f"claim: equal-PEC mean accuracy {equal_mean:.3f} "
        f"(<= {EQUAL_PEC_MAX}), gap>={WIDE_GAP_PEC} mean "
        f"{wide_mean:.3f} (>= {WIDE_GAP_MIN})"
    )
    if equal_mean > EQUAL_PEC_MAX:
        notes.append("claim FAILED: equal-PEC cells are not near chance")
        failed += len(equal)
    if wide_mean < WIDE_GAP_MIN:
        notes.append("claim FAILED: the widest wear gaps are not detected")
        failed += len(wide)
    return failed, notes


def run_sweep(seed: int) -> SweepIteration:
    """One timed, checked sweep."""
    latencies: List[float] = []
    with _stamp_block_samples(latencies):
        start = perf_counter()
        result = fig10.run(seed=seed, workers=1, backend="serial")
        wall_s = perf_counter() - start
    failed, notes = check_claim(result)
    return SweepIteration(
        wall_s=wall_s,
        latencies=latencies,
        rows=tuple(tuple(row) for row in result.rows()),
        failed=failed,
        attempted=len(result.outcomes),
        notes=notes,
    )


def import_seconds(src: str) -> float:
    """Wall time of a fresh interpreter loading the sweep's modules.

    The sweep has no service to construct, so its set-up cost is
    loading the program: work moved to import time shows here.
    """
    env = dict(os.environ, PYTHONPATH=src, REPRO_OBS="0")
    code = "import repro.experiments.fig10, repro.analysis.detect"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return perf_counter() - start
