"""Percentiles, peak memory and the machine fingerprint of a result."""

from __future__ import annotations

import os
import platform
import resource
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank `q`-th percentile (0 < q <= 100) of `values`.

    The same rule as ``repro.fleet.slo.percentile``, kept here so that
    no change to the program can change how the benchmark scores it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of `values` without their lowest and highest quarter.

    As robust as the median to a few slow repeats, but it averages the
    middle half instead of picking one value, so a run's figure moves
    less with where the host's slow stretches happen to fall.  With
    fewer than four values nothing is dropped.
    """
    if not values:
        raise ValueError("interquartile mean of an empty sample")
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    ``ru_maxrss`` is in KiB on Linux.  Children count once they have
    been waited for, which every workload does before reporting.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_fingerprint() -> Dict[str, object]:
    """What a result must be compared within: CPU class and toolchain."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
