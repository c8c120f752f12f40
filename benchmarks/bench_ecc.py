"""Scalar vs batch BCH throughput on page-shaped workloads → BENCH_ecc.json.

Times the hot-path shapes on the public pipeline's code (BCH m=13, t=8,
page split into ~`words_per_page` shortened codewords, as `PagePipeline`
does for the TEST_MODEL page):

- ``encode``: full-page encode, scalar loop vs ``encode_many``;
- ``decode_clean``: error-free page decode — the FTL/stego common case the
  all-zero-syndrome fast path exists for;
- ``decode_dirty``: every codeword carries t errors — worst case for the
  batched locator kernels (lockstep Berlekamp-Massey + table-driven Chien);
- ``decode_dirty_w<k>``: a sweep over error weights 1, t/2, t and t+1 —
  the last one beyond capacity, timed with ``on_error="return"`` against a
  try/except scalar loop, the retention/high-PEC shape where failures are
  expected.

A second table, ``fleet_shape``, times the drive fleet's dirty path:
BCH(m=10, t=30) on 640-bit words, as every hidden fleet slot is coded.
Each row decodes the same words at 3-8 or 15-25 raw errors per word,
once as one ``decode_many`` call per word (batch 1, the per-call cost
a one-page decode pays) and once in calls of 300 words (a full
shard-round), against the scalar loop over the same words.

Acceptance bars: batch/scalar >= 5x for ``decode_clean`` and
``decode_dirty`` (ISSUE 3), >= 2x for ``encode`` (ISSUE 2).  Usage::

    PYTHONPATH=src python benchmarks/bench_ecc.py [output.json]
    PYTHONPATH=src python benchmarks/bench_ecc.py --tiny   # CI smoke

``--tiny`` shrinks the workload so the whole script runs in seconds and
skips the speedup floors (tiny batches can't amortise anything); it still
exercises every kernel, verifies bit-exact scalar/batch agreement on every
workload — including which words fail and with what message — and asserts
the batch dirty path is not slower than the scalar loop even at toy sizes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.ecc.bch import EccError, get_code

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ecc.json"

#: The public page pipeline's codec (cli.py init uses m=13, t=8).
CODE_PARAMS = (13, 8)

FULL = dict(words_per_page=2, word_bits=4512, pages=64, repeats=3)
TINY = dict(words_per_page=2, word_bits=512, pages=16, repeats=3)

#: The fleet's hidden-slot codec and coded word length.
FLEET_CODE_PARAMS = (10, 30)
FLEET_WORD_BITS = 640
#: (words per row, batch sizes, error ranges) of the fleet-shape table.
FLEET_FULL = dict(words=300, batches=(1, 300), errors=((3, 8), (15, 25)))
FLEET_TINY = dict(words=30, batches=(1, 30), errors=((3, 8), (15, 25)))

#: (benchmark name, minimum batch/scalar speedup) — ISSUE 2/3 acceptance.
SPEEDUP_FLOORS = {"decode_clean": 5.0, "encode": 2.0, "decode_dirty": 5.0}


def _page_words(code, word_bits, pages, words_per_page, weight):
    """Encoded words for `pages` pages with `weight` errors per word."""
    rng = np.random.default_rng(1234 + weight)
    data_bits = word_bits - code.n_parity
    datas = [
        rng.integers(0, 2, data_bits).astype(np.uint8)
        for _ in range(pages * words_per_page)
    ]
    coded = code.encode_many(datas)
    for word in coded:
        positions = rng.choice(word.size, size=weight, replace=False)
        word[positions] ^= 1
    return datas, coded


def _fleet_words(code, n_words, low, high):
    """Fleet-shaped codewords with `low`..`high` errors each."""
    rng = np.random.default_rng(7000 + low)
    datas = [
        rng.integers(0, 2, FLEET_WORD_BITS - code.n_parity).astype(np.uint8)
        for _ in range(n_words)
    ]
    words = code.encode_many(datas)
    for word in words:
        weight = int(rng.integers(low, high + 1))
        word[rng.choice(word.size, size=weight, replace=False)] ^= 1
    return words


def _scalar_decode_all(code, words):
    """The scalar loop with per-word failure capture (the baseline the
    batch ``on_error="return"`` path replaces)."""
    results = []
    for word in words:
        try:
            results.append(code.decode(word))
        except EccError as error:
            results.append(error)
    return results


def _assert_agreement(code, words):
    """Batch results bit-identical to scalar: data, codeword, corrected
    counts, error positions, and the failure set with its messages."""
    scalar = _scalar_decode_all(code, words)
    batch = code.decode_many(words, on_error="return")
    for index, (expected, got) in enumerate(zip(scalar, batch)):
        if isinstance(expected, EccError):
            assert isinstance(got, EccError), (
                f"word {index}: batch decoded a word the scalar "
                f"decoder rejects"
            )
            assert str(got) == str(expected)
            assert got.batch_index == index
        else:
            assert not isinstance(got, EccError), (
                f"word {index}: batch rejected a word the scalar "
                f"decoder corrects: {got}"
            )
            assert np.array_equal(got.data, expected.data)
            assert got.corrected_errors == expected.corrected_errors
            assert np.array_equal(got.codeword, expected.codeword)
            assert np.array_equal(
                np.asarray(got.error_positions),
                np.asarray(expected.error_positions),
            )


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def collect(params) -> dict:
    code = get_code(*CODE_PARAMS)
    repeats = params["repeats"]
    shape = (
        params["word_bits"], params["pages"], params["words_per_page"],
    )
    datas, clean = _page_words(code, *shape, weight=0)
    _, dirty = _page_words(code, *shape, weight=code.t)

    benchmarks = {}

    def record(name, scalar_fn, batch_fn):
        scalar_s = _time(scalar_fn, repeats)
        batch_s = _time(batch_fn, repeats)
        benchmarks[name] = {
            "scalar_s": round(scalar_s, 4),
            "batch_s": round(batch_s, 4),
            "speedup": round(scalar_s / batch_s, 2),
        }

    record(
        "encode",
        lambda: [code.encode(d) for d in datas],
        lambda: code.encode_many(datas),
    )
    record(
        "decode_clean",
        lambda: [code.decode(w) for w in clean],
        lambda: code.decode_many(clean),
    )
    record(
        "decode_dirty",
        lambda: [code.decode(w) for w in dirty],
        lambda: code.decode_many(dirty),
    )
    _assert_agreement(code, clean)
    _assert_agreement(code, dirty)

    # Error-weight sweep: light (weight 1), half-capacity, at capacity,
    # and beyond capacity (weight t+1, where words are *expected* to
    # fail and both sides run in failure-capture mode).
    for weight in sorted({1, max(1, code.t // 2), code.t, code.t + 1}):
        _, words = _page_words(code, *shape, weight=weight)
        record(
            f"decode_dirty_w{weight}",
            lambda words=words: _scalar_decode_all(code, words),
            lambda words=words: code.decode_many(
                words, on_error="return"
            ),
        )
        _assert_agreement(code, words)

    fleet_params = params["fleet"]
    fleet_code = get_code(*FLEET_CODE_PARAMS)
    fleet_rows = {}
    for low, high in fleet_params["errors"]:
        words = _fleet_words(fleet_code, fleet_params["words"], low, high)
        _assert_agreement(fleet_code, words)
        scalar_s = _time(
            lambda: _scalar_decode_all(fleet_code, words), repeats
        )
        for batch in fleet_params["batches"]:
            chunks = [
                words[start:start + batch]
                for start in range(0, len(words), batch)
            ]
            batch_s = _time(
                lambda: [
                    fleet_code.decode_many(chunk, on_error="return")
                    for chunk in chunks
                ],
                repeats,
            )
            fleet_rows[f"dirty_b{batch}_e{low}-{high}"] = {
                "words": len(words),
                "calls": len(chunks),
                "scalar_s": round(scalar_s, 4),
                "batch_s": round(batch_s, 4),
                "batch_ms_per_call": round(1e3 * batch_s / len(chunks), 3),
                "speedup": round(scalar_s / batch_s, 2),
            }

    return {
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "code": {
            "m": CODE_PARAMS[0], "t": CODE_PARAMS[1],
            "n": code.n, "n_parity": code.n_parity,
        },
        "workload": {k: params[k] for k in
                     ("words_per_page", "word_bits", "pages", "repeats")},
        "benchmarks": benchmarks,
        "fleet_shape": {
            "code": {
                "m": FLEET_CODE_PARAMS[0], "t": FLEET_CODE_PARAMS[1],
                "n": fleet_code.n, "n_parity": fleet_code.n_parity,
                "word_bits": FLEET_WORD_BITS,
            },
            "benchmarks": fleet_rows,
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT
    params = dict(TINY, fleet=FLEET_TINY) if tiny else dict(
        FULL, fleet=FLEET_FULL
    )
    results = collect(params)
    if tiny:
        print("tiny workload: skipping speedup floors, not writing "
              f"{output.name}")
    else:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    for name, entry in results["benchmarks"].items():
        print(f"  {name}: scalar {entry['scalar_s']}s, "
              f"batch {entry['batch_s']}s, {entry['speedup']}x")
    for name, entry in results["fleet_shape"]["benchmarks"].items():
        print(f"  fleet {name}: scalar {entry['scalar_s']}s, "
              f"batch {entry['batch_s']}s in {entry['calls']} calls "
              f"({entry['batch_ms_per_call']} ms/call), "
              f"{entry['speedup']}x")
    if tiny:
        # Even without amortisation the batch dirty path must not lose
        # to the scalar loop — the dispatch overhead has to stay small.
        entry = results["benchmarks"]["decode_dirty"]
        assert entry["batch_s"] <= entry["scalar_s"], (
            f"tiny dirty batch ({entry['batch_s']}s) slower than scalar "
            f"({entry['scalar_s']}s)"
        )
        print("tiny smoke: batch dirty path agrees with scalar and is "
              "not slower")
    else:
        for name, floor in SPEEDUP_FLOORS.items():
            speedup = results["benchmarks"][name]["speedup"]
            assert speedup >= floor, (
                f"{name}: {speedup}x is below the {floor}x acceptance bar"
            )
        print("speedup floors met: "
              + ", ".join(f"{k} >= {v}x" for k, v in SPEEDUP_FLOORS.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
