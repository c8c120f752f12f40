"""Per-layer timing wrappers for the traced benchmark run.

The benchmark times calls into each layer's public functions from the
outside: :func:`instrument` swaps every function and method listed in
:data:`TARGETS` for a wrapper that records a span (id, parent id, name,
start, end) and folds the call into per-function totals of calls,
items and *self* time — the call's duration minus the time spent in
wrapped calls nested inside it, on the same thread.  The program is
untouched; :func:`instrument` restores every original attribute on
exit.

Spans stay in memory, one tuple each, until :meth:`Recorder.write_jsonl`
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _ok_pages(result) -> Tuple[int, int]:
    """(decoded, attempted) pages of a keyed batch decode."""
    return sum(blob is not None for blob in result), len(result)


def _valid_slot(result) -> Tuple[int, int]:
    """(authentic, parsed) slots of one ``unpack_slot``."""
    return int(result is not None), 1


def _prepared_steps(result) -> Tuple[int, int]:
    """(PP steps, pages) of ``VtHi.embed_prepared``."""
    return sum(steps for steps, _ in result), len(result)


def _embed_steps(result) -> Tuple[int, int]:
    """(PP steps, pages) of ``VtHi.embed_bits``."""
    return result.pp_steps_used, 1


#: Chip data-path methods, timed on ``FlashChip`` (layer ``nand.chip``)
#: and on the wire client ``RemoteChip`` (layer ``onfi``, where a call's
#: time is client-observed: framing, wire and server), with the
#: position of their location batch (``None``: one page per call).
CHIP_METHODS = (
    ("read_locations", 0),
    ("program_locations", 0),
    ("probe_voltages_locations", 0),
    ("partial_program", None),
    ("erase_block", None),
    ("age_block", None),
    ("program_page", None),
    ("probe_voltages", None),
)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``owner`` is the class holding the method, or ``None`` for a module
    function (then every loaded ``repro`` module that imported the
    function by name is patched too).  ``batch_arg`` is the position,
    after ``self``, of the argument whose length is the call's item
    count (``None``: one item per call); ``outcome`` maps a result to
    (useful, attempted) counts.
    """

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    batch_arg: Optional[int] = None
    outcome: Optional[Callable] = None

    @property
    def batched(self) -> bool:
        return self.batch_arg is not None

    @property
    def name(self) -> str:
        if self.layer == "ml":
            return f"{self.layer}.{self.owner}.{self.attr}"
        return f"{self.layer}.{self.attr}"


TARGETS = (
    Target("fleet", "repro.fleet.service", "FleetService", "execute_round",
           batch_arg=1),
    Target("hiding.selection", "repro.hiding.selection", None,
           "select_cells"),
    Target("stego.metadata", "repro.stego.metadata", None, "pack_slot"),
    Target("stego.metadata", "repro.stego.metadata", None, "unpack_slot",
           outcome=_valid_slot),
    Target("hiding.payload", "repro.hiding.payload", "PayloadCodec",
           "encode_pages_keyed", batch_arg=0),
    Target("hiding.payload", "repro.hiding.payload", "PayloadCodec",
           "decode_pages_keyed", batch_arg=0, outcome=_ok_pages),
    Target("ecc.bch", "repro.ecc.bch", "BchCode", "encode_many",
           batch_arg=0),
    Target("ecc.bch", "repro.ecc.bch", "BchCode", "decode_many",
           batch_arg=0),
    Target("hiding.vthi", "repro.hiding.vthi", "VtHi", "embed_prepared",
           batch_arg=0, outcome=_prepared_steps),
    Target("hiding.vthi", "repro.hiding.vthi", "VtHi", "embed_bits",
           outcome=_embed_steps),
    *(
        Target(layer, module, owner, method, batch_arg=batch_arg)
        for layer, module, owner in (
            ("nand.chip", "repro.nand.chip", "FlashChip"),
            # The wire client has no age_block; only experiments age.
            ("onfi", "repro.onfi.client", "RemoteChip"),
        )
        for method, batch_arg in CHIP_METHODS
        if owner == "FlashChip" or method != "age_block"
    ),
    Target("analysis", "repro.analysis.datasets", None,
           "collect_block_sample"),
    Target("analysis", "repro.analysis.detect", None, "detect_at"),
    Target("ml", "repro.ml.svm", "SVC", "fit", batch_arg=0),
    Target("ml", "repro.ml.svm", "SVC", "predict", batch_arg=0),
)


@dataclass
class FunctionStats:
    """Totals of one wrapped function over a traced run."""

    layer: str
    calls: int = 0
    items: int = 0
    self_s: float = 0.0
    useful: int = 0
    attempted: int = 0


@dataclass
class Recorder:
    """Spans and per-function totals of one traced run."""

    run_id: str
    stats: Dict[str, FunctionStats] = field(default_factory=dict)
    #: (span id, parent span id or 0, name, start, end), in end order.
    spans: List[Tuple[int, int, str, float, float]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        for target in TARGETS:
            self.stats[target.name] = FunctionStats(target.layer)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, original: Callable, method: bool):
        """A timing wrapper around `original` for `target`."""
        name = target.name
        stats = self.stats[name]
        batch_arg = None if target.batch_arg is None else (
            target.batch_arg + int(method)
        )
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                recorder.spans.append((span_id, parent, name, start, end))
            if batch_arg is not None and len(args) > batch_arg:
                items = len(args[batch_arg])
            else:
                items = 1
            useful, attempted = (
                target.outcome(result) if target.outcome else (0, 0)
            )
            with recorder._lock:
                stats.calls += 1
                stats.items += items
                stats.self_s += duration - frame[1]
                stats.useful += useful
                stats.attempted += attempted
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        return wrapper

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer."""
        totals: Dict[str, float] = {}
        for stats in self.stats.values():
            totals[stats.layer] = totals.get(stats.layer, 0.0) + stats.self_s
        return totals

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every :data:`TARGETS` callable for the duration of the block."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if target.owner is not None:
                owner = getattr(module, target.owner)
                original = owner.__dict__[target.attr]
                restore.append((owner, target.attr, original))
                setattr(owner, target.attr,
                        recorder.wrap(target, original, method=True))
                continue
            original = getattr(module, target.attr)
            wrapper = recorder.wrap(target, original, method=False)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, target.attr, None) is original:
                    restore.append((loaded, target.attr, original))
                    setattr(loaded, target.attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
