"""Deterministic binary encoding of :class:`ObsSnapshot` (DESIGN §14).

The ONFI transport (PR 8) moved chips out of process; this codec is how
their telemetry comes back.  A server-side registry snapshot — counters,
gauges, histograms, the chip's ``OpCounters``, the span self-time
profile and the raw span ring — is serialised to a compact little-endian
byte string, shipped over an ``OBS_COLLECT`` response frame, and decoded
into an equal snapshot on the client.

Exactness is the contract: every float travels as an IEEE-754 binary64
(``<d``), so a decoded snapshot is *bit-identical* to the encoded one —
no repr round-trips, no JSON float formatting.  That is what lets
``repro.fleet`` merge remote snapshots through
:func:`~repro.obs.metrics.merge_snapshots` and land on exactly the same
fleet totals as in-process mode.

``OpCounters`` is encoded generically from ``dataclasses.fields`` with a
per-field kind tag (i64 / f64), so new counter fields transport without
touching this module — the field-by-field reconstruction that used to
live in ``repro.onfi.client`` is gone for good.

Malformed input raises :class:`ValueError` (the ONFI layer maps that to
a wire error frame).  The format is versioned with a leading byte;
decoders reject versions they do not understand.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List

from ..cursor import Reader, Writer
from .metrics import HistStats, ObsSnapshot, ProfileEntry
from .trace import SpanRecord

#: Format version; bump on any layout change.
OBS_WIRE_VERSION = 1

#: ``OpCounters`` field kind tags.
_KIND_I64 = 0
_KIND_F64 = 1

#: Ceiling on any decoded collection size — a corrupt length prefix must
#: fail fast instead of attempting a multi-gigabyte allocation.
_MAX_ITEMS = 1 << 24


def _put_str(w: Writer, value: str) -> None:
    raw = value.encode("utf-8")
    w.u32(len(raw))
    w.raw(raw)


def _count(r: Reader) -> int:
    value = r.u32()
    if value > _MAX_ITEMS:
        raise ValueError(f"obs wire count {value} exceeds sanity bound")
    return value


def _str(r: Reader) -> str:
    return r.utf8(_count(r))


# ----------------------------------------------------------------------
# encode


def encode_snapshot(snapshot: ObsSnapshot) -> bytes:
    """Serialise a snapshot to the versioned binary wire format."""
    w = Writer()
    w.u8(OBS_WIRE_VERSION)
    _encode_scalar_map(w, snapshot.counters)
    _encode_scalar_map(w, snapshot.gauges)
    w.u32(len(snapshot.histograms))
    for name in snapshot.histograms:
        hist = snapshot.histograms[name]
        _put_str(w, name)
        w.i64(hist.count)
        w.f64(hist.total)
        w.f64(hist.min)
        w.f64(hist.max)
    _encode_op_counters(w, snapshot.op_counters)
    w.u32(len(snapshot.profile))
    for name in snapshot.profile:
        entry = snapshot.profile[name]
        _put_str(w, name)
        w.i64(entry.count)
        w.f64(entry.total_s)
        w.f64(entry.self_s)
        w.f64(entry.min_s)
        w.f64(entry.max_s)
    w.u32(len(snapshot.spans))
    for span in snapshot.spans:
        _encode_span(w, span)
    w.f64(snapshot.wall_s)
    return w.getvalue()


def _encode_scalar_map(w: Writer, values: Dict[str, float]) -> None:
    w.u32(len(values))
    for name in values:
        _put_str(w, name)
        w.f64(values[name])


def _encode_op_counters(w: Writer, ops: Any) -> None:
    if ops is None:
        w.u8(0)
        return
    w.u8(1)
    fields = dataclasses.fields(ops)
    w.u32(len(fields))
    for spec in fields:
        value = getattr(ops, spec.name)
        _put_str(w, spec.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"op counter field {spec.name!r} is not numeric: {value!r}"
            )
        if isinstance(value, int):
            w.u8(_KIND_I64)
            w.i64(value)
        else:
            w.u8(_KIND_F64)
            w.f64(value)


def _encode_span(w: Writer, span: SpanRecord) -> None:
    _put_str(w, span.name)
    w.f64(span.start_s)
    w.f64(span.duration_s)
    w.f64(span.self_s)
    w.i64(span.depth)
    if span.parent is None:
        w.u8(0)
    else:
        w.u8(1)
        _put_str(w, span.parent)
    _put_str(w, span.proc)
    try:
        _put_str(w, json.dumps(span.attrs, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"span attrs not JSON-able: {exc}") from exc
    if span.error is None:
        w.u8(0)
    else:
        w.u8(1)
        _put_str(w, span.error)


# ----------------------------------------------------------------------
# decode


def decode_snapshot(payload: bytes) -> ObsSnapshot:
    """Decode :func:`encode_snapshot` output; :class:`ValueError` on junk."""
    r = Reader(payload)
    version = r.u8()
    if version != OBS_WIRE_VERSION:
        raise ValueError(
            f"obs wire version {version} unsupported "
            f"(expected {OBS_WIRE_VERSION})"
        )
    counters = _decode_scalar_map(r)
    gauges = _decode_scalar_map(r)
    histograms: Dict[str, HistStats] = {}
    for _ in range(_count(r)):
        name = _str(r)
        histograms[name] = HistStats(
            count=r.i64(), total=r.f64(), min=r.f64(), max=r.f64()
        )
    op_counters = _decode_op_counters(r)
    profile: Dict[str, ProfileEntry] = {}
    for _ in range(_count(r)):
        name = _str(r)
        profile[name] = ProfileEntry(
            count=r.i64(),
            total_s=r.f64(),
            self_s=r.f64(),
            min_s=r.f64(),
            max_s=r.f64(),
        )
    spans: List[Any] = [_decode_span(r) for _ in range(_count(r))]
    wall_s = r.f64()
    r.end()
    return ObsSnapshot(
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        op_counters=op_counters,
        profile=profile,
        spans=spans,
        wall_s=wall_s,
    )


def _decode_scalar_map(r: Reader) -> Dict[str, float]:
    return {_str(r): r.f64() for _ in range(_count(r))}


def _decode_op_counters(r: Reader) -> Any:
    if r.u8() == 0:
        return None
    # Imported lazily: repro.nand imports repro.obs for its handles, so a
    # module-level import here would be circular.
    from ..nand.chip import OpCounters

    expected = {spec.name for spec in dataclasses.fields(OpCounters)}
    values: Dict[str, Any] = {}
    for _ in range(_count(r)):
        name = _str(r)
        kind = r.u8()
        if kind == _KIND_I64:
            values[name] = r.i64()
        elif kind == _KIND_F64:
            values[name] = r.f64()
        else:
            raise ValueError(f"unknown op counter kind tag {kind}")
    if set(values) != expected:
        raise ValueError(
            "op counter fields mismatch: "
            f"got {sorted(values)}, expected {sorted(expected)}"
        )
    return OpCounters(**values)


def _decode_span(r: Reader) -> SpanRecord:
    name = _str(r)
    start_s = r.f64()
    duration_s = r.f64()
    self_s = r.f64()
    depth = r.i64()
    parent = _str(r) if r.u8() else None
    proc = _str(r)
    try:
        attrs = json.loads(_str(r))
    except json.JSONDecodeError as exc:
        raise ValueError(f"span attrs not valid JSON: {exc}") from exc
    if not isinstance(attrs, dict):
        raise ValueError("span attrs must decode to an object")
    error = _str(r) if r.u8() else None
    return SpanRecord(
        name=name,
        start_s=start_s,
        duration_s=duration_s,
        self_s=self_s,
        depth=depth,
        parent=parent,
        attrs=attrs,
        error=error,
        proc=proc,
    )
