"""On-disk formats: CAM matrices, trace manifests, metrics streams.

Every writer is deterministic: fixed key order, floats rounded to 9
significant digits, one JSON record per line for metrics. Infinite latencies
and utilities are emitted as the JSON extensions Infinity / -Infinity, which
the stdlib json module reads back unchanged.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

import numpy as np

from .camq import CamMap
from .errors import TraceError, ValidationError
from .sim import RunSummary, SlotData, SlotMetrics, Trace


def round9(x: float) -> float:
    """Round to 9 significant digits; the metrics byte format is defined on this."""
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.9g}")


def load_cam(path: str) -> CamMap:
    """Read a CAM file: a "rows cols" header line, then rows*cols reals.

    Whitespace layout after the header is free-form; only the total value
    count is checked.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: CAM file is not ASCII text: {exc}") from exc
    lines = text.split("\n", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise ValidationError(f"{path}: header must be 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-integer CAM dimensions") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"{path}: CAM dimensions must be positive")
    body = lines[1] if len(lines) > 1 else ""
    try:
        values = [float(tok) for tok in body.split()]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric CAM value") from exc
    if len(values) != rows * cols:
        raise ValidationError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    return CamMap(np.array(values).reshape(rows, cols))


def save_cam(cam: CamMap, path: str) -> None:
    rows, cols = cam.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(repr(v) for v in cam.values[r].tolist()) + "\n")


def _slot_to_manifest(slot: SlotData, t: int) -> dict:
    entry: dict = {
        "datasize_bits": [round9(v) for v in slot.datasize_bits.tolist()],
        "bandwidth_bps": [
            [round9(v) for v in row] for row in slot.bandwidth_bps.tolist()
        ],
    }
    if slot.quality is not None:
        entry["quality"] = [[round9(v) for v in row] for row in slot.quality.tolist()]
    else:
        # the one place CAM file names are made; save_trace writes to them
        prefix = f"cams/slot{t:04d}_dev"
        entry["cams"] = {
            "lowlight": [f"{prefix}{m:02d}_low.cam" for m in range(len(slot.lowlight))],
            "enhanced": [
                [f"{prefix}{m:02d}_alg{k}.cam" for k in range(1, len(per_alg) + 1)]
                for m, per_alg in enumerate(slot.enhanced)
            ],
        }
    if slot.accuracy is not None:
        entry["accuracy"] = [
            [round9(v) for v in row] for row in slot.accuracy.tolist()
        ]
    return entry


def save_trace(trace: Trace, out_dir: str) -> str:
    """Write a trace directory: trace.json plus cams/*.cam for CAM slots.

    Returns the manifest path. Output is byte-deterministic for a given trace.
    """
    os.makedirs(out_dir, exist_ok=True)
    needs_cams = any(slot.lowlight is not None for slot in trace.slots)
    if needs_cams:
        os.makedirs(os.path.join(out_dir, "cams"), exist_ok=True)
    manifest = {
        "devices": trace.num_devices,
        "servers": trace.num_servers,
        "algorithms": trace.num_algorithms,
        "slots": [_slot_to_manifest(slot, t) for t, slot in enumerate(trace.slots)],
    }
    # each CAM goes to the file its manifest entry names
    for slot, entry in zip(trace.slots, manifest["slots"]):
        if slot.lowlight is None:
            continue
        names = entry["cams"]
        for m, low in enumerate(slot.lowlight):
            save_cam(low, os.path.join(out_dir, names["lowlight"][m]))
            for cam, name in zip(slot.enhanced[m], names["enhanced"][m]):
                save_cam(cam, os.path.join(out_dir, name))
    path = os.path.join(out_dir, "trace.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise TraceError(f"{where} missing key {key!r}")
    return doc[key]


def _load_cams(base: str, value, where: str) -> tuple[CamMap, ...]:
    """The CAM files a manifest list names; a malformed file is a TraceError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TraceError(f"{where} must be a list of CAM file names")
    try:
        return tuple(load_cam(os.path.join(base, ref)) for ref in value)
    except ValueError as exc:  # a malformed file, or a NUL byte in its name
        raise TraceError(f"{where}: {exc}") from exc


def _slot_data(base: str, entry) -> SlotData:
    """One manifest slot entry as it is laid out; SlotData checks its values."""
    datasize = _field(entry, "datasize_bits", "entry")
    for key in ("quality", "accuracy"):
        # present but null is not the same as absent
        if key in entry and entry[key] is None:
            raise TraceError(f"entry key {key!r} is null")
    lowlight = enhanced = None
    if "cams" in entry:
        refs = entry["cams"]
        lowlight = _load_cams(base, _field(refs, "lowlight", "cams"), "cams lowlight")
        per_device = _field(refs, "enhanced", "cams")
        if not isinstance(per_device, list):
            raise TraceError("cams enhanced must be a list per device")
        enhanced = tuple(
            _load_cams(base, names, f"cams enhanced[{m}]") for m, names in enumerate(per_device)
        )
    return SlotData(
        datasize_bits=datasize,
        bandwidth_bps=_field(entry, "bandwidth_bps", "entry"),
        quality=entry.get("quality"),
        lowlight=lowlight,
        enhanced=enhanced,
        accuracy=entry.get("accuracy"),
    )


def load_trace(path: str) -> Trace:
    """Read a trace manifest; CAM references resolve relative to the manifest.

    Only the layout is read here. SlotData and Trace check every value, and
    their errors come back naming the manifest and the slot.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: manifest is not ASCII text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: not valid JSON: {exc}") from exc
    top = f"{path}: manifest"
    sizes = [_field(doc, key, top) for key in ("devices", "servers", "algorithms")]
    entries = _field(doc, "slots", top)
    if not isinstance(entries, list):
        raise TraceError(f"{path}: slots must be a list")
    base = os.path.dirname(os.path.abspath(path))
    slots = []
    for t, entry in enumerate(entries):
        try:
            slots.append(_slot_data(base, entry))
        except TraceError as exc:
            raise TraceError(f"{path}: slot {t}: {exc}") from exc
    try:
        return Trace(*sizes, tuple(slots))
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc


def metrics_record(metrics: SlotMetrics) -> dict:
    """One slot's record in the metrics stream."""
    return {
        "slot": metrics.slot,
        "decisions": [list(gene) for gene in metrics.decision.genes()],
        "rejected": sorted(metrics.rejected),
        "quality": [round9(v) for v in metrics.qualities],
        "latency_s": [round9(v) for v in metrics.latencies],
        "utility": [round9(v) for v in metrics.utilities],
        "total_utility": round9(metrics.total_utility),
        "feasible": metrics.feasible,
    }


def _summary_record(summary: RunSummary) -> dict:
    maybe = lambda v: None if v is None else round9(v)
    return {
        "summary": {
            "slots": summary.slots,
            "mean_total_utility": maybe(summary.mean_total_utility),
            "mean_latency_s": maybe(summary.mean_latency_s),
            "p50_latency_s": maybe(summary.p50_latency_s),
            "p95_latency_s": maybe(summary.p95_latency_s),
            "feasible_rate": maybe(summary.feasible_rate),
        }
    }


def format_metrics(
    metrics: Sequence[SlotMetrics], summary: RunSummary
) -> str:
    """Render the metrics stream: one JSON record per slot, then one summary.

    Scheduler wall-times are deliberately not part of the stream so reruns of
    the same seed produce identical bytes; they are reported on stdout instead.
    """
    lines = [json.dumps(metrics_record(m), separators=(",", ":")) for m in metrics]
    lines.append(json.dumps(_summary_record(summary), separators=(",", ":")))
    return "\n".join(lines) + "\n"


def emit_metrics(
    metrics: Sequence[SlotMetrics], path: str, summary: RunSummary | None = None
) -> None:
    from .sim import summarize

    if summary is None:
        summary = summarize(metrics)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_metrics(metrics, summary))


def load_metrics(path: str) -> tuple[list[dict], dict]:
    """Parse a metrics file back into (slot records, summary record)."""
    records = []
    summary = None
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "summary" in doc:
                summary = doc["summary"]
            else:
                records.append(doc)
    if summary is None:
        raise ValidationError(f"{path}: metrics stream has no summary record")
    return records, summary
