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
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
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
        low_refs = []
        enh_refs = []
        for m in range(len(slot.lowlight)):
            low_refs.append(f"cams/slot{t:04d}_dev{m:02d}_low.cam")
            enh_refs.append(
                [
                    f"cams/slot{t:04d}_dev{m:02d}_alg{k + 1}.cam"
                    for k in range(len(slot.enhanced[m]))
                ]
            )
        entry["cams"] = {"lowlight": low_refs, "enhanced": enh_refs}
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
    for t, slot in enumerate(trace.slots):
        if slot.lowlight is None:
            continue
        for m in range(trace.num_devices):
            save_cam(
                slot.lowlight[m],
                os.path.join(out_dir, f"cams/slot{t:04d}_dev{m:02d}_low.cam"),
            )
            for k, cam in enumerate(slot.enhanced[m]):
                save_cam(
                    cam,
                    os.path.join(out_dir, f"cams/slot{t:04d}_dev{m:02d}_alg{k + 1}.cam"),
                )
    path = os.path.join(out_dir, "trace.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise TraceError(f"{where} missing key {key!r}")
    return doc[key]


def _floats(doc, key: str, where: str) -> np.ndarray:
    try:
        return np.asarray(_field(doc, key, where), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{where} key {key!r} is not a numeric array") from exc


def load_trace(path: str) -> Trace:
    """Read a trace manifest; CAM references resolve relative to the manifest."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceError(f"{path}: manifest must be a JSON object")
    top = f"{path}: manifest"
    sizes = [_field(doc, key, top) for key in ("devices", "servers", "algorithms")]
    try:
        m, n, k = (int(v) for v in sizes)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{path}: devices, servers and algorithms must be integers") from exc
    base = os.path.dirname(os.path.abspath(path))
    slots = []
    for t, entry in enumerate(_field(doc, "slots", top)):
        where = f"{path}: slot {t}"
        if "quality" in entry and "cams" in entry:
            raise TraceError(f"{where} carries both quality and CAMs")
        quality = None
        lowlight = None
        enhanced = None
        if "quality" in entry:
            quality = _floats(entry, "quality", where)
        elif "cams" in entry:
            refs = entry["cams"]
            lowlight = tuple(
                load_cam(os.path.join(base, ref))
                for ref in _field(refs, "lowlight", f"{where} cams")
            )
            enhanced = tuple(
                tuple(load_cam(os.path.join(base, ref)) for ref in per_dev)
                for per_dev in _field(refs, "enhanced", f"{where} cams")
            )
        else:
            raise TraceError(f"{where} carries neither quality nor CAMs")
        accuracy = None
        if "accuracy" in entry:
            accuracy = _floats(entry, "accuracy", where)
        slots.append(
            SlotData(
                datasize_bits=_floats(entry, "datasize_bits", where),
                bandwidth_bps=_floats(entry, "bandwidth_bps", where),
                quality=quality,
                lowlight=lowlight,
                enhanced=enhanced,
                accuracy=accuracy,
            )
        )
    return Trace(m, n, k, tuple(slots))


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
