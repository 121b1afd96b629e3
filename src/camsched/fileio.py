"""On-disk formats: CAM matrices, trace manifests, metrics streams.

Every writer is deterministic. CAMs are written as `.npy` arrays, which keep
every float64 bit, one stack per device; single-map `.npy` and text CAM files
are still read. Manifests and metrics have a fixed key order and floats
rounded to 9 significant digits, with one JSON record per line for metrics.
Infinite latencies and utilities are emitted as the JSON extensions
Infinity / -Infinity, which the stdlib json module reads back unchanged.
"""

from __future__ import annotations

import io
import json
import math
import os
import tokenize
import warnings
from typing import Iterable, Sequence

import numpy as np

from .camq import CamMap, trusted
from .errors import TraceError, ValidationError
from .sim import RunSummary, SlotData, SlotMetrics, Trace


def round9(x: float) -> float:
    """Round to 9 significant digits; the metrics byte format is defined on this."""
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.9g}")


def load_cam(path: str) -> CamMap:
    """Read a CAM file that holds one 2-D map; its first bytes, not its name,
    give the format.

    A file that starts with the `.npy` magic holds a non-empty 2-D int, uint
    or float array, in either byte order and either memory order. Any other
    file is text: a "rows cols" header line, then rows*cols reals, in any
    whitespace layout after the header.
    """
    return trusted(CamMap, values=_cam_file_values(path, 2))


def _cam_file_values(path: str, ndim: int) -> np.ndarray:
    """The values of a CAM file as one read-only, C-order float64 array, checked
    finite and non-negative, with every error naming the file.

    `ndim` is 2 for a file that holds one map and 3 for a stack of maps; a
    text file always holds one map.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(np.lib.format.MAGIC_PREFIX):
        values = _npy_array(raw, path, ndim)
    elif ndim == 2:
        values = _text_array(raw, path)
    else:
        raise ValidationError(f"{path}: a text CAM file holds one 2-D map, not a {ndim}-D stack")
    # no copy for a C-order <f8 file; anything else is copied once, whole
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError(f"{path}: CAM values must be finite")
    if (values < 0.0).any():
        raise ValidationError(f"{path}: CAM values must be non-negative")
    values.setflags(write=False)
    return values


def _text_array(raw: bytes, path: str) -> np.ndarray:
    """The 2-D map in a text CAM file's bytes."""
    try:
        # decoded as open(path, "r", encoding="ascii") would, newlines included
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii").read()
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
    return np.array(values).reshape(rows, cols)


def _npy_array(raw: bytes, path: str, ndim: int) -> np.ndarray:
    """The `ndim`-D array in a `.npy` CAM file's bytes, read with np.lib.format.

    np.load is never called, so no pickle or .npz path is reachable.
    """
    fmt = np.lib.format
    # a read from a BytesIO stops at its end, so a header that claims a
    # 4 GiB length allocates nothing
    buf = io.BytesIO(raw)
    try:
        version = fmt.read_magic(buf)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"format version {version[0]}.{version[1]} is not 1.0 or 2.0")
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy repairs a Python 2 header with a warning
            shape, fortran_order, dtype = read_header(buf)
    # besides ValueError, numpy's header parse lets TypeError (an unhashable
    # key), SyntaxError and TokenError (from its tokenizer) through
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, UserWarning) as exc:
        reason = str(exc).partition("\n")[0]
        raise ValidationError(f"{path}: malformed .npy header: {reason}") from exc
    if (len(shape) != ndim or not all(type(n) is int and n >= 1 for n in shape)
            or dtype.kind not in "iuf"):
        raise ValidationError(
            f"{path}: .npy CAM must be a non-empty {ndim}-D int, uint or float array, "
            f"got {dtype.str!r} of shape {shape}"
        )
    # Python ints: np.prod would wrap for a shape like (2**32, 2**32, 2**32)
    offset, size = buf.tell(), math.prod(shape) * dtype.itemsize
    if len(raw) - offset != size:
        raise ValidationError(
            f"{path}: .npy CAM {shape} {dtype.str!r} needs {size} data bytes, "
            f"found {len(raw) - offset}"
        )
    values = np.frombuffer(raw, dtype, offset=offset)
    return values.reshape(shape, order="F" if fortran_order else "C")


def save_cam(cam: CamMap, path: str) -> None:
    """Write one CAM as a `.npy` array; `path` is used as it is given."""
    with open(path, "wb") as fh:  # np.save(path) would append .npy to the name
        np.save(fh, cam.values)


def _save_stack(maps: list[np.ndarray], path: str) -> None:
    """Write equal-shape 2-D maps as one C-order `<f8` `.npy` array of shape
    (maps, rows, cols), map by map, so no copy of the whole stack is made."""
    header = {"descr": "<f8", "fortran_order": False, "shape": (len(maps), *maps[0].shape)}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for values in maps:
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def _stack_name(device: int) -> str:
    """The trace-directory file that holds every CAM of one device."""
    return f"cams/dev{device:02d}.npy"


def _slot_to_manifest(slot: SlotData, first: int) -> dict:
    """One slot's manifest entry; a CAM slot's maps sit at `first` onwards in
    each device's stack, low-light first, then k = 1..K."""
    entry: dict = {
        "datasize_bits": [round9(v) for v in slot.datasize_bits.tolist()],
        "bandwidth_bps": [
            [round9(v) for v in row] for row in slot.bandwidth_bps.tolist()
        ],
    }
    if slot.quality is not None:
        entry["quality"] = [[round9(v) for v in row] for row in slot.quality.tolist()]
    else:
        entry["cams"] = {
            "lowlight": [[_stack_name(m), first] for m in range(len(slot.lowlight))],
            "enhanced": [
                [[_stack_name(m), first + k] for k in range(1, len(per_alg) + 1)]
                for m, per_alg in enumerate(slot.enhanced)
            ],
        }
    if slot.accuracy is not None:
        entry["accuracy"] = [
            [round9(v) for v in row] for row in slot.accuracy.tolist()
        ]
    return entry


def save_trace(trace: Trace, out_dir: str) -> str:
    """Write a trace directory: trace.json, plus one CAM stack per device,
    cams/devMM.npy, when the trace has CAM slots.

    Device m's stack is a C-order <f8 array of shape (maps, rows, cols) that
    holds, for each CAM slot in turn, the low-light map and then the enhanced
    maps for k = 1..K. Returns the manifest path. Output is byte-deterministic
    for a given trace.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries, cam_slots = [], []
    for slot in trace.slots:
        entries.append(_slot_to_manifest(slot, len(cam_slots) * (1 + trace.num_algorithms)))
        if slot.lowlight is not None:
            cam_slots.append(slot)
    if cam_slots:
        os.makedirs(os.path.join(out_dir, "cams"), exist_ok=True)
        for m in range(trace.num_devices):
            # the order _slot_to_manifest indexes
            _save_stack([cam.values for slot in cam_slots
                         for cam in (slot.lowlight[m], *slot.enhanced[m])],
                        os.path.join(out_dir, _stack_name(m)))
    manifest = {
        "devices": trace.num_devices,
        "servers": trace.num_servers,
        "algorithms": trace.num_algorithms,
        "slots": entries,
    }
    path = os.path.join(out_dir, "trace.json")
    with open(path, "w", encoding="ascii") as fh:
        # one line: json.dump, or any indent, runs the pure-Python encoder
        fh.write(json.dumps(manifest) + "\n")
    return path


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise TraceError(f"{where} missing key {key!r}")
    return doc[key]


class _CamFiles:
    """The CAM files of one trace directory, each read and checked once.

    A manifest reference is a file name, for a file that holds one 2-D map,
    or a [file, index] pair, for map `index` of a file that holds a 3-D
    stack. A stack's maps are read-only views of its one checked array.
    """

    def __init__(self, base: str):
        self.base = base
        self.maps: dict[str, CamMap] = {}
        self.stacks: dict[str, np.ndarray] = {}

    def map(self, ref) -> CamMap:
        if isinstance(ref, str):
            path = os.path.join(self.base, ref)
            if path not in self.maps:
                self.maps[path] = load_cam(path)
            return self.maps[path]
        name, index = ref
        path = os.path.join(self.base, name)
        if path not in self.stacks:
            self.stacks[path] = _cam_file_values(path, 3)
        stack = self.stacks[path]
        # a JSON true is a Python bool, which is an int
        if type(index) is not int or not 0 <= index < len(stack):
            raise ValidationError(
                f"{path}: CAM index {index!r} is not an integer in 0..{len(stack) - 1}"
            )
        return trusted(CamMap, values=stack[index])


def _is_cam_ref(ref) -> bool:
    return isinstance(ref, str) or (
        isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], str)
    )


def _load_cams(files: _CamFiles, value, where: str) -> tuple[CamMap, ...]:
    """The CAMs a manifest list references; a malformed file is a TraceError."""
    if not isinstance(value, list) or not all(_is_cam_ref(ref) for ref in value):
        raise TraceError(f"{where} must be a list of CAM references, each a file "
                         "name or a [file, index] pair")
    try:
        return tuple(files.map(ref) for ref in value)
    # a malformed or missing file, a bad index, or a NUL byte in a file name
    except (ValueError, OSError) as exc:
        raise TraceError(f"{where}: {exc}") from exc


def _slot_data(files: _CamFiles, entry) -> SlotData:
    """One manifest slot entry as it is laid out; SlotData checks its values."""
    datasize = _field(entry, "datasize_bits", "entry")
    for key in ("quality", "accuracy"):
        # present but null is not the same as absent
        if key in entry and entry[key] is None:
            raise TraceError(f"entry key {key!r} is null")
    lowlight = enhanced = None
    if "cams" in entry:
        refs = entry["cams"]
        lowlight = _load_cams(files, _field(refs, "lowlight", "cams"), "cams lowlight")
        per_device = _field(refs, "enhanced", "cams")
        if not isinstance(per_device, list):
            raise TraceError("cams enhanced must be a list per device")
        enhanced = tuple(
            _load_cams(files, refs, f"cams enhanced[{m}]") for m, refs in enumerate(per_device)
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

    Only the layout is read here, and each CAM file's values. SlotData and
    Trace check every other value, and their errors come back naming the
    manifest and the slot.
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
    files = _CamFiles(os.path.dirname(os.path.abspath(path)))
    slots = []
    for t, entry in enumerate(entries):
        try:
            slots.append(_slot_data(files, entry))
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
