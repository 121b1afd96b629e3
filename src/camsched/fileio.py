"""On-disk formats: CAM stacks, trace manifests, metrics streams.

Every writer is deterministic. A trace directory holds a `trace.json`
manifest and, for a CAM trace, one `.npy` stack per device, `cams/devMM.npy`,
which keeps every float64 bit; the manifest names each map as a
[file, index] pair. save_cam and load_cam are the one writer and the one
reader of a stack. Manifests and metrics have a fixed key order and floats
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
from typing import Sequence

import numpy as np

from .camq import check_cams
from .errors import TraceError, ValidationError
from .sim import RunSummary, SlotData, SlotMetrics, Trace


def round9(x: float) -> float:
    """Round to 9 significant digits; the metrics byte format is defined on this."""
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.9g}")


def load_cam(path: str) -> np.ndarray:
    """Read one device's CAM stack, a `.npy` file, as one read-only, C-order
    float64 array of shape (maps, rows, cols), checked finite and non-negative.

    The file may hold a non-empty 3-D int, uint or float array, in either
    byte order and either memory order. Every error names the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(np.lib.format.MAGIC_PREFIX):
        raise ValidationError(f"{path}: not a .npy file")
    # no copy for a C-order <f8 file; anything else is copied once, whole
    values = np.ascontiguousarray(_npy_array(raw, path), dtype=np.float64)
    check_cams(values, f"{path}: ")
    values.setflags(write=False)
    return values


def _npy_array(raw: bytes, path: str) -> np.ndarray:
    """The 3-D array in a `.npy` CAM file's bytes, read with np.lib.format.

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
    if (len(shape) != 3 or not all(type(n) is int and n >= 1 for n in shape)
            or dtype.kind not in "iuf"):
        raise ValidationError(
            f"{path}: .npy CAM must be a non-empty 3-D int, uint or float array, "
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


def save_cam(stacks: Sequence[np.ndarray], path: str) -> None:
    """Write one device's (maps, rows, cols) CAM stacks, of one map shape, as
    one C-order `<f8` `.npy` stack of all their maps in turn; `path` is used
    as it is given. The stacks are written one after another, so no copy of
    the whole stack is made."""
    shape = (sum(len(stack) for stack in stacks), *stacks[0].shape[1:])
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
        for stack in stacks:
            fh.write(np.ascontiguousarray(stack, dtype="<f8"))


def _stack_name(device: int) -> str:
    """The trace-directory file that holds every CAM of one device."""
    return f"cams/dev{device:02d}.npy"


def _slot_to_manifest(slot: SlotData, first: int) -> dict:
    """One slot's manifest entry; a CAM slot's maps sit at `first` onwards in
    each device's stack, in the order of the slot's own stacks."""
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
            "lowlight": [[_stack_name(m), first] for m in range(len(slot.cams))],
            "enhanced": [
                [[_stack_name(m), first + k] for k in range(1, len(stack))]
                for m, stack in enumerate(slot.cams)
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
        if slot.cams is not None:
            cam_slots.append(slot)
    if cam_slots:
        os.makedirs(os.path.join(out_dir, "cams"), exist_ok=True)
        for m in range(trace.num_devices):
            # the order _slot_to_manifest indexes
            save_cam([slot.cams[m] for slot in cam_slots], os.path.join(out_dir, _stack_name(m)))
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
    """The CAM stacks of one trace directory, each read and checked once.

    A manifest reference is a [file, index] pair, for map `index` of the
    stack in `file`. Stacks are kept by file name, so a file's path is joined
    once.
    """

    def __init__(self, base: str):
        self.base = base
        self.stacks: dict[str, np.ndarray] = {}  # by file name

    def refs(self, value, where: str) -> list[tuple[np.ndarray, int]]:
        """The (stack, index) pair of each reference in a manifest list, in
        order; a bad reference or a malformed file is a TraceError."""
        if not isinstance(value, list):
            raise TraceError(f"{where} must be a list of [file, index] CAM references")
        pairs = []
        # each reference is checked inline: a call per reference costs more
        # than the check, and a CAM trace has M(K+1) references a slot
        try:
            for ref in value:
                if not (isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], str)):
                    # a bare file name, as the retired single-map layout wrote;
                    # named as a path, like the file of every other CAM error
                    shown = os.path.join(self.base, ref) if isinstance(ref, str) else ref
                    raise ValidationError(f"{shown!r} is not a [file, index] CAM reference")
                name, index = ref
                stack = self.stacks.get(name)
                if stack is None:
                    stack = self.stacks[name] = load_cam(os.path.join(self.base, name))
                # a JSON true is a Python bool, which is an int
                if type(index) is not int or not 0 <= index < len(stack):
                    raise ValidationError(
                        f"{os.path.join(self.base, name)}: CAM index {index!r} is not an "
                        f"integer in 0..{len(stack) - 1}"
                    )
                pairs.append((stack, index))
        # a bad reference, a malformed or missing file, a bad index, or a NUL
        # byte in a file name
        except (ValueError, OSError) as exc:
            raise TraceError(f"{where}: {exc}") from exc
        return pairs


def _slot_cams(files: _CamFiles, refs) -> tuple[np.ndarray, ...]:
    """Each device's (K+1, rows, cols) CAM stack for one slot's `cams` entry.

    Every reference is checked once, the low-light list first and then each
    device's enhanced list, so that the first bad reference gives the error.
    A device whose K+1 references are consecutive indices of one file, the
    layout save_trace writes, gets a view of that file's stack; a device
    whose maps lie elsewhere gets them copied into a read-only stack.
    """
    lows = files.refs(_field(refs, "lowlight", "cams"), "cams lowlight")
    per_device = _field(refs, "enhanced", "cams")
    if not isinstance(per_device, list):
        raise TraceError("cams enhanced must be a list per device")
    enhanced = [files.refs(device_refs, f"cams enhanced[{m}]")
                for m, device_refs in enumerate(per_device)]
    if len(lows) != len(enhanced):
        raise TraceError("CAM payload must cover every device")
    cams = []
    for m, ((stack, start), enh) in enumerate(zip(lows, enhanced)):
        end = start + 1
        for other, index in enh:
            if other is not stack or index != end:
                break
            end += 1
        else:
            cams.append(stack[start:end])
            continue
        low = stack[start]
        maps = [low, *(other[index] for other, index in enh)]
        for cam in maps[1:]:
            if cam.shape != low.shape:
                raise TraceError(f"device {m}: CAM shapes differ: {low.shape} vs {cam.shape}")
        copy = np.stack(maps)
        copy.setflags(write=False)
        cams.append(copy)
    return tuple(cams)


def _slot_data(files: _CamFiles, entry) -> SlotData:
    """One manifest slot entry as it is laid out; SlotData checks its values
    other than the CAMs, which load_cam checked."""
    datasize = _field(entry, "datasize_bits", "entry")
    for key in ("quality", "accuracy"):
        # present but null is not the same as absent
        if key in entry and entry[key] is None:
            raise TraceError(f"entry key {key!r} is null")
    cams = _slot_cams(files, entry["cams"]) if "cams" in entry else None
    return SlotData(
        datasize_bits=datasize,
        bandwidth_bps=_field(entry, "bandwidth_bps", "entry"),
        quality=entry.get("quality"),
        cams=cams,
        accuracy=entry.get("accuracy"),
        cams_checked=True,
    )


def load_trace(path: str) -> Trace:
    """Read a trace manifest; CAM references resolve relative to the manifest.

    Only the layout is read here, and each CAM file's values, each file
    once. SlotData and Trace check every other value, and their errors come
    back naming the manifest and the slot. A device-slot laid out as
    save_trace writes it is a view of its device's stack, and any other
    layout a read-only copy. A manifest nested too deeply for the json
    module is a TraceError, like any other JSON that cannot be read.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: manifest is not ASCII text: {exc}") from exc
        # the json module raises RecursionError for deeply nested JSON
        except (json.JSONDecodeError, RecursionError) as exc:
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


def emit_metrics(metrics: Sequence[SlotMetrics], path: str, summary: RunSummary) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_metrics(metrics, summary))
