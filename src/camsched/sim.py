"""Slot-by-slot simulation: assess quality, schedule, account, commit windows.

A trace carries, per slot, the chunk sizes and uplink bandwidths plus either
raw CAM pairs (assessed on the fly) or a precomputed quality matrix. The
synthetic generator builds CAM traces with per-algorithm brightness offsets
over a slowly drifting scene, so stronger algorithms earn larger filtered
differences and correlated accuracy feedback.

Trace checks every stored slot value once and SlotData keeps them read-only,
so assess_slot, the one way from a stored slot to a SlotInput, checks only a
CAM slot's newly assessed quality matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import camq, sched, sysmodel
from .camq import QualityState
from .errors import TraceError, ValidationError
from .keys import DEVICES, NUM_ALGORITHMS, NUM_SERVERS, check_keyed, checked, keyed
from .sched import GaConfig
# device_latency is not called here, but perfbench/tracing.py wraps it through
# this module's attribute, so the name stays bound
from .sysmodel import (Decision, SlotInput, SystemModel, check_dims, check_feasibility,
                       check_slot_values, device_latency)

SCHEDULER_CHOICES = ("ga", "oracle", "capacity", "none")

@dataclass(frozen=True)
class SlotData:
    """One slot of trace input. Exactly one of `quality` and the CAM payload
    `cams` must be present.

    `cams[m]` is device m's (K+1, rows, cols) stack of CAM values, its
    low-light map first and then one enhanced map per algorithm k = 1..K.
    They are checked finite and non-negative here, unless `cams_checked`
    says that the reader or generator which made them already did: then
    the stacks must be read-only float64 arrays, and are used as they are.
    """

    datasize_bits: np.ndarray                   # (M,)
    bandwidth_bps: np.ndarray                   # (M, N)
    quality: np.ndarray | None = None           # (M, K+1)
    cams: tuple[np.ndarray, ...] | None = None  # per device, (K+1, rows, cols)
    accuracy: np.ndarray | None = None          # (M, K+1) in [0, 1]
    cams_checked: InitVar[bool] = False

    def __post_init__(self, cams_checked: bool):
        if (self.quality is None) == (self.cams is None):
            raise TraceError("slot needs exactly one of quality matrix or CAM payload")
        for name in ("datasize_bits", "bandwidth_bps", "quality", "accuracy"):
            value = getattr(self, name)
            if value is None and name in ("quality", "accuracy"):
                continue  # absent; a missing datasize or bandwidth is not numeric
            object.__setattr__(self, name, _own_array(value, name))
        if self.cams is not None and not cams_checked:
            stacks = tuple(_own_array(value, f"CAM stack of device {m}")
                           for m, value in enumerate(self.cams))
            for m, stack in enumerate(stacks):
                if stack.ndim != 3 or 0 in stack.shape:
                    raise TraceError(f"CAM stack of device {m} must be a non-empty "
                                     f"(maps, rows, cols) array, got shape {stack.shape}")
                camq.check_cams(stack, f"CAM stack of device {m}: ")
            object.__setattr__(self, "cams", stacks)


def _own_array(value, name: str) -> np.ndarray:
    """`value` as a read-only float64 array of SlotData's own: a caller's
    ndarray is copied, a new one is not."""
    try:
        arr = np.asarray(value)
        numeric = arr.dtype.kind in "iuf"
    except (TypeError, ValueError):  # ragged nesting
        numeric = False
    # strings and bools are not numbers, as in a config document
    if not numeric:
        raise TraceError(f"{name} is not a numeric array")
    arr = arr.astype(np.float64, copy=isinstance(value, np.ndarray))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trace:
    """Every slot of a run, checked once: integer sizes, each slot's shapes and
    accuracy range, then check_slot_values over all slots stacked together."""

    num_devices: int
    num_servers: int
    num_algorithms: int
    slots: tuple[SlotData, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        m, n, k = sizes = self.num_devices, self.num_servers, self.num_algorithms
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in sizes):
            raise TraceError(f"device, server and algorithm counts must be integers: {sizes}")
        # numpy integers become ints, which save_trace can write as JSON
        for name, v in zip(("num_devices", "num_servers", "num_algorithms"), sizes):
            object.__setattr__(self, name, int(v))
        if m < 1 or n < 1 or k < 0:
            raise TraceError("trace needs at least one device and one server")
        shapes: dict[int, tuple[int, ...]] = {}  # each device's CAM stack shape
        for t, slot in enumerate(self.slots):
            if slot.datasize_bits.shape != (m,):
                raise TraceError(f"slot {t}: datasize must have shape ({m},)")
            if slot.bandwidth_bps.shape != (m, n):
                raise TraceError(f"slot {t}: bandwidth must have shape ({m}, {n})")
            if slot.quality is not None and slot.quality.shape != (m, k + 1):
                raise TraceError(f"slot {t}: quality must have shape ({m}, {k + 1})")
            if slot.cams is not None:
                if len(slot.cams) != m:
                    raise TraceError(f"slot {t}: CAM payload must cover every device")
                # a device keeps one CAM shape across its slots
                for dev, stack in enumerate(slot.cams):
                    shape = shapes.setdefault(dev, (k + 1, *stack.shape[1:]))
                    if stack.shape == shape:
                        continue
                    if len(stack) != k + 1:
                        raise TraceError(f"slot {t}: need one enhanced CAM per algorithm")
                    raise TraceError(f"slot {t}: device {dev}: CAM shapes differ: "
                                     f"{shape[1:]} vs {stack.shape[1:]}")
            if slot.accuracy is not None:
                if slot.accuracy.shape != (m, k + 1):
                    raise TraceError(f"slot {t}: accuracy must have shape ({m}, {k + 1})")
                # phrased so that NaN fails the range check as well
                if not ((slot.accuracy >= 0) & (slot.accuracy <= 1)).all():
                    raise TraceError(f"slot {t}: accuracy outside [0, 1]")
        # one pass over every slot stacked; the slot-by-slot pass only names
        # the slot that broke the rule
        quality = [slot.quality for slot in self.slots if slot.quality is not None]
        try:
            check_slot_values(
                np.array([slot.datasize_bits for slot in self.slots]),
                np.array([slot.bandwidth_bps for slot in self.slots]),
                np.array(quality) if quality else None,
            )
        except ValidationError:
            for t, slot in enumerate(self.slots):
                try:
                    check_slot_values(slot.datasize_bits, slot.bandwidth_bps, slot.quality)
                except ValidationError as exc:
                    raise TraceError(f"slot {t}: {exc}") from exc

    @property
    def horizon(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class SlotMetrics:
    slot: int
    decision: Decision
    rejected: frozenset[int]
    qualities: tuple[float, ...]
    latencies: tuple[float, ...]
    utilities: tuple[float, ...]
    total_utility: float
    feasible: bool
    scheduler_seconds: float


@dataclass(frozen=True)
class RunSummary:
    slots: int
    mean_total_utility: float | None
    mean_latency_s: float | None
    p50_latency_s: float | None
    p95_latency_s: float | None
    feasible_rate: float | None
    mean_scheduler_seconds: float | None


def assess_slot(slot: SlotData, state: QualityState, threshold: float) -> SlotInput:
    """Assessment stage: the slot as its scheduler sees it.

    A stored quality matrix is used as Trace checked it. A CAM slot's (M, K+1)
    quality is scored against the current windows, every CAM filtered once
    and all (device, algorithm) pairs scored together, then checked like a
    stored one; :func:`commit_windows` commits it.
    """
    quality = slot.quality
    if quality is None:
        quality = camq.enhancement_quality(state, slot.cams, threshold)
        check_slot_values(slot.datasize_bits, slot.bandwidth_bps, quality)
        quality.setflags(write=False)
    return SlotInput.trusted(datasize_bits=slot.datasize_bits,
                             bandwidth_bps=slot.bandwidth_bps, quality=quality)


def commit_windows(
    slot: SlotData,
    state: QualityState,
    decision: Decision | None,
    rejected: frozenset[int],
) -> None:
    """Commit stage: advance the windows past the CAMs :func:`assess_slot`
    assessed, when the slot has CAMs.

    Windows advance for every algorithm each slot, not just the chosen one;
    accuracy feedback lands only for what actually ran (decision None means
    a pure assessment replay where nothing ran).
    """
    if slot.cams is not None:
        camq.commit_slot(state)
    if slot.accuracy is not None and decision is not None:
        for m, k in enumerate(decision.algorithms):
            if m not in rejected:
                camq.record_accuracy(state, m, float(slot.accuracy[m, k]))


def replay(trace: Trace, state: QualityState, threshold: float) -> Iterator[SlotInput]:
    """Walk the trace as if no algorithm ran: assess each slot, commit its
    windows without accuracy feedback, then yield it as assessed.

    After n items the state holds exactly the windows of slots 0..n-1.
    """
    for data in trace.slots:
        slot = assess_slot(data, state, threshold)
        commit_windows(data, state, None, frozenset())
        yield slot


def run_slot(
    t: int,
    trace: Trace,
    state: QualityState,
    model: SystemModel,
    scheduler: str = "ga",
    ga_config: GaConfig | None = None,
    threshold: float = camq.DEFAULT_THRESHOLD,
    oracle_limit: int = sched.DEFAULT_ORACLE_LIMIT,
) -> SlotMetrics:
    """Advance the simulation by one slot and return its accounting.

    The one slot pipeline: assess, schedule, account, commit. Assessment
    happens before scheduling, so the scheduler only ever sees this slot's
    quality matrix; window commits happen last. The slot's latency table is
    built once, and the scheduler and the one score of its answer both read
    it: evolve and brute_force return their answer's report, and
    check_feasibility scores the baselines' answers and the oracle's raw
    fallback.
    """
    if scheduler not in SCHEDULER_CHOICES:
        raise ValidationError(f"unknown scheduler {scheduler!r}")
    if not 0 <= t < trace.horizon:
        raise TraceError(f"slot {t} outside trace horizon {trace.horizon}")
    slot_data = trace.slots[t]
    slot = assess_slot(slot_data, state, threshold)
    # through the module attribute, where the benchmark's tracer counts it
    lat = sysmodel.latency_table(slot, model)

    rejected: frozenset[int] = frozenset()
    report = None  # the GA's and the oracle's answers arrive already scored
    started = time.perf_counter()
    if scheduler == "ga":
        best, _history = sched.evolve(slot, model, ga_config, lat)
        decision, report = best.decision, best.report
    elif scheduler == "oracle":
        result = sched.brute_force(slot, model, oracle_limit, lat)
        if result.decision is None:
            # nothing feasible anywhere: fall back to shipping raw chunks
            decision = sched.baseline_no_enhancement(slot, model)
        else:
            decision, report = result.decision, result.report
    elif scheduler == "capacity":
        outcome = sched.baseline_capacity(slot, model)
        decision = outcome.decision
        rejected = outcome.rejected
    else:
        decision = sched.baseline_no_enhancement(slot, model)
    elapsed = time.perf_counter() - started

    if report is None:
        report = check_feasibility(decision, slot, model, lat)
    qualities = slot.quality[np.arange(model.num_devices), decision.algorithms].tolist()
    latencies, utilities = report.latencies.tolist(), report.utilities.tolist()
    for m in rejected:  # not served: no quality, infinite latency, -inf utility
        qualities[m], latencies[m], utilities[m] = 0.0, math.inf, -math.inf

    commit_windows(slot_data, state, decision, rejected)
    return SlotMetrics(
        slot=t,
        decision=decision,
        rejected=rejected,
        qualities=tuple(qualities),
        latencies=tuple(latencies),
        utilities=tuple(utilities),
        total_utility=-math.inf if rejected else report.total_utility,
        feasible=report.feasible and not rejected,
        scheduler_seconds=elapsed,
    )


def summarize(metrics: Sequence[SlotMetrics]) -> RunSummary:
    """Aggregate run statistics; an empty run summarises to all-None.

    A slot total is finite or -inf. The mean total is -inf when any slot's
    is; finite totals or latencies whose mean leaves the float range raise
    ValidationError.
    """
    if not metrics:
        return RunSummary(0, None, None, None, None, None, None)
    totals = [m.total_utility for m in metrics]
    if -math.inf in totals:
        mean_total = -math.inf
    else:
        with np.errstate(over="ignore"):
            mean_total = float(np.mean(totals))
        if not math.isfinite(mean_total):
            raise ValidationError("slot total utilities average past the float range")
    # latency stats cover served devices only; a rejected device has no latency
    lats = np.array([
        lat for m in metrics for lat in m.latencies if math.isfinite(lat)
    ])
    no_lats = lats.size == 0
    mean_latency = None
    if not no_lats:
        with np.errstate(over="ignore"):
            mean_latency = float(np.mean(lats))
        if not math.isfinite(mean_latency):
            raise ValidationError("served latencies average past the float range")
    return RunSummary(
        slots=len(metrics),
        mean_total_utility=mean_total,
        mean_latency_s=mean_latency,
        p50_latency_s=None if no_lats else float(np.percentile(lats, 50)),
        p95_latency_s=None if no_lats else float(np.percentile(lats, 95)),
        feasible_rate=float(np.mean([m.feasible for m in metrics])),
        mean_scheduler_seconds=float(np.mean([m.scheduler_seconds for m in metrics])),
    )


def run(
    trace: Trace,
    model: SystemModel,
    scheduler: str = "ga",
    ga_config: GaConfig | None = None,
    state: QualityState | None = None,
    threshold: float = camq.DEFAULT_THRESHOLD,
    oracle_limit: int = sched.DEFAULT_ORACLE_LIMIT,
) -> tuple[list[SlotMetrics], RunSummary]:
    """Run the whole trace through one scheduler with a fresh or given state."""
    check_dims(trace, model)
    if state is None:
        state = QualityState(trace.num_devices, trace.num_algorithms)
    metrics = [
        run_slot(t, trace, state, model, scheduler, ga_config, threshold, oracle_limit)
        for t in range(trace.horizon)
    ]
    return metrics, summarize(metrics)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic CAM trace generator.

    Each device films a smooth scene that drifts slot to slot; algorithm k
    lifts activations by offsets[k-1] plus small noise. Accuracy feedback
    rises with the offset, so better enhancement also means better analytics.
    Without offsets, the K of them run evenly from 0.30 down to 0.08,
    rounded to 6 places. The three counts are checked through keys.DEVICES,
    NUM_SERVERS and NUM_ALGORITHMS, and each field after them is the synth
    config key it names.
    """

    num_devices: int = DEVICES.default
    num_servers: int = NUM_SERVERS.default
    num_algorithms: int = NUM_ALGORITHMS.default
    horizon: int = keyed("horizon", int, 30, low=0)
    cam_rows: int = keyed("cam_rows", int, 16, low=1)
    cam_cols: int = keyed("cam_cols", int, 16, low=1)
    # coarse-grid fraction; lower is smoother
    smoothness: float = keyed("smoothness", float, 0.25, low=0.0, strict=True, high=1.0)
    # per-slot scene movement, coarse-grid sigma
    drift: float = keyed("drift", float, 0.05, low=0.0)
    offsets: tuple[float, ...] | None = keyed("offsets", list, None)
    cam_noise: float = keyed("cam_noise", float, 0.02, low=0.0)
    datasize_bits: tuple[float, float] = keyed("datasize_bits", list, (15e6, 25e6))
    bandwidth_bps: tuple[float, float] = keyed("bandwidth_bps", list, (20e6, 20e6))
    accuracy_floor: float = keyed("accuracy_floor", float, 0.6, low=0.0, high=1.0)
    accuracy_gain: float = keyed("accuracy_gain", float, 0.8)
    accuracy_noise: float = keyed("accuracy_noise", float, 0.05, low=0.0)
    # a seed absent from the synth section takes the top-level seed
    seed: int = keyed("seed", int, 1, low=0)

    def __post_init__(self):
        for key in (DEVICES, NUM_SERVERS, NUM_ALGORITHMS):
            object.__setattr__(self, key.field, checked(key, getattr(self, key.field)))
        if self.offsets is None:
            offsets = np.linspace(0.30, 0.08, self.num_algorithms).round(6)
            object.__setattr__(self, "offsets", tuple(offsets.tolist()))
        check_keyed(self)
        if len(self.offsets) != self.num_algorithms:
            raise ValidationError("need one brightness offset per algorithm")
        for name in ("datasize_bits", "bandwidth_bps"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValidationError(f"{name} range must satisfy 0 <= lo <= hi")


def _upsample(coarse: np.ndarray, out: np.ndarray) -> None:
    """Bilinear resize of coarse grids (..., cr, cc) into `out` (..., rows, cols).

    Each coarse row is blended across the columns once, and each output row
    then blends the two blended rows around it: every cell gets the float
    ops, in the order, of the blend written out cell by cell.
    """
    (cr, cc), (rows, cols) = coarse.shape[-2:], out.shape[-2:]
    r = np.linspace(0.0, cr - 1.0, rows)
    c = np.linspace(0.0, cc - 1.0, cols)
    r0 = np.clip(np.floor(r).astype(int), 0, cr - 1)
    r1 = np.clip(r0 + 1, 0, cr - 1)
    c0 = np.clip(np.floor(c).astype(int), 0, cc - 1)
    c1 = np.clip(c0 + 1, 0, cc - 1)
    wr = (r - r0)[:, None]
    wc = c - c0
    # every coarse row blended across the columns once: (..., cr, cols)
    blended = coarse[..., c0] * (1 - wc)
    right = coarse[..., c1]
    right *= wc
    blended += right
    # top * (1 - wr) + bottom * wr, every product formed in place
    top = out
    np.multiply(blended[..., r0, :], 1 - wr, out=top)
    bottom = blended[..., r1, :]
    bottom *= wr
    top += bottom


def generate_synthetic(spec: SynthSpec) -> Trace:
    """Deterministic CAM trace: same SynthSpec, same bytes.

    Each slot's maps are one read-only (M, K+1, rows, cols) array, and
    device m's CAM stack is its row m, low-light first. A slot draws all its
    noise in one call: device by device, the K noise maps and then the K
    accuracy noises, the order the random stream has always had.
    """
    rng = np.random.default_rng(spec.seed)
    m, k, horizon = spec.num_devices, spec.num_algorithms, spec.horizon
    rows, cols = spec.cam_rows, spec.cam_cols
    cells = k * rows * cols
    cr = max(1, round(rows * spec.smoothness))
    cc = max(1, round(cols * spec.smoothness))
    scenes = rng.uniform(0.15, 0.55, size=(m, cr, cc))
    offsets = np.array(spec.offsets, dtype=np.float64)
    expected = spec.accuracy_floor + spec.accuracy_gain * offsets  # accuracy before noise
    noise = np.empty((m, cells + k))  # reused slot after slot

    slots = []
    for _t in range(horizon):
        scenes = np.clip(
            scenes + rng.normal(0.0, spec.drift, size=scenes.shape), 0.0, 0.8
        )
        maps = np.empty((m, k + 1, rows, cols))
        _upsample(scenes, maps[:, 0])
        np.clip(maps[:, 0], 0.0, None, out=maps[:, 0])
        np.add(maps[:, :1], offsets[:, None, None], out=maps[:, 1:])
        # 0 + sigma * z is exactly what Generator.normal(0, sigma) returns
        rng.standard_normal(out=noise)
        noise[:, :cells] *= spec.cam_noise
        noise[:, cells:] *= spec.accuracy_noise
        noise += 0.0
        maps[:, 1:] += noise[:, :cells].reshape(m, k, rows, cols)
        accuracy = np.empty((m, k + 1))
        accuracy[:, 0] = spec.accuracy_floor
        np.add(expected, noise[:, cells:], out=accuracy[:, 1:])
        np.clip(maps[:, 1:], 0.0, None, out=maps[:, 1:])
        np.clip(accuracy[:, 1:], 0.0, 1.0, out=accuracy[:, 1:])
        # clipping left no negative value, but an overflow or NaN survives it
        camq.check_cams(maps)
        maps.setflags(write=False)
        datasize = rng.uniform(*spec.datasize_bits, size=m)
        bandwidth = rng.uniform(*spec.bandwidth_bps, size=(m, spec.num_servers))
        slots.append(SlotData(datasize_bits=datasize, bandwidth_bps=bandwidth,
                              cams=tuple(maps), accuracy=accuracy, cams_checked=True))
    return Trace(m, spec.num_servers, k, tuple(slots))
