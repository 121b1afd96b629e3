"""Slot-by-slot simulation: assess quality, schedule, account, commit windows.

A trace carries, per slot, the chunk sizes and uplink bandwidths plus either
raw CAM pairs (assessed on the fly) or a precomputed quality matrix. The
synthetic generator builds CAM traces with per-algorithm brightness offsets
over a slowly drifting scene, so stronger algorithms earn larger filtered
differences and correlated accuracy feedback.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import camq, sched
from .camq import CamMap, QualityState, SlotMaps
from .errors import TraceError, ValidationError
from .sched import GaConfig
# device_latency is not called here, but perfbench/tracing.py wraps it through
# this module's attribute, so the name stays bound
from .sysmodel import (Decision, SlotInput, SystemModel, check_dims, check_feasibility,
                       check_slot_values, device_latency)

SCHEDULER_CHOICES = ("ga", "oracle", "capacity", "none")

@dataclass(frozen=True)
class SlotData:
    """One slot of trace input. Exactly one of `quality` and the CAM payload
    (`lowlight` plus `enhanced`) must be present."""

    datasize_bits: np.ndarray                              # (M,)
    bandwidth_bps: np.ndarray                              # (M, N)
    quality: np.ndarray | None = None                      # (M, K+1)
    lowlight: tuple[CamMap, ...] | None = None             # per device
    enhanced: tuple[tuple[CamMap, ...], ...] | None = None # per device, per k=1..K
    accuracy: np.ndarray | None = None                     # (M, K+1) in [0, 1]

    def __post_init__(self):
        has_q = self.quality is not None
        has_cams = self.lowlight is not None or self.enhanced is not None
        if has_q == has_cams:
            raise TraceError("slot needs exactly one of quality matrix or CAM payload")
        if has_cams and (self.lowlight is None or self.enhanced is None):
            raise TraceError("CAM payload needs both low-light and enhanced maps")
        for name in ("datasize_bits", "bandwidth_bps", "quality", "accuracy"):
            value = getattr(self, name)
            if value is None and name in ("quality", "accuracy"):
                continue  # absent; a missing datasize or bandwidth is not numeric
            try:
                arr = np.asarray(value)
                numeric = arr.dtype.kind in "iuf"
            except (TypeError, ValueError):  # ragged nesting
                numeric = False
            # strings and bools are not numbers, as in a config document
            if not numeric:
                raise TraceError(f"{name} is not a numeric array")
            object.__setattr__(self, name, arr.astype(np.float64, copy=False))


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
        if m < 1 or n < 1 or k < 0:
            raise TraceError("trace needs at least one device and one server")
        shapes: dict[int, tuple[int, ...]] = {}  # each device's CAM shape
        for t, slot in enumerate(self.slots):
            if slot.datasize_bits.shape != (m,):
                raise TraceError(f"slot {t}: datasize must have shape ({m},)")
            if slot.bandwidth_bps.shape != (m, n):
                raise TraceError(f"slot {t}: bandwidth must have shape ({m}, {n})")
            if slot.quality is not None and slot.quality.shape != (m, k + 1):
                raise TraceError(f"slot {t}: quality must have shape ({m}, {k + 1})")
            if slot.lowlight is not None:
                if len(slot.lowlight) != m or len(slot.enhanced) != m:
                    raise TraceError(f"slot {t}: CAM payload must cover every device")
                if any(len(per_dev) != k for per_dev in slot.enhanced):
                    raise TraceError(f"slot {t}: need one enhanced CAM per algorithm")
                # a device keeps one CAM shape across its maps and slots
                for dev, (low, per_alg) in enumerate(zip(slot.lowlight, slot.enhanced)):
                    shape = shapes.setdefault(dev, low.shape)
                    for cam in (low, *per_alg):
                        if cam.shape != shape:
                            raise TraceError(
                                f"slot {t} device {dev}: CAM shapes differ: "
                                f"{shape} vs {cam.shape}"
                            )
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


def assess_quality(
    trace: Trace, slot: SlotData, state: QualityState, threshold: float
) -> tuple[np.ndarray, SlotMaps | None]:
    """Assessment stage: the slot's (M, K+1) quality against the current windows.

    Every CAM of the slot is filtered once, and all (device, algorithm) pairs
    are scored from those maps together. The assessed maps come back with the
    quality matrix for :func:`commit_windows`; a quality-matrix slot has none.
    """
    if slot.quality is not None:
        return slot.quality, None
    return camq.slot_quality(state, slot.lowlight, slot.enhanced, threshold)


def commit_windows(
    trace: Trace,
    slot: SlotData,
    state: QualityState,
    decision: Decision | None,
    rejected: frozenset[int],
    filtered: SlotMaps | None,
) -> None:
    """Commit stage: advance the windows past the slot with the maps
    :func:`assess_quality` filtered for it.

    Windows advance for every algorithm each slot, not just the chosen one;
    accuracy feedback lands only for what actually ran (decision None means
    a pure assessment replay where nothing ran).
    """
    if filtered is not None:
        camq.commit_maps(state, filtered)
    if slot.accuracy is not None and decision is not None:
        for m in range(trace.num_devices):
            if m in rejected:
                continue
            camq.record_accuracy(state, m, float(slot.accuracy[m, decision.algorithms[m]]))


def replay(trace: Trace, state: QualityState, threshold: float) -> Iterator[np.ndarray]:
    """Walk the trace as if no algorithm ran: assess each slot, commit its
    windows without accuracy feedback, then yield its quality matrix.

    After n items the state holds exactly the windows of slots 0..n-1.
    """
    for slot in trace.slots:
        quality, filtered = assess_quality(trace, slot, state, threshold)
        commit_windows(trace, slot, state, None, frozenset(), filtered)
        yield quality


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
    quality matrix; window commits happen last.
    """
    if scheduler not in SCHEDULER_CHOICES:
        raise ValidationError(f"unknown scheduler {scheduler!r}")
    if not 0 <= t < trace.horizon:
        raise TraceError(f"slot {t} outside trace horizon {trace.horizon}")
    slot_data = trace.slots[t]
    quality, filtered = assess_quality(trace, slot_data, state, threshold)
    slot = SlotInput(slot_data.datasize_bits, slot_data.bandwidth_bps, quality)

    rejected: frozenset[int] = frozenset()
    report = None  # the GA's answer arrives already scored
    started = time.perf_counter()
    if scheduler == "ga":
        best, _history = sched.evolve(slot, model, ga_config)
        decision, report = best.decision, best.report
    elif scheduler == "oracle":
        result = sched.brute_force(slot, model, oracle_limit)
        if result.decision is None:
            # nothing feasible anywhere: fall back to shipping raw chunks
            decision = sched.baseline_no_enhancement(slot, model)
        else:
            decision = result.decision
    elif scheduler == "capacity":
        outcome = sched.baseline_capacity(slot, model)
        decision = outcome.decision
        rejected = outcome.rejected
    else:
        decision = sched.baseline_no_enhancement(slot, model)
    elapsed = time.perf_counter() - started

    if report is None:
        report = check_feasibility(decision, slot, model)
    # a rejected device is not served: no quality, infinite latency, -inf utility
    served = np.ones(model.num_devices, dtype=bool)
    served[list(rejected)] = False
    qualities = np.where(served, quality[np.arange(len(served)), decision.algorithms], 0.0)
    latencies = np.where(served, report.latencies, math.inf)
    utilities = np.where(served, report.utilities, -math.inf)

    commit_windows(trace, slot_data, state, decision, rejected, filtered)
    return SlotMetrics(
        slot=t,
        decision=decision,
        rejected=rejected,
        qualities=tuple(qualities.tolist()),
        latencies=tuple(latencies.tolist()),
        utilities=tuple(utilities.tolist()),
        total_utility=-math.inf if rejected else report.total_utility,
        feasible=report.feasible and not rejected,
        scheduler_seconds=elapsed,
    )


def summarize(metrics: Sequence[SlotMetrics]) -> RunSummary:
    """Aggregate run statistics; an empty run summarises to all-None."""
    if not metrics:
        return RunSummary(0, None, None, None, None, None, None)
    totals = [m.total_utility for m in metrics]
    # latency stats cover served devices only; a rejected device has no latency
    lats = np.array([
        lat for m in metrics for lat in m.latencies if math.isfinite(lat)
    ])
    no_lats = lats.size == 0
    return RunSummary(
        slots=len(metrics),
        mean_total_utility=float(np.mean(totals)),
        mean_latency_s=None if no_lats else float(np.mean(lats)),
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
    """

    num_devices: int = 10
    num_servers: int = 4
    num_algorithms: int = 4
    horizon: int = 30
    cam_rows: int = 16
    cam_cols: int = 16
    smoothness: float = 0.25            # coarse-grid fraction; lower is smoother
    drift: float = 0.05                 # per-slot scene movement, coarse-grid sigma
    offsets: tuple[float, ...] = (0.30, 0.22, 0.14, 0.08)
    cam_noise: float = 0.02
    datasize_bits: tuple[float, float] = (15e6, 25e6)
    bandwidth_bps: tuple[float, float] = (20e6, 20e6)
    accuracy_floor: float = 0.6
    accuracy_gain: float = 0.8
    accuracy_noise: float = 0.05
    seed: int = 1

    def __post_init__(self):
        if min(self.num_devices, self.num_servers, self.num_algorithms) < 1:
            raise ValidationError("device, server and algorithm counts must be >= 1")
        if self.horizon < 0:
            raise ValidationError("horizon must be non-negative")
        if self.cam_rows < 1 or self.cam_cols < 1:
            raise ValidationError("CAM shape must be at least 1x1")
        if not 0.0 < self.smoothness <= 1.0:
            raise ValidationError("smoothness must lie in (0, 1]")
        if len(self.offsets) != self.num_algorithms:
            raise ValidationError("need one brightness offset per algorithm")
        for name in ("drift", "cam_noise", "accuracy_noise"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        for name in ("datasize_bits", "bandwidth_bps"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValidationError(f"{name} range must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValidationError("accuracy floor must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationError(f"generator seed must be non-negative, got {self.seed}")


def _upsample(coarse: np.ndarray, out: np.ndarray) -> None:
    """Bilinear resize of coarse grids (..., cr, cc) into `out` (..., rows, cols)."""
    (cr, cc), (rows, cols) = coarse.shape[-2:], out.shape[-2:]
    if cr == rows and cc == cols:
        np.copyto(out, coarse)
        return
    r = np.linspace(0.0, cr - 1.0, rows)
    c = np.linspace(0.0, cc - 1.0, cols)
    r0 = np.clip(np.floor(r).astype(int), 0, cr - 1)
    r1 = np.clip(r0 + 1, 0, cr - 1)
    c0 = np.clip(np.floor(c).astype(int), 0, cc - 1)
    c1 = np.clip(c0 + 1, 0, cc - 1)
    wr = (r - r0)[:, None]
    wc = (c - c0)[None, :]
    r0, r1 = r0[:, None], r1[:, None]
    # top * (1 - wr) + bottom * wr, every product formed in place
    top = out
    np.multiply(coarse[..., r0, c0], 1 - wc, out=top)
    right = coarse[..., r0, c1]
    right *= wc
    top += right
    bottom = coarse[..., r1, c0]
    bottom *= 1 - wc
    right = coarse[..., r1, c1]
    right *= wc
    bottom += right
    top *= 1 - wr
    bottom *= wr
    top += bottom


def generate_synthetic(spec: SynthSpec) -> Trace:
    """Deterministic CAM trace: same SynthSpec, same bytes.

    Each slot's maps are one (M, K+1, rows, cols) stack, low-light first;
    each device draws its K noise maps and then its K accuracy noises in one
    call, the order the random stream has always had.
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

    slots = []
    for _t in range(horizon):
        scenes = np.clip(
            scenes + rng.normal(0.0, spec.drift, size=scenes.shape), 0.0, 0.8
        )
        maps = np.empty((m, k + 1, rows, cols))
        _upsample(scenes, maps[:, 0])
        np.clip(maps[:, 0], 0.0, None, out=maps[:, 0])
        np.add(maps[:, :1], offsets[:, None, None], out=maps[:, 1:])
        accuracy = np.empty((m, k + 1))
        accuracy[:, 0] = spec.accuracy_floor
        for dev in range(m):
            # 0 + sigma * z is exactly what Generator.normal(0, sigma) returns
            z = rng.standard_normal(cells + k)
            z[:cells] *= spec.cam_noise
            z[cells:] *= spec.accuracy_noise
            z += 0.0
            maps[dev, 1:] += z[:cells].reshape(k, rows, cols)
            accuracy[dev, 1:] = expected + z[cells:]
        np.clip(maps[:, 1:], 0.0, None, out=maps[:, 1:])
        np.clip(accuracy[:, 1:], 0.0, 1.0, out=accuracy[:, 1:])
        # clipping left no negative value, but an overflow or NaN survives it
        if not np.isfinite(maps).all():
            raise ValidationError("CAM values must be finite")
        maps.setflags(write=False)
        datasize = rng.uniform(*spec.datasize_bits, size=m)
        bandwidth = rng.uniform(*spec.bandwidth_bps, size=(m, spec.num_servers))
        slots.append(
            SlotData(
                datasize_bits=datasize,
                bandwidth_bps=bandwidth,
                lowlight=tuple(camq.trusted(CamMap, values=maps[dev, 0]) for dev in range(m)),
                enhanced=tuple(
                    tuple(camq.trusted(CamMap, values=cam) for cam in maps[dev, 1:])
                    for dev in range(m)
                ),
                accuracy=accuracy,
            )
        )
    return Trace(m, spec.num_servers, k, tuple(slots))
