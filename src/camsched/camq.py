"""CAM-based assessment of low-light enhancement quality.

Enhancement quality for one device and one algorithm is the accuracy-weighted
difference between the filtered CAMs of the enhanced and low-light chunks,
normalised by how much the filtered enhanced CAMs moved over a recent window.
A stable scene with a strong activation gain scores high; a scene whose
activations churn from chunk to chunk scores low even if the gain is large.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError, UnknownDeviceError, ValidationError

DEFAULT_THRESHOLD = 0.4     # filter keeps activations strictly above this
DEFAULT_WINDOW_DEPTH = 5    # chunks of history per (device, algorithm)
DEFAULT_ACCURACY = 1.0      # accuracy weight before any feedback arrives
DEFAULT_DENOM_FLOOR = 1e-6  # static scenes must not divide by ~0
DEFAULT_QUALITY_CAP = 10.0  # symmetric clamp on the final score


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"CAM must be a 2-D matrix, got shape {arr.shape}")
    return arr


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"CAM shapes differ: {a.shape} vs {b.shape}")


def trusted(cls, **fields):
    """An instance of CamMap or FilteredCam over arrays used as they are given.

    It skips __post_init__'s checks and copy, so the caller must hand over a
    read-only 2-D float64 array that already holds the class's invariant:
    filter_cam's output, or a view of a CAM file's checked values.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class CamMap:
    """Dense activation heatmap; finite, non-negative, at least 1x1."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values)
        if not np.isfinite(arr).all():
            raise ValidationError("CAM values must be finite")
        if (arr < 0.0).any():
            raise ValidationError("CAM values must be non-negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class FilteredCam:
    """CAM after thresholding: every cell is either 0 or strictly above the threshold."""

    values: np.ndarray
    threshold: float

    def __post_init__(self):
        arr = _as_matrix(self.values)
        if not np.isfinite(arr).all():
            raise ValidationError("filtered CAM values must be finite")
        kept = arr != 0.0
        if (arr[kept] <= self.threshold).any():
            raise ValidationError(
                "filtered CAM holds nonzero cells at or below its threshold"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def cam_difference(enhanced: CamMap, lowlight: CamMap) -> float:
    """Signed cell-wise activation gain: sum of (enhanced - lowlight)."""
    _check_same_shape(enhanced.values, lowlight.values)
    return float(np.sum(enhanced.values - lowlight.values))


def filter_cam(cam: CamMap, threshold: float = DEFAULT_THRESHOLD) -> FilteredCam:
    """Keep cells strictly above the threshold, zero the rest."""
    if not np.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    vals = np.where(cam.values > threshold, cam.values, 0.0)
    # a finite map and a finite threshold give a finite result whose nonzero
    # cells lie above the threshold, so FilteredCam's checks would all pass
    vals.setflags(write=False)
    return trusted(FilteredCam, values=vals, threshold=float(threshold))


def filtered_difference(enhanced: FilteredCam, lowlight: FilteredCam) -> float:
    """Signed difference restricted to salient activations.

    Both operands must come from the same threshold, otherwise the comparison
    is meaningless.
    """
    _check_same_shape(enhanced.values, lowlight.values)
    if enhanced.threshold != lowlight.threshold:
        raise ValidationError(
            f"filter thresholds differ: {enhanced.threshold} vs {lowlight.threshold}"
        )
    return float(np.sum(enhanced.values - lowlight.values))


def temporal_variation(
    current: FilteredCam,
    history: Sequence[FilteredCam],
    floor: float = DEFAULT_DENOM_FLOOR,
) -> float:
    """Total absolute cell-wise movement of the current map against each stored one.

    Empty history or a static scene collapses the raw sum to ~0, so the result
    is floored to keep downstream ratios finite.
    """
    if floor <= 0.0:
        raise ValidationError("variation floor must be positive")
    total = 0.0
    for past in history:
        _check_same_shape(current.values, past.values)
        total += float(np.sum(np.abs(current.values - past.values)))
    return max(total, floor)


class QualityState:
    """Sliding windows that back the quality score.

    Holds, per (device, algorithm), the last ``window_depth`` filtered enhanced
    CAMs, and per device the last ``window_depth`` accuracy feedback values.
    Single-writer: one simulation loop mutates it via :func:`commit_slot`.
    """

    def __init__(
        self,
        num_devices: int,
        num_algorithms: int,
        window_depth: int = DEFAULT_WINDOW_DEPTH,
        default_accuracy: float = DEFAULT_ACCURACY,
        denom_floor: float = DEFAULT_DENOM_FLOOR,
        quality_cap: float = DEFAULT_QUALITY_CAP,
    ):
        if num_devices < 1:
            raise ValidationError("need at least one device")
        if num_algorithms < 0:
            raise ValidationError("algorithm count must be non-negative")
        if window_depth < 1:
            raise ValidationError("window depth must be at least 1")
        if not 0.0 <= default_accuracy <= 1.0:
            raise ValidationError("default accuracy must lie in [0, 1]")
        if denom_floor <= 0.0:
            raise ValidationError("denominator floor must be positive")
        if quality_cap <= 0.0:
            raise ValidationError("quality cap must be positive")
        self.num_devices = int(num_devices)
        self.num_algorithms = int(num_algorithms)
        self.window_depth = int(window_depth)
        self.default_accuracy = float(default_accuracy)
        self.denom_floor = float(denom_floor)
        self.quality_cap = float(quality_cap)
        self._cams: list[list[deque]] = [
            [deque(maxlen=window_depth) for _ in range(num_algorithms)]
            for _ in range(num_devices)
        ]
        self._accuracy: list[deque] = [
            deque(maxlen=window_depth) for _ in range(num_devices)
        ]

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise UnknownDeviceError(f"device {device} outside 0..{self.num_devices - 1}")

    def _check_algorithm(self, algorithm: int) -> None:
        if not 1 <= algorithm <= self.num_algorithms:
            raise UnknownDeviceError(
                f"algorithm {algorithm} outside 1..{self.num_algorithms}"
            )

    def cam_window(self, device: int, algorithm: int) -> tuple[FilteredCam, ...]:
        self._check_device(device)
        self._check_algorithm(algorithm)
        return tuple(self._cams[device][algorithm - 1])

    def accuracy_window(self, device: int) -> tuple[float, ...]:
        self._check_device(device)
        return tuple(self._accuracy[device])


def rolling_accuracy(state: QualityState, device: int) -> float:
    """Mean of the device's stored accuracy feedback; the default before any arrives."""
    window = state.accuracy_window(device)
    if not window:
        return state.default_accuracy
    return sum(window) / len(window)


def enhancement_quality(
    state: QualityState,
    device: int,
    algorithm: int,
    enhanced: CamMap,
    lowlight: CamMap,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Quality score for running `algorithm` on this device's current chunk.

    Algorithm 0 means "send the raw chunk" and always scores exactly 0; a real
    algorithm is scored by :func:`filtered_quality` on the two filtered maps.
    """
    if algorithm == 0:
        return 0.0
    return filtered_quality(
        state, device, algorithm,
        filter_cam(enhanced, threshold), filter_cam(lowlight, threshold),
    )


def filtered_quality(
    state: QualityState,
    device: int,
    algorithm: int,
    filtered_enhanced: FilteredCam,
    filtered_lowlight: FilteredCam,
) -> float:
    """Quality score from maps that are already filtered.

    The accuracy-weighted filtered difference divided by the windowed temporal
    variation, clamped to +/- quality_cap; algorithm 0 scores exactly 0. A
    slot filters each map once and scores every algorithm from those maps.
    """
    if algorithm == 0:
        return 0.0
    state._check_device(device)
    state._check_algorithm(algorithm)
    numerator = filtered_difference(filtered_enhanced, filtered_lowlight)
    history = state.cam_window(device, algorithm)
    denom = temporal_variation(filtered_enhanced, history, state.denom_floor)
    score = rolling_accuracy(state, device) * numerator / denom
    cap = state.quality_cap
    return min(max(score, -cap), cap)


def record_accuracy(state: QualityState, device: int, accuracy: float) -> None:
    """Append one analytics accuracy observation to the device's window."""
    state._check_device(device)
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy {accuracy} outside [0, 1]")
    state._accuracy[device].append(float(accuracy))


def commit_slot(
    state: QualityState,
    device: int,
    algorithm: int,
    filtered_enhanced: FilteredCam,
    accuracy_feedback: float | None = None,
) -> None:
    """Finish a slot for one (device, algorithm): store the filtered enhanced CAM
    and, when given, the accuracy feedback observed for this device.

    Windows evict oldest-first once window_depth entries are stored.
    """
    state._check_device(device)
    state._check_algorithm(algorithm)
    window = state._cams[device][algorithm - 1]
    if window:
        _check_same_shape(filtered_enhanced.values, window[-1].values)
    window.append(filtered_enhanced)
    if accuracy_feedback is not None:
        record_accuracy(state, device, accuracy_feedback)
