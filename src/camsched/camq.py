"""CAM-based assessment of low-light enhancement quality.

Enhancement quality for one device and one algorithm is the accuracy-weighted
difference between the filtered CAMs of the enhanced and low-light chunks,
normalised by how much the filtered enhanced CAMs moved over a recent window.
A stable scene with a strong activation gain scores high; a scene whose
activations churn from chunk to chunk scores low even if the gain is large.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError, UnknownDeviceError, ValidationError
from .keys import DEVICES, NUM_ALGORITHMS, Key, checked

DEFAULT_THRESHOLD = 0.4     # filter keeps activations strictly above this

# the quality-window settings, top-level config keys that QualityState checks
# its own through (`attr` names its parameter where the two differ):
# chunks of history per (device, algorithm)
WINDOW_DEPTH = Key("window_depth", int, 5, low=1)
# accuracy weight before any feedback arrives
DEFAULT_ACCURACY = Key("default_accuracy", float, 1.0, low=0.0, high=1.0)
# static scenes must not divide by ~0
DENOMINATOR_FLOOR = Key("denominator_floor", float, 1e-6, low=0.0, strict=True,
                        attr="denom_floor")
# symmetric clamp on the final score
QUALITY_CAP = Key("quality_cap", float, 10.0, low=0.0, strict=True)
# a state may track no algorithm at all, where a roster needs one
_NUM_ALGORITHMS = replace(NUM_ALGORITHMS, low=0)


def check_cams(values: np.ndarray, where: str = "") -> None:
    """Raise ValidationError, its message led by `where`, unless every CAM
    value is finite and non-negative.

    One min and one max pass pass good values (a NaN makes the min NaN, which
    fails too); only failing ones are scanned again, so that a value that
    breaks both rules is reported as not finite.
    """
    if values.min() >= 0.0 and values.max() < math.inf:
        return
    if not np.isfinite(values).all():
        raise ValidationError(f"{where}CAM values must be finite")
    raise ValidationError(f"{where}CAM values must be non-negative")


def filter_cam(cams: np.ndarray, threshold: float = DEFAULT_THRESHOLD,
               out: np.ndarray | None = None) -> np.ndarray:
    """The cells of CAM values strictly above the threshold, the rest zeroed:
    one map or a stack of maps, of finite non-negative values.

    The result goes into `out` when it is given, an array of the input's
    shape, and is returned; otherwise it is a new read-only float64 array.
    """
    if not math.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    given = out is not None
    if not given:
        cams = np.asarray(cams, dtype=np.float64)
        out = np.empty(cams.shape)
    if threshold < 0.0:
        np.copyto(out, cams)  # every value lies above it
    else:
        # a kept value lies above 0.0, so adding 0.0 leaves it as it is and
        # only turns a zeroed -0.0 into 0.0, as np.where would zero it; the
        # product runs far faster than np.where's branch per cell
        np.multiply(cams, cams > threshold, out=out)
        out += 0.0
    if not given:
        out.setflags(write=False)
    return out


# float64 cells a scoring step works on at once: its scratch array stays in
# cache, and a state's first slot touches few fresh pages for it
_CHUNK_CELLS = 1 << 14


class _Windows:
    """Ring storage for the CAM windows of the devices whose maps have one shape.

    The ring has depth + 1 columns, each a (devices, K+1, rows*cols) array
    of filtered maps: a device's low-light map, then one map per algorithm.
    The state's head and fill place every pair's stored entries in it; only
    the head column's low-light maps are read. A column per array keeps each
    window position contiguous across devices, and no allocation larger
    than one column. `maps` views each column as (devices, K+1, rows, cols),
    the shape a device's CAM stack is filtered into.
    """

    def __init__(self, shape: tuple[int, int], devices: list[int], num_algorithms: int,
                 depth: int):
        self.shape = shape
        self.devices = devices
        k, cells = num_algorithms, math.prod(shape)
        self.ring = [np.zeros((len(devices), k + 1, cells)) for _ in range(depth + 1)]
        self.maps = [column.reshape(len(devices), k + 1, *shape) for column in self.ring]
        # devices scored a few at a time, in one reused scratch array
        self.per_chunk = max(1, _CHUNK_CELLS // (k * cells))
        self.work = np.empty((min(self.per_chunk, len(devices)), k, cells))


class QualityState:
    """Sliding windows that back the quality score.

    Holds, per (device, algorithm), the cell values of the last
    ``window_depth`` filtered enhanced CAMs (all the score reads of them),
    and per device the last ``window_depth`` accuracy feedback values.
    Every slot assesses and commits all pairs together, so one head and one
    fill place the CAM entries of every pair: the stored ones sit in ring
    columns head - fill .. head - 1 (mod depth + 1), oldest first, and
    column head takes the maps being assessed, so a commit only advances
    the head. The rings, one per CAM shape, are laid out at the first
    assessed slot. The accuracy windows are one (devices, window_depth)
    array, newest value in the last column. Single-writer: one simulation
    loop mutates it.
    """

    def __init__(
        self,
        num_devices: int,
        num_algorithms: int,
        window_depth: int = WINDOW_DEPTH.default,
        default_accuracy: float = DEFAULT_ACCURACY.default,
        denom_floor: float = DENOMINATOR_FLOOR.default,
        quality_cap: float = QUALITY_CAP.default,
    ):
        self.num_devices = checked(DEVICES, num_devices)
        self.num_algorithms = checked(_NUM_ALGORITHMS, num_algorithms)
        self.window_depth = checked(WINDOW_DEPTH, window_depth)
        self.default_accuracy = checked(DEFAULT_ACCURACY, default_accuracy)
        self.denom_floor = checked(DENOMINATOR_FLOOR, denom_floor)
        self.quality_cap = checked(QUALITY_CAP, quality_cap)
        self._windows: tuple[_Windows, ...] | None = None  # per CAM shape
        self._head = 0
        self._fill = 0
        self._pending = False  # an assessed slot awaits its commit
        self._accuracy = np.zeros((self.num_devices, self.window_depth))
        self._accuracy_fill = np.zeros(self.num_devices, dtype=np.intp)

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise UnknownDeviceError(f"device {device} outside 0..{self.num_devices - 1}")


def _rolling_accuracies(state: QualityState) -> np.ndarray:
    """Every device's mean stored accuracy feedback, summed oldest first; the
    default for a device before any arrives.

    The columns a device has not filled yet hold 0.0 and come first, so
    adding every column in turn gives the sum of its window exactly.
    """
    total = np.zeros(state.num_devices)
    for column in state._accuracy.T:
        total += column
    fill = state._accuracy_fill
    return np.where(fill > 0, total / np.maximum(fill, 1), state.default_accuracy)


def _score(state: QualityState, windows: _Windows, accuracy: np.ndarray) -> np.ndarray:
    """The (devices, K) quality of every pair in the ring, from the maps in
    the head column.

    The accuracy-weighted filtered difference over the variation against the
    pair's window, summed oldest entry first, floored and clamped. The
    variation is taken one window position at a time.
    """
    k, depth, head = state.num_algorithms, state.window_depth, state._head
    ring, step = windows.ring, windows.per_chunk
    lowlight, enhanced = ring[head][:, :1], ring[head][:, 1:]
    numerator, total = np.empty((len(enhanced), k)), np.zeros((len(enhanced), k))
    for lo in range(0, len(enhanced), step):
        enh = enhanced[lo:lo + step]
        buf = windows.work[:len(enh)]
        np.subtract(enh, lowlight[lo:lo + step], out=buf)
        numerator[lo:lo + step] = buf.sum(-1)
        for age in range(depth - state._fill, depth):
            np.subtract(enh, ring[(head - depth + age) % (depth + 1)][lo:lo + step, 1:], out=buf)
            np.abs(buf, out=buf)
            total[lo:lo + step] += buf.sum(-1)
    denom = np.maximum(total, state.denom_floor)
    score = accuracy[windows.devices, None] * numerator / denom
    return np.minimum(np.maximum(score, -state.quality_cap), state.quality_cap)


def enhancement_quality(
    state: QualityState,
    cams: Sequence[np.ndarray],
    threshold: float = DEFAULT_THRESHOLD,
) -> np.ndarray:
    """One slot's (devices, K+1) quality matrix against the current windows.

    `cams[m]` is device m's (K+1, rows, cols) stack of finite, non-negative
    CAM values: its low-light map, then one enhanced map per algorithm
    k = 1..K, in the shape its maps had at the state's first slot. Column 0,
    sending the raw chunk, is always 0. Each device's stack is filtered in
    one call, straight into its rows of the ring, and all pairs of a shape
    are scored together. :func:`commit_slot` then makes the assessed maps
    the windows' newest entries.

    A sum past the float range clamps to the cap; a NaN score is left for
    the caller's finite check.
    """
    m, k = state.num_devices, state.num_algorithms
    if len(cams) != m or any(len(stack) != k + 1 for stack in cams):
        raise ValidationError(
            f"a slot needs one low-light map and {k} enhanced maps for each of {m} devices"
        )
    state._pending = False  # until this slot's maps are all in the head column
    quality = np.zeros((m, k + 1))
    if k and state._windows is None:
        by_shape: dict[tuple[int, ...], list[int]] = {}
        for device, stack in enumerate(cams):
            by_shape.setdefault(stack.shape[1:], []).append(device)
        state._windows = tuple(_Windows(shape, devices, k, state.window_depth)
                               for shape, devices in by_shape.items())
    accuracy = _rolling_accuracies(state)
    for windows in state._windows or ():
        column, shape = windows.maps[state._head], (k + 1, *windows.shape)
        for i, device in enumerate(windows.devices):
            stack = cams[device]
            if stack.shape != shape:
                raise ShapeMismatchError(
                    f"device {device}: CAM shapes differ: {stack.shape[1:]} vs {windows.shape}"
                )
            filter_cam(stack, threshold, column[i])
        with np.errstate(over="ignore", invalid="ignore"):
            quality[windows.devices, 1:] = _score(state, windows, accuracy)
    state._pending = True
    return quality


def commit_slot(state: QualityState) -> None:
    """Make the maps :func:`enhancement_quality` assessed last the newest
    entry of every pair's window, evicting the oldest past window_depth.

    The devices' accuracy feedback goes in through :func:`record_accuracy`.
    """
    if not state._pending:
        raise ValidationError("no assessed slot to commit")
    state._pending = False
    state._head = (state._head + 1) % (state.window_depth + 1)
    state._fill = min(state._fill + 1, state.window_depth)


def record_accuracy(state: QualityState, device: int, accuracy: float) -> None:
    """Append one analytics accuracy observation to the device's window."""
    state._check_device(device)
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy {accuracy} outside [0, 1]")
    window = state._accuracy[device]
    window[:-1] = window[1:]
    window[-1] = accuracy
    state._accuracy_fill[device] = min(state._accuracy_fill[device] + 1, state.window_depth)
