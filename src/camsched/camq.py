"""CAM-based assessment of low-light enhancement quality.

Enhancement quality for one device and one algorithm is the accuracy-weighted
difference between the filtered CAMs of the enhanced and low-light chunks,
normalised by how much the filtered enhanced CAMs moved over a recent window.
A stable scene with a strong activation gain scores high; a scene whose
activations churn from chunk to chunk scores low even if the gain is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError, UnknownDeviceError, ValidationError

DEFAULT_THRESHOLD = 0.4     # filter keeps activations strictly above this
DEFAULT_WINDOW_DEPTH = 5    # chunks of history per (device, algorithm)
DEFAULT_ACCURACY = 1.0      # accuracy weight before any feedback arrives
DEFAULT_DENOM_FLOOR = 1e-6  # static scenes must not divide by ~0
DEFAULT_QUALITY_CAP = 10.0  # symmetric clamp on the final score


def trusted(cls, **fields):
    """An instance of CamMap or SlotInput over arrays used as is.

    It skips __post_init__'s checks and copy, so the caller must hand over
    read-only float64 arrays that already hold the class's invariant: a CAM
    file's checked values, or checked slot values.
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
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"CAM must be a 2-D matrix, got shape {arr.shape}")
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


def filter_cam(cam: CamMap, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The map's cells strictly above the threshold, the rest zeroed, as a
    read-only float64 array of the map's shape."""
    if not np.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    vals = np.where(cam.values > threshold, cam.values, 0.0)
    vals.setflags(write=False)
    return vals


# float64 cells a scoring step works on at once: its scratch array stays in
# cache, and a state's first slot touches few fresh pages for it
_CHUNK_CELLS = 1 << 14


class _Windows:
    """Ring storage for the CAM windows of every pair whose maps have one shape.

    Row r is one (device, algorithm) pair, its maps flattened to rows*cols
    cells. The ring has depth + 1 columns, each a (rows, cells) array: row
    r's stored entries sit in columns head[r] - fill[r] .. head[r] - 1
    (mod depth + 1), oldest first. Column head[r] takes the map being
    assessed, so committing it only advances the head. A column per array
    keeps each window position contiguous across rows, and no allocation
    larger than one column. Rows are only ever added: a pair that moves to
    another shape before storing anything leaves its empty row behind.
    """

    def __init__(self, shape: tuple[int, int], depth: int):
        self.shape = shape
        self.cells = shape[0] * shape[1]
        self.ring = [np.zeros((0, self.cells)) for _ in range(depth + 1)]
        self.head = np.zeros(0, dtype=np.intp)
        self.fill = np.zeros(0, dtype=np.intp)
        self._work = np.empty((0, self.cells))

    def add(self, count: int) -> int:
        """Append `count` empty rows; return the first one's index."""
        first = len(self.fill)
        for c, column in enumerate(self.ring):
            self.ring[c] = np.zeros((first + count, self.cells))
            self.ring[c][:first] = column
        self.head = np.concatenate([self.head, np.zeros(count, dtype=np.intp)])
        self.fill = np.concatenate([self.fill, np.zeros(count, dtype=np.intp)])
        return first

    def work(self, rows: int) -> np.ndarray:
        """A (rows, cells) scratch array, reused from slot to slot."""
        if len(self._work) < rows:
            self._work = np.empty((rows, self.cells))
        return self._work[:rows]

    def align(self, rows) -> int:
        """Rotate the rings of `rows` to one common head, and return it.

        A rotation keeps every entry's age, so only per-pair commits in an
        uneven order ever need one.
        """
        heads = self.head[rows]
        head = int(heads[0])
        for row in np.arange(len(self.head))[rows][heads != head]:
            shift = head - self.head[row]
            entries = [column[row].copy() for column in self.ring]
            for c, entry in enumerate(entries):
                self.ring[(c + shift) % len(self.ring)][row] = entry
            self.head[row] = head
        return head


class QualityState:
    """Sliding windows that back the quality score.

    Holds, per (device, algorithm), the cell values of the last
    ``window_depth`` filtered enhanced CAMs (all the score reads of them),
    and per device the last ``window_depth`` accuracy feedback values.
    The CAM windows of all pairs with one map shape share one ring, built
    at the first assessment or commit of each pair, so a slot reads and
    writes them with a few numpy calls; the accuracy windows are one
    (devices, window_depth) array, newest value in the last column.
    Single-writer: one simulation loop mutates it.
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
        self._windows: dict[tuple[int, int], _Windows] = {}          # per CAM shape
        self._homes: dict[tuple[int, int], tuple[_Windows, int]] = {}  # pair -> row
        self._accuracy = np.zeros((self.num_devices, self.window_depth))
        self._accuracy_fill = np.zeros(self.num_devices, dtype=np.intp)

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise UnknownDeviceError(f"device {device} outside 0..{self.num_devices - 1}")

    def _check_algorithm(self, algorithm: int) -> None:
        if not 1 <= algorithm <= self.num_algorithms:
            raise UnknownDeviceError(
                f"algorithm {algorithm} outside 1..{self.num_algorithms}"
            )

    def _rows(self, pairs: Sequence[tuple[int, int]], shape: tuple[int, int]):
        """(windows, rows) of `pairs`, whose maps have `shape`; a pair seen for
        the first time gets a row.

        A pair that already stores maps of another shape is a ShapeMismatchError.
        """
        windows = self._windows.get(shape)
        if windows is None:
            windows = self._windows[shape] = _Windows(shape, self.window_depth)
        rows, new = [], []
        for pair in pairs:
            home = self._homes.get(pair)
            if home is not None and home[0] is not windows:
                other, row = home
                if other.fill[row]:
                    raise ShapeMismatchError(f"CAM shapes differ: {shape} vs {other.shape}")
                home = None
            if home is None:
                new.append(pair)
                rows.append(len(windows.fill) + len(new) - 1)
            else:
                rows.append(home[1])
        if new:
            first = windows.add(len(new))
            for i, pair in enumerate(new):
                self._homes[pair] = (windows, first + i)
        return windows, rows


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


@dataclass(frozen=True)
class _Block:
    """The pairs devices x algorithms of one slot whose maps share a shape,
    device-major. Their filtered enhanced maps sit in column `head` of their
    ring rows; `lowlight` holds each device's flattened filtered map."""

    windows: _Windows
    rows: slice | np.ndarray
    head: int
    num_algorithms: int
    lowlight: tuple[np.ndarray, ...]


# a slot's assessed pairs per CAM shape, for commit_maps
SlotMaps = tuple[_Block, ...]


def _block(state, shape, devices, algorithms, enhanced, lowlight=()) -> _Block:
    """Write filtered maps of `shape` into the head column of their pairs'
    rings: one per pair from the iterable `enhanced`, device-major, and
    `lowlight` per device when the block is to be scored."""
    windows, rows = state._rows([(d, a) for d in devices for a in algorithms], shape)
    first = rows[0]
    # consecutive rows select a view, so reading them makes no copy
    select = (slice(first, first + len(rows)) if rows == list(range(first, first + len(rows)))
              else np.array(rows))
    head = windows.align(select)
    for row, fc in zip(rows, enhanced):
        if fc.shape != shape:
            raise ShapeMismatchError(f"CAM shapes differ: {fc.shape} vs {shape}")
        windows.ring[head][row] = fc.reshape(-1)
    return _Block(windows, select, head, len(algorithms),
                  tuple(fc.reshape(-1) for fc in lowlight))


def _score(state: QualityState, block: _Block, accuracy: np.ndarray) -> np.ndarray:
    """Quality of every pair in the block, in its order; `accuracy` holds the
    rolling accuracy of each of the block's devices.

    The accuracy-weighted filtered difference over the variation against the
    pair's window, summed oldest entry first, floored and clamped. Devices
    are taken a few at a time and the variation one window position at a
    time, so the scratch array holds _CHUNK_CELLS cells or one device's maps.
    """
    windows, rows, head, k = block.windows, block.rows, block.head, block.num_algorithms
    depth = state.window_depth
    ring, cells = windows.ring, windows.cells
    enhanced, fill = ring[head][rows], windows.fill[rows]
    numerator, total = np.empty(len(fill)), np.zeros(len(fill))
    per_chunk = max(1, _CHUNK_CELLS // (k * cells))
    work = windows.work(min(per_chunk, len(block.lowlight)) * k)
    for first in range(0, len(block.lowlight), per_chunk):
        lows = block.lowlight[first:first + per_chunk]
        lo, hi = first * k, (first + len(lows)) * k
        enh, buf = enhanced[lo:hi], work[:hi - lo]
        for d, low in enumerate(lows):
            np.subtract(enh[d * k:(d + 1) * k], low, out=buf[d * k:(d + 1) * k])
        numerator[lo:hi] = buf.sum(-1)
        past = slice(rows.start + lo, rows.start + hi) if isinstance(rows, slice) else rows[lo:hi]
        for age in range(depth - int(fill[lo:hi].max()), depth):
            np.subtract(enh, ring[(head - depth + age) % (depth + 1)][past], out=buf)
            np.abs(buf, out=buf)
            total[lo:hi] += np.where(fill[lo:hi] >= depth - age, buf.sum(-1), 0.0)
    denom = np.maximum(total, state.denom_floor)
    score = np.repeat(accuracy, k) * numerator / denom
    return np.minimum(np.maximum(score, -state.quality_cap), state.quality_cap)


def _commit(state: QualityState, block: _Block) -> None:
    """Make each pair's assessed map its newest window entry."""
    windows, rows = block.windows, block.rows
    windows.head[rows] = (block.head + 1) % (state.window_depth + 1)
    windows.fill[rows] = np.minimum(windows.fill[rows] + 1, state.window_depth)


def slot_quality(
    state: QualityState,
    lowlight: Sequence[CamMap],
    enhanced: Sequence[Sequence[CamMap]],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[np.ndarray, SlotMaps]:
    """One slot's (devices, K+1) quality matrix against the current windows.

    `lowlight` holds one map per device and `enhanced[m]` one per algorithm
    k = 1..K, every map of a device in one shape. Each map is filtered once,
    straight into its pair's ring, and all pairs of a shape are scored
    together. What comes back for :func:`commit_maps` is valid until the
    state changes otherwise.
    """
    m, k = len(lowlight), len(enhanced[0])
    if len(enhanced) != m or any(len(per_alg) != k for per_alg in enhanced):
        raise ValidationError("need one low-light map and K enhanced maps per device")
    lows = [filter_cam(cam, threshold) for cam in lowlight]
    quality = np.zeros((m, k + 1))
    if not k:
        return quality, ()
    state._check_device(m - 1)
    state._check_algorithm(k)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for device, low in enumerate(lows):
        by_shape.setdefault(low.shape, []).append(device)
    algorithms = list(range(1, k + 1))
    accuracy = _rolling_accuracies(state)
    blocks = []
    for shape, devices in by_shape.items():
        # filtered one at a time, so only one enhanced map is alive outside the rings
        block = _block(state, shape, devices, algorithms,
                       (filter_cam(cam, threshold) for d in devices for cam in enhanced[d]),
                       [lows[d] for d in devices])
        scores = _score(state, block, accuracy[devices])
        quality[np.ix_(devices, algorithms)] = scores.reshape(len(devices), k)
        blocks.append(block)
    return quality, tuple(blocks)


def commit_maps(state: QualityState, maps: SlotMaps) -> None:
    """Advance the windows of every pair in a slot past the maps
    :func:`slot_quality` assessed."""
    for block in maps:
        _commit(state, block)


def enhancement_quality(
    state: QualityState,
    device: int,
    algorithm: int,
    enhanced: CamMap,
    lowlight: CamMap,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Quality score for running `algorithm` on this device's current chunk.

    The accuracy-weighted difference of the two filtered maps divided by the
    windowed temporal variation, clamped to +/- quality_cap. Algorithm 0
    means "send the raw chunk" and always scores exactly 0. It is
    :func:`slot_quality` for one pair.
    """
    state._check_device(device)
    if algorithm == 0:
        return 0.0
    filtered_enhanced = filter_cam(enhanced, threshold)
    filtered_lowlight = filter_cam(lowlight, threshold)
    state._check_algorithm(algorithm)
    if enhanced.shape != lowlight.shape:
        raise ShapeMismatchError(f"CAM shapes differ: {enhanced.shape} vs {lowlight.shape}")
    block = _block(state, filtered_enhanced.shape, [device], [algorithm],
                   [filtered_enhanced], [filtered_lowlight])
    return float(_score(state, block, _rolling_accuracies(state)[[device]])[0])


def record_accuracy(state: QualityState, device: int, accuracy: float) -> None:
    """Append one analytics accuracy observation to the device's window."""
    state._check_device(device)
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy {accuracy} outside [0, 1]")
    window = state._accuracy[device]
    window[:-1] = window[1:]
    window[-1] = accuracy
    state._accuracy_fill[device] = min(state._accuracy_fill[device] + 1, state.window_depth)


def commit_slot(
    state: QualityState,
    device: int,
    algorithm: int,
    enhanced: CamMap,
    threshold: float = DEFAULT_THRESHOLD,
) -> None:
    """Finish a slot for one (device, algorithm): filter the enhanced CAM and
    store it as the pair's newest window entry.

    Windows evict oldest-first once window_depth entries are stored. The
    device's accuracy feedback goes in through :func:`record_accuracy`.
    """
    state._check_device(device)
    state._check_algorithm(algorithm)
    filtered = filter_cam(enhanced, threshold)
    _commit(state, _block(state, filtered.shape, [device], [algorithm], [filtered]))
