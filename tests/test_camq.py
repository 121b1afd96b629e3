"""Quality-assessment tests: CAM differences, filtering, windows, Q scores."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camsched.camq import (
    QualityState,
    commit_slot,
    enhancement_quality,
    filter_cam,
    record_accuracy,
)
from camsched import sim
from camsched.errors import ShapeMismatchError, TraceError, UnknownDeviceError, ValidationError

from conftest import cam_window, one_device_quality, quality_numerator, store_window
from refimpl import (
    RefQuality,
    ref_assess_quality,
    ref_cam_difference,
    ref_commit_windows,
    ref_filter,
    ref_quality,
    ref_temporal_variation,
)
from test_sim import cam_trace, gpu_roster_model, hex_matrix, hex_windows


def cam(rows):
    return np.array(rows, dtype=np.float64)


def stack(*maps):
    """One device's CAM stack: its low-light map, then its enhanced maps."""
    return np.array(maps, dtype=np.float64)


cam_values = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(0.0, 5.0, allow_nan=False),
)

# pairs drawn with a shared shape so the binary ops are applicable
shared_shape_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5.0, allow_nan=False)),
        hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5.0, allow_nan=False)),
    )
)


# ---------------------------------------------------------------- cam difference
# the raw difference is the quality numerator at a filter of 0.0

def test_difference_worked_example():
    enhanced = cam([[0.9, 0.1], [0.4, 0.6]])
    lowlight = cam([[0.5, 0.2], [0.3, 0.3]])
    assert quality_numerator(enhanced, lowlight) == pytest.approx(0.7, rel=1e-9)


def test_difference_identical_maps_is_zero():
    m = cam([[0.3, 0.8], [0.1, 0.5]])
    assert quality_numerator(m, m) == 0.0


def test_difference_ones_vs_zeros():
    assert quality_numerator(cam(np.ones((2, 2))), cam(np.zeros((2, 2)))) == 4.0


def test_difference_shape_mismatch():
    # a device's maps keep the shape they had at the state's first slot
    state = QualityState(num_devices=1, num_algorithms=1)
    one_device_quality(state, cam([[1.0]]), cam([[1.0]]))
    commit_slot(state)
    with pytest.raises(ShapeMismatchError):
        one_device_quality(state, cam([[1.0, 2.0]]), cam([[1.0, 2.0]]))


def test_cam_map_rejects_bad_values():
    # a slot's CAM stacks are checked when its SlotData is built
    for values, error, message in (
        ([[[0.5]], [[-0.1]]], ValidationError, "values must be non-negative"),
        ([[[0.5]], [[np.nan]]], ValidationError, "values must be finite"),
        ([[[-np.inf]], [[0.5]]], ValidationError, "values must be finite"),
        (np.ones(4), TraceError, r"\(maps, rows, cols\) array, got shape \(4,\)"),
    ):
        with pytest.raises(error, match="CAM stack of device 1.*" + message):
            sim.SlotData(np.ones(2), np.ones((2, 1)), cams=(stack([[0.1]], [[0.2]]), values))


def test_cam_map_is_frozen():
    given = stack([[0.5]], [[0.7]])
    slot = sim.SlotData(np.ones(1), np.ones((1, 1)), cams=(given,))
    assert not np.shares_memory(slot.cams[0], given)
    with pytest.raises(ValueError):
        slot.cams[0][0, 0, 0] = 1.0


# ---------------------------------------------------------------------- filter

def test_filter_worked_example():
    out = filter_cam(cam([[0.9, 0.1], [0.4, 0.6]]), threshold=0.5)
    np.testing.assert_array_equal(out, [[0.9, 0.0], [0.0, 0.6]])


def test_filter_passes_everything_above():
    m = cam([[0.7, 0.9], [0.8, 0.6]])
    np.testing.assert_array_equal(filter_cam(m, 0.5), m)


def test_filter_blanks_everything_at_or_below():
    m = cam([[0.7, 0.9], [0.8, 0.6]])
    np.testing.assert_array_equal(filter_cam(m, 0.9), np.zeros((2, 2)))


def test_filter_is_strict():
    # a cell exactly at the threshold does not survive
    out = filter_cam(cam([[0.4]]), threshold=0.4)
    assert out[0, 0] == 0.0


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.4])
def test_filter_of_a_stack_has_the_bits_of_np_where(threshold):
    # a stack as a slot carries it, -0.0 cells included, filtered into a new
    # array and into a given one
    values = stack([[-0.0, 0.0, 0.4]], [[0.5, 1e-300, 3.0]])
    want = [v.hex() for v in np.where(values > threshold, values, 0.0).ravel().tolist()]
    out = np.full(values.shape, np.nan)
    assert filter_cam(values, threshold, out) is out
    for got in (out, filter_cam(values, threshold)):
        assert [v.hex() for v in got.ravel().tolist()] == want


# ---------------------------------------------------- filtered difference

def test_filtered_difference_positive_example():
    enh = cam([[0.9, 0.1], [0.4, 0.6]])
    low = cam([[0.1, 0.2], [0.3, 0.3]])
    assert quality_numerator(enh, low, 0.5) == pytest.approx(1.5, rel=1e-9)


def test_filtered_difference_negative_example():
    enh = cam([[0.0, 0.0], [0.0, 0.0]])
    low = cam([[0.8, 0.1], [0.2, 0.3]])
    assert quality_numerator(enh, low, 0.5) == pytest.approx(-0.8, rel=1e-9)


def test_filtered_difference_identical_is_zero():
    m = cam([[0.9, 0.2]])
    assert quality_numerator(m, m, 0.5) == 0.0


# ---------------------------------------------------- temporal variation

def variation_score(current, history, floor=1e-6, threshold=0.4):
    """Uncapped score of the map `current` against a zero low-light map, over
    a window that stores the maps `history`, each filtered at `threshold`:
    the sum of the filtered current map over the floored variation."""
    # the largest finite cap clamps none of these scores
    state = QualityState(1, 1, denom_floor=floor, quality_cap=sys.float_info.max)
    store_window(state, history, threshold)
    lowlight = np.zeros(current.shape)
    return one_device_quality(state, current, lowlight, threshold)


def test_variation_single_entry_example():
    # numerator 1.0 over a variation of 1.0
    current = cam([[1.0, 0.0]])
    past = cam([[0.0, 0.0]])
    assert variation_score(current, [past]) == pytest.approx(1.0, rel=1e-9)


def test_variation_empty_history_floors():
    current = cam([[1.0, 0.0]])
    assert variation_score(current, [], floor=1e-6) == 1.0 / 1e-6


def test_variation_static_content_floors():
    current = cam([[1.0, 0.7]])
    history = [current] * 5
    assert variation_score(current, history, floor=1e-6) == (1.0 + 0.7) / 1e-6


# ------------------------------------------------------- rolling accuracy

def accuracy_weight(state):
    """A unit numerator over a unit variation floor scores the weight itself."""
    return one_device_quality(state, cam([[1.0]]), cam([[0.0]]))


def test_rolling_accuracy_default_when_empty():
    state = QualityState(num_devices=1, num_algorithms=2, denom_floor=1.0)
    assert accuracy_weight(state) == 1.0


def test_rolling_accuracy_mean():
    state = QualityState(num_devices=1, num_algorithms=2, denom_floor=1.0)
    record_accuracy(state, 0, 0.5)
    record_accuracy(state, 0, 0.7)
    assert accuracy_weight(state) == pytest.approx(0.6, rel=1e-9)


def test_rolling_accuracy_partial_window():
    state = QualityState(num_devices=1, num_algorithms=2, window_depth=5, denom_floor=1.0)
    for a in (0.9, 0.6, 0.9):
        record_accuracy(state, 0, a)
    assert accuracy_weight(state) == pytest.approx(0.8, rel=1e-9)


def test_record_accuracy_range_error():
    state = QualityState(num_devices=1, num_algorithms=2)
    with pytest.raises(ValidationError):
        record_accuracy(state, 0, 1.2)
    with pytest.raises(ValidationError):
        record_accuracy(state, 0, -0.1)


# ------------------------------------------------------ enhancement quality

def test_quality_worked_example():
    # numerator 0.5 (one surviving cell), denominator 2.0 from one stored map
    state = QualityState(num_devices=1, num_algorithms=1)
    past = cam([[0.5, 0.0], [0.0, 2.0]])
    store_window(state, [past], 0.4)
    enhanced = cam([[0.5, 0.0], [0.0, 0.0]])
    lowlight = cam([[0.2, 0.3], [0.1, 0.0]])
    q = one_device_quality(state, enhanced, lowlight, threshold=0.4)
    assert q == pytest.approx(0.25, rel=1e-9)


def test_quality_algorithm_zero_is_exactly_zero():
    state = QualityState(num_devices=1, num_algorithms=2)
    q = one_device_quality(state, cam([[5.0]]), cam([[0.0]]), algorithm=0)
    assert q == 0.0 and math.copysign(1.0, q) == 1.0


def test_quality_clamps_at_cap():
    # empty window -> denominator at floor -> raw score is huge -> cap
    state = QualityState(num_devices=1, num_algorithms=1, quality_cap=10.0)
    q = one_device_quality(state, cam([[0.5]]), cam([[0.0]]))
    assert q == 10.0


def test_quality_clamps_at_negative_cap():
    state = QualityState(num_devices=1, num_algorithms=1, quality_cap=10.0)
    q = one_device_quality(state, cam([[0.0]]), cam([[0.8]]))
    assert q == -10.0


def test_quality_uses_rolling_accuracy():
    state = QualityState(num_devices=1, num_algorithms=1)
    past = cam([[0.5, 0.0], [0.0, 2.0]])
    store_window(state, [past], 0.4)
    record_accuracy(state, 0, 0.5)
    enhanced = cam([[0.5, 0.0], [0.0, 0.0]])
    lowlight = cam([[0.0, 0.0], [0.0, 0.0]])
    q = one_device_quality(state, enhanced, lowlight, threshold=0.4)
    assert q == pytest.approx(0.5 * 0.25, rel=1e-9)


# ----------------------------------------------------------- window upkeep

def test_commit_fresh_state_size_one():
    state = QualityState(num_devices=2, num_algorithms=2)
    pairs = [(d, a) for d in range(2) for a in (1, 2)]
    # an assessed slot stores nothing until it is committed
    enhancement_quality(state, [stack([[0.1]], [[0.9]], [[0.9]])] * 2)
    assert [len(cam_window(state, *pair)) for pair in pairs] == [0, 0, 0, 0]
    commit_slot(state)
    assert [len(cam_window(state, *pair)) for pair in pairs] == [1, 1, 1, 1]


def test_commit_evicts_oldest_beyond_depth():
    state = QualityState(num_devices=1, num_algorithms=1, window_depth=3)
    maps = [cam([[0.5 + 0.1 * i]]) for i in range(4)]
    store_window(state, maps[:3])
    assert len(cam_window(state, 0, 1)) == 3
    store_window(state, maps[3:])
    window = cam_window(state, 0, 1)
    assert len(window) == 3
    got = [values[0, 0] for values in window]
    assert got == [0.6, 0.7, 0.8]  # 0.5 evicted


def test_commit_threshold_validation():
    state = QualityState(num_devices=1, num_algorithms=1)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            enhancement_quality(state, [stack([[0.1]], [[0.9]])], threshold)
        # the failed assessment left nothing to commit
        with pytest.raises(ValidationError, match="no assessed slot"):
            commit_slot(state)
    assert cam_window(state, 0, 1) == ()


def test_unknown_device_and_algorithm():
    state = QualityState(num_devices=1, num_algorithms=1)
    # a slot names no device or algorithm the state does not hold
    for devices, algorithms in ((2, 1), (1, 2)):
        with pytest.raises(ValidationError, match="1 enhanced maps for each of 1 devices"):
            enhancement_quality(state, [stack([[0.1]], *[[[0.9]]] * algorithms)] * devices)
    with pytest.raises(UnknownDeviceError):
        record_accuracy(state, 1, 0.5)
    assert cam_window(state, 0, 1) == () and state._accuracy_fill.tolist() == [0]


@pytest.mark.parametrize("maps", [
    (3,),       # a device missing
    (3, 2),     # an algorithm missing on one device
    (2, 2),     # an algorithm missing on every device
    (3, 1),     # a low-light map without enhanced ones
], ids=["device", "one-algorithm", "every-algorithm", "enhanced-device"])
def test_partial_slot_is_a_validation_error(maps):
    # `maps` gives each device's count of maps; a full stack holds 3
    state = QualityState(num_devices=2, num_algorithms=2)
    with pytest.raises(ValidationError, match="2 enhanced maps for each of 2 devices"):
        enhancement_quality(state, [np.full((n, 1, 1), 0.5) for n in maps])
    with pytest.raises(ValidationError, match="no assessed slot"):
        commit_slot(state)
    assert state._windows is None


@pytest.mark.parametrize("changed", [(2, 1), (1, 2)], ids=["rows", "cols"])
def test_cam_shape_change_after_the_first_slot_names_the_device(changed):
    state = QualityState(num_devices=2, num_algorithms=2)
    cams = [stack([[0.1, 0.2]], *[[[0.9, 0.8]]] * 2), stack([[0.3]], *[[[0.7]]] * 2)]
    enhancement_quality(state, cams)
    commit_slot(state)
    cams[1] = np.full((3, *changed), 0.5)
    with pytest.raises(ShapeMismatchError, match=r"device 1: CAM shapes differ: \((1, 2|2, 1)\) "
                                                 r"vs \(1, 1\)"):
        enhancement_quality(state, cams)
    with pytest.raises(ValidationError, match="no assessed slot"):
        commit_slot(state)
    # the windows are as the first slot left them, and take the next slot
    assert [[v.tolist() for v in cam_window(state, 1, a)] for a in (1, 2)] == [[[[0.7]]]] * 2
    enhancement_quality(state, [stack([[0.1, 0.2]], *[[[0.9, 0.8]]] * 2),
                                stack([[0.3]], *[[[0.6]]] * 2)])
    commit_slot(state)
    assert [v.tolist() for v in cam_window(state, 1, 2)] == [[[0.7]], [[0.6]]]


# ------------------------------------------------------------ ring windows

def test_window_entry_outlives_the_ring_storage_it_was_read_from():
    state = QualityState(num_devices=1, num_algorithms=1, window_depth=2)
    store_window(state, [cam([[0.5, 0.9]])])
    first = cam_window(state, 0, 1)[0]
    # three more assessments and commits evict the entry and rewrite every
    # ring column it could have shared storage with
    for v in (0.6, 0.7, 0.8):
        one_device_quality(state, cam([[v, v]]), cam([[0.2, 0.2]]))
        commit_slot(state)
    assert first.tolist() == [[0.5, 0.9]] and not first.flags.writeable
    assert [values.tolist() for values in cam_window(state, 0, 1)] == [[[0.7, 0.7]], [[0.8, 0.8]]]


@pytest.mark.parametrize("shapes, depth", [
    (((3, 5), (2, 2), (3, 5)), 3),
    (((1, 1),) * 3, 1),
    (((64, 64),) * 3, 2),  # scored a device at a time
], ids=["mixed-depth3", "1x1-depth1", "64x64-depth2"])
@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "no-feedback"])
def test_slots_after_uneven_feedback_match_the_reference(shapes, depth, feedback):
    """Warm-up slots, each followed by accuracy feedback recorded a different
    number of times per device in a scrambled order, leave full CAM windows
    and uneven accuracy windows; slots assessed and committed on that state,
    with a default accuracy of 0.7, must match the per-pair reference bit
    for bit."""
    warm = cam_trace(shapes, depth + 2, False, seed=12, num_algorithms=3)
    trace = cam_trace(shapes, 4, feedback, seed=11, num_algorithms=3)
    m, k = trace.num_devices, trace.num_algorithms
    model = gpu_roster_model(m, k)
    rng = np.random.default_rng(3)
    state = QualityState(m, k, window_depth=depth, default_accuracy=0.7)
    ref = RefQuality(m, k, window_depth=depth, default_accuracy=0.7)
    seen = {}
    for slot in warm.slots:
        want = ref_assess_quality(warm, slot, ref, 0.4)
        assert hex_matrix(sim.assess_slot(slot, state, 0.4).quality) == hex_matrix(want)
        sim.commit_windows(slot, state, None, frozenset())
        ref_commit_windows(warm, slot, ref, None, frozenset(), 0.4)
        for d in rng.permutation(m).tolist():
            for _ in range(int(rng.integers(0, depth + 2))):
                value = float(rng.uniform())
                record_accuracy(state, d, value)
                ref.record_accuracy(d, value)
        assert hex_windows(state, seen) == hex_windows(ref, seen)
    for t, slot in enumerate(trace.slots):
        want = ref_assess_quality(trace, slot, ref, 0.4)
        got = sim.assess_slot(slot, state, 0.4).quality
        assert hex_matrix(got) == hex_matrix(want)
        metrics = sim.run_slot(t, trace, state, model, "capacity", threshold=0.4)
        ref_commit_windows(trace, slot, ref, metrics.decision, metrics.rejected, 0.4)
        assert hex_windows(state, seen) == hex_windows(ref, seen)


def test_slot_without_algorithms_scores_only_raw_shipping():
    state = QualityState(num_devices=2, num_algorithms=0)
    quality = enhancement_quality(state, [stack([[0.9]]), stack([[0.5, 0.6]])])
    assert quality.tolist() == [[0.0], [0.0]]
    commit_slot(state)
    assert state._windows is None
    with pytest.raises(ValidationError, match="no assessed slot"):
        commit_slot(state)


# ------------------------------------------------------------- properties

@given(shared_shape_pairs)
def test_prop_antisymmetry(pair):
    a, b = pair[0], pair[1]
    assert quality_numerator(a, b) == -quality_numerator(b, a)


@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            *[
                hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5.0, allow_nan=False))
                for _ in range(3)
            ]
        )
    )
)
def test_prop_shift_invariance(triple):
    a, b, c = triple
    base = quality_numerator(a, b)
    shifted = quality_numerator(a + c, b + c)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


@given(cam_values, st.floats(0.0, 5.0, allow_nan=False))
def test_prop_filter_idempotent(values, gamma):
    once = filter_cam(values, gamma)
    twice = filter_cam(once, gamma)
    np.testing.assert_array_equal(once, twice)


@given(cam_values, st.floats(-5.0, 5.0))
def test_prop_filter_output_is_a_read_only_thresholded_copy(values, gamma):
    out = filter_cam(values, gamma)
    assert out.dtype == np.float64 and not out.flags.writeable
    assert out.shape == values.shape
    # every cell is 0.0, or the input's cell where that lies above the threshold
    kept = out != 0.0
    assert (out[kept] == values[kept]).all() and (out[kept] > gamma).all()


@given(cam_values, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_prop_filter_monotone_in_threshold(values, g1, g2):
    lo, hi = min(g1, g2), max(g1, g2)
    loose = filter_cam(values, lo)
    tight = filter_cam(values, hi)
    assert (tight <= loose).all()


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5.0, allow_nan=False)),
            st.lists(
                hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5.0, allow_nan=False)),
                min_size=0,
                max_size=5,
            ),
        )
    )
)
def test_prop_variation_floor_law(args):
    current_values, history_values = args
    floor = 1e-6
    current = current_values
    history = [h for h in history_values]
    q = variation_score(current, history, floor=floor)
    num = quality_numerator(current, np.zeros_like(current_values), 0.4)
    raw = ref_temporal_variation(
        filter_cam(current, 0.4).tolist(), [filter_cam(h, 0.4).tolist() for h in history], 0.0
    )
    # the variation is never below the floor
    assert 0.0 <= q <= num / floor
    if raw > floor + 1e-12:
        assert q == pytest.approx(num / raw, rel=1e-12)
    elif raw < floor - 1e-12:
        assert q == num / floor


@given(shared_shape_pairs, st.data())
def test_prop_quality_monotone_in_numerator(pair, data):
    """Lower low-light mass -> larger numerator -> no smaller Q, denominator fixed."""
    enhanced_values, low_hi = pair
    scale = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    low_lo = low_hi * scale  # cellwise <= low_hi
    state = QualityState(num_devices=1, num_algorithms=1)
    store_window(state, [np.zeros_like(enhanced_values)])
    enh = enhanced_values
    q_small_num = one_device_quality(state, enh, low_hi)
    q_big_num = one_device_quality(state, enh, low_lo)
    assert q_big_num >= q_small_num - 1e-12


@given(cam_values, st.integers(0, 0))
def test_prop_algorithm_zero_always_zero(values, k):
    state = QualityState(num_devices=1, num_algorithms=3)
    assert one_device_quality(state, values, values, algorithm=k) == 0.0


# ------------------------------------------------- naive-reference equivalence

def test_against_naive_reference_random_3x3():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = rng.uniform(0.0, 2.0, (3, 3))
        b = rng.uniform(0.0, 2.0, (3, 3))
        gamma = float(rng.uniform(0.0, 1.5))
        assert quality_numerator(a, b) == pytest.approx(
            ref_cam_difference(a.tolist(), b.tolist()), abs=1e-12
        )
        fa = filter_cam(a, gamma)
        np.testing.assert_allclose(
            fa, np.array(ref_filter(a.tolist(), gamma)), atol=1e-12
        )
        history = [rng.uniform(0, 2, (3, 3)) for _ in range(3)]
        tv_ref = ref_temporal_variation(
            fa.tolist(), [ref_filter(h.tolist(), gamma) for h in history], 1e-6
        )
        num_ref = ref_cam_difference(fa.tolist(), np.zeros((3, 3)).tolist())
        assert variation_score(a, history, threshold=gamma) == pytest.approx(
            num_ref / tv_ref, rel=1e-12
        )


def test_quality_composition_against_reference():
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = QualityState(num_devices=1, num_algorithms=1)
        gamma = 0.4
        history_maps = [rng.uniform(0, 1.5, (3, 3)) for _ in range(2)]
        store_window(state, history_maps, gamma)
        acc = float(rng.uniform(0.2, 1.0))
        record_accuracy(state, 0, acc)
        enhanced = rng.uniform(0, 1.5, (3, 3))
        lowlight = rng.uniform(0, 1.5, (3, 3))
        got = one_device_quality(state, enhanced, lowlight, threshold=gamma)
        fe = ref_filter(enhanced.tolist(), gamma)
        fl = ref_filter(lowlight.tolist(), gamma)
        num = ref_cam_difference(fe, fl)
        den = ref_temporal_variation(
            fe, [ref_filter(h.tolist(), gamma) for h in history_maps], 1e-6
        )
        want = ref_quality(acc, num, den, 10.0)
        assert got == pytest.approx(want, abs=1e-12)
