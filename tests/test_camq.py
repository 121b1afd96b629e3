"""Quality-assessment tests: CAM differences, filtering, windows, Q scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camsched.camq import (
    CamMap,
    FilteredCam,
    QualityState,
    cam_difference,
    commit_slot,
    enhancement_quality,
    filter_cam,
    filtered_difference,
    record_accuracy,
    rolling_accuracy,
    temporal_variation,
)
from camsched.errors import ShapeMismatchError, UnknownDeviceError, ValidationError

from refimpl import (
    ref_cam_difference,
    ref_filter,
    ref_quality,
    ref_temporal_variation,
)


def cam(rows):
    return CamMap(np.array(rows, dtype=np.float64))


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


# ---------------------------------------------------------------- cam_difference

def test_difference_worked_example():
    enhanced = cam([[0.9, 0.1], [0.4, 0.6]])
    lowlight = cam([[0.5, 0.2], [0.3, 0.3]])
    assert cam_difference(enhanced, lowlight) == pytest.approx(0.7, rel=1e-9)


def test_difference_identical_maps_is_zero():
    m = cam([[0.3, 0.8], [0.1, 0.5]])
    assert cam_difference(m, m) == 0.0


def test_difference_ones_vs_zeros():
    assert cam_difference(cam(np.ones((2, 2))), cam(np.zeros((2, 2)))) == 4.0


def test_difference_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        cam_difference(cam([[1.0]]), cam([[1.0, 2.0]]))


def test_cam_map_rejects_bad_values():
    with pytest.raises(ValidationError):
        cam([[-0.1]])
    with pytest.raises(ValidationError):
        cam([[np.nan]])
    with pytest.raises(ValidationError):
        CamMap(np.ones(4))  # 1-D


def test_cam_map_is_frozen():
    m = cam([[0.5]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


# ---------------------------------------------------------------------- filter

def test_filter_worked_example():
    out = filter_cam(cam([[0.9, 0.1], [0.4, 0.6]]), threshold=0.5)
    np.testing.assert_array_equal(out.values, [[0.9, 0.0], [0.0, 0.6]])
    assert out.threshold == 0.5


def test_filter_passes_everything_above():
    m = cam([[0.7, 0.9], [0.8, 0.6]])
    np.testing.assert_array_equal(filter_cam(m, 0.5).values, m.values)


def test_filter_blanks_everything_at_or_below():
    m = cam([[0.7, 0.9], [0.8, 0.6]])
    np.testing.assert_array_equal(filter_cam(m, 0.9).values, np.zeros((2, 2)))


def test_filter_is_strict():
    # a cell exactly at the threshold does not survive
    out = filter_cam(cam([[0.4]]), threshold=0.4)
    assert out.values[0, 0] == 0.0


# ---------------------------------------------------- filtered difference

def test_filtered_difference_positive_example():
    enh = filter_cam(cam([[0.9, 0.1], [0.4, 0.6]]), 0.5)
    low = filter_cam(cam([[0.1, 0.2], [0.3, 0.3]]), 0.5)
    assert filtered_difference(enh, low) == pytest.approx(1.5, rel=1e-9)


def test_filtered_difference_negative_example():
    enh = filter_cam(cam([[0.0, 0.0], [0.0, 0.0]]), 0.5)
    low = filter_cam(cam([[0.8, 0.1], [0.2, 0.3]]), 0.5)
    assert filtered_difference(enh, low) == pytest.approx(-0.8, rel=1e-9)


def test_filtered_difference_identical_is_zero():
    f = filter_cam(cam([[0.9, 0.2]]), 0.5)
    assert filtered_difference(f, f) == 0.0


def test_filtered_difference_rejects_threshold_mismatch():
    a = filter_cam(cam([[0.9]]), 0.5)
    b = filter_cam(cam([[0.9]]), 0.4)
    with pytest.raises(ValidationError):
        filtered_difference(a, b)


# ---------------------------------------------------- temporal variation

def test_variation_single_entry_example():
    current = filter_cam(cam([[1.0, 0.0]]), 0.4)
    past = filter_cam(cam([[0.0, 0.0]]), 0.4)
    assert temporal_variation(current, [past]) == pytest.approx(1.0, rel=1e-9)


def test_variation_empty_history_floors():
    current = filter_cam(cam([[1.0, 0.0]]), 0.4)
    assert temporal_variation(current, [], floor=1e-6) == 1e-6


def test_variation_static_content_floors():
    current = filter_cam(cam([[1.0, 0.7]]), 0.4)
    history = [current] * 5
    assert temporal_variation(current, history, floor=1e-6) == 1e-6


# ------------------------------------------------------- rolling accuracy

def test_rolling_accuracy_default_when_empty():
    state = QualityState(num_devices=1, num_algorithms=2)
    assert rolling_accuracy(state, 0) == 1.0


def test_rolling_accuracy_mean():
    state = QualityState(num_devices=1, num_algorithms=2)
    record_accuracy(state, 0, 0.5)
    record_accuracy(state, 0, 0.7)
    assert rolling_accuracy(state, 0) == pytest.approx(0.6, rel=1e-9)


def test_rolling_accuracy_partial_window():
    state = QualityState(num_devices=1, num_algorithms=2, window_depth=5)
    for a in (0.9, 0.6, 0.9):
        record_accuracy(state, 0, a)
    assert rolling_accuracy(state, 0) == pytest.approx(0.8, rel=1e-9)


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
    past = filter_cam(cam([[0.5, 0.0], [0.0, 2.0]]), 0.4)
    commit_slot(state, 0, 1, past)
    enhanced = cam([[0.5, 0.0], [0.0, 0.0]])
    lowlight = cam([[0.2, 0.3], [0.1, 0.0]])
    q = enhancement_quality(state, 0, 1, enhanced, lowlight, threshold=0.4)
    assert q == pytest.approx(0.25, rel=1e-9)


def test_quality_algorithm_zero_is_exactly_zero():
    state = QualityState(num_devices=1, num_algorithms=2)
    q = enhancement_quality(state, 0, 0, cam([[5.0]]), cam([[0.0]]))
    assert q == 0.0 and math.copysign(1.0, q) == 1.0


def test_quality_clamps_at_cap():
    # empty window -> denominator at floor -> raw score is huge -> cap
    state = QualityState(num_devices=1, num_algorithms=1, quality_cap=10.0)
    q = enhancement_quality(state, 0, 1, cam([[0.5]]), cam([[0.0]]))
    assert q == 10.0


def test_quality_clamps_at_negative_cap():
    state = QualityState(num_devices=1, num_algorithms=1, quality_cap=10.0)
    q = enhancement_quality(state, 0, 1, cam([[0.0]]), cam([[0.8]]))
    assert q == -10.0


def test_quality_uses_rolling_accuracy():
    state = QualityState(num_devices=1, num_algorithms=1)
    past = filter_cam(cam([[0.5, 0.0], [0.0, 2.0]]), 0.4)
    commit_slot(state, 0, 1, past)
    record_accuracy(state, 0, 0.5)
    enhanced = cam([[0.5, 0.0], [0.0, 0.0]])
    lowlight = cam([[0.0, 0.0], [0.0, 0.0]])
    q = enhancement_quality(state, 0, 1, enhanced, lowlight, threshold=0.4)
    assert q == pytest.approx(0.5 * 0.25, rel=1e-9)


# ----------------------------------------------------------- window upkeep

def test_commit_fresh_state_size_one():
    state = QualityState(num_devices=2, num_algorithms=2)
    commit_slot(state, 0, 1, filter_cam(cam([[0.9]]), 0.4))
    assert len(state.cam_window(0, 1)) == 1
    assert len(state.cam_window(0, 2)) == 0
    assert len(state.cam_window(1, 1)) == 0


def test_commit_evicts_oldest_beyond_depth():
    state = QualityState(num_devices=1, num_algorithms=1, window_depth=3)
    maps = [filter_cam(cam([[0.5 + 0.1 * i]]), 0.4) for i in range(4)]
    for fc in maps[:3]:
        commit_slot(state, 0, 1, fc)
    assert len(state.cam_window(0, 1)) == 3
    commit_slot(state, 0, 1, maps[3])
    window = state.cam_window(0, 1)
    assert len(window) == 3
    got = [fc.values[0, 0] for fc in window]
    assert got == [0.6, 0.7, 0.8]  # 0.5 evicted


def test_commit_accuracy_validation():
    state = QualityState(num_devices=1, num_algorithms=1)
    with pytest.raises(ValidationError):
        commit_slot(state, 0, 1, filter_cam(cam([[0.9]]), 0.4), accuracy_feedback=1.2)


def test_unknown_device_and_algorithm():
    state = QualityState(num_devices=1, num_algorithms=1)
    with pytest.raises(UnknownDeviceError):
        state.cam_window(1, 1)
    with pytest.raises(UnknownDeviceError):
        state.cam_window(0, 0)
    with pytest.raises(UnknownDeviceError):
        state.cam_window(0, 2)


# ------------------------------------------------------------- properties

@given(shared_shape_pairs)
def test_prop_antisymmetry(pair):
    a, b = CamMap(pair[0]), CamMap(pair[1])
    assert cam_difference(a, b) == -cam_difference(b, a)


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
    base = cam_difference(CamMap(a), CamMap(b))
    shifted = cam_difference(CamMap(a + c), CamMap(b + c))
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


@given(cam_values, st.floats(0.0, 5.0, allow_nan=False))
def test_prop_filter_idempotent(values, gamma):
    once = filter_cam(CamMap(values), gamma)
    twice = filter_cam(CamMap(once.values), gamma)
    np.testing.assert_array_equal(once.values, twice.values)


@given(cam_values, st.floats(-5.0, 5.0))
def test_prop_filter_output_passes_the_filtered_cam_checks(values, gamma):
    # filter_cam builds its result without FilteredCam's checks and copy
    out = filter_cam(CamMap(values), gamma)
    checked = FilteredCam(out.values, out.threshold)
    np.testing.assert_array_equal(checked.values, out.values)
    assert out.values.dtype == np.float64 and not out.values.flags.writeable


@given(cam_values, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_prop_filter_monotone_in_threshold(values, g1, g2):
    lo, hi = min(g1, g2), max(g1, g2)
    loose = filter_cam(CamMap(values), lo)
    tight = filter_cam(CamMap(values), hi)
    assert (tight.values <= loose.values).all()


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
    current = filter_cam(CamMap(current_values), 0.4)
    history = [filter_cam(CamMap(h), 0.4) for h in history_values]
    tv = temporal_variation(current, history, floor=floor)
    raw = ref_temporal_variation(
        current.values.tolist(), [h.values.tolist() for h in history], 0.0
    )
    assert tv >= floor
    if raw > floor + 1e-12:
        assert tv == pytest.approx(raw, rel=1e-12)
        assert tv > floor
    elif raw < floor - 1e-12:
        assert tv == floor


@given(shared_shape_pairs, st.data())
def test_prop_quality_monotone_in_numerator(pair, data):
    """Lower low-light mass -> larger numerator -> no smaller Q, denominator fixed."""
    enhanced_values, low_hi = pair
    scale = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    low_lo = low_hi * scale  # cellwise <= low_hi
    state = QualityState(num_devices=1, num_algorithms=1)
    commit_slot(state, 0, 1, filter_cam(CamMap(np.zeros_like(enhanced_values)), 0.4))
    enh = CamMap(enhanced_values)
    q_small_num = enhancement_quality(state, 0, 1, enh, CamMap(low_hi))
    q_big_num = enhancement_quality(state, 0, 1, enh, CamMap(low_lo))
    assert q_big_num >= q_small_num - 1e-12


@given(cam_values, st.integers(0, 0))
def test_prop_algorithm_zero_always_zero(values, k):
    state = QualityState(num_devices=1, num_algorithms=3)
    assert enhancement_quality(state, 0, k, CamMap(values), CamMap(values)) == 0.0


# ------------------------------------------------- naive-reference equivalence

def test_against_naive_reference_random_3x3():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = rng.uniform(0.0, 2.0, (3, 3))
        b = rng.uniform(0.0, 2.0, (3, 3))
        gamma = float(rng.uniform(0.0, 1.5))
        assert cam_difference(CamMap(a), CamMap(b)) == pytest.approx(
            ref_cam_difference(a.tolist(), b.tolist()), abs=1e-12
        )
        fa = filter_cam(CamMap(a), gamma)
        np.testing.assert_allclose(
            fa.values, np.array(ref_filter(a.tolist(), gamma)), atol=1e-12
        )
        history = [filter_cam(CamMap(rng.uniform(0, 2, (3, 3))), gamma) for _ in range(3)]
        tv = temporal_variation(fa, history, floor=1e-6)
        tv_ref = ref_temporal_variation(
            fa.values.tolist(), [h.values.tolist() for h in history], 1e-6
        )
        assert tv == pytest.approx(tv_ref, abs=1e-12)


def test_quality_composition_against_reference():
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = QualityState(num_devices=1, num_algorithms=1)
        gamma = 0.4
        history_maps = [filter_cam(CamMap(rng.uniform(0, 1.5, (3, 3))), gamma) for _ in range(2)]
        for h in history_maps:
            commit_slot(state, 0, 1, h)
        acc = float(rng.uniform(0.2, 1.0))
        record_accuracy(state, 0, acc)
        enhanced = CamMap(rng.uniform(0, 1.5, (3, 3)))
        lowlight = CamMap(rng.uniform(0, 1.5, (3, 3)))
        got = enhancement_quality(state, 0, 1, enhanced, lowlight, threshold=gamma)
        fe = ref_filter(enhanced.values.tolist(), gamma)
        fl = ref_filter(lowlight.values.tolist(), gamma)
        num = ref_cam_difference(fe, fl)
        den = ref_temporal_variation(fe, [h.values.tolist() for h in history_maps], 1e-6)
        want = ref_quality(acc, num, den, 10.0)
        assert got == pytest.approx(want, abs=1e-12)
