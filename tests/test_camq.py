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
    commit_maps,
    commit_slot,
    enhancement_quality,
    filter_cam,
    record_accuracy,
    slot_quality,
)
from camsched import sim
from camsched.errors import ShapeMismatchError, UnknownDeviceError, ValidationError

from conftest import quality_numerator
from refimpl import (
    ref_assess_quality,
    ref_cam_difference,
    ref_commit_windows,
    ref_filter,
    ref_quality,
    ref_temporal_variation,
)
from test_sim import cam_trace, gpu_roster_model, hex_matrix, hex_windows


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
    with pytest.raises(ShapeMismatchError):
        quality_numerator(cam([[1.0]]), cam([[1.0, 2.0]]))


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
    a window that stores the filtered maps `history`: the sum of the filtered
    current map over the floored variation."""
    state = QualityState(1, 1, denom_floor=floor, quality_cap=math.inf)
    for past in history:
        commit_slot(state, 0, 1, past)
    lowlight = CamMap(np.zeros(current.shape))
    return enhancement_quality(state, 0, 1, current, lowlight, threshold)


def test_variation_single_entry_example():
    # numerator 1.0 over a variation of 1.0
    current = cam([[1.0, 0.0]])
    past = filter_cam(cam([[0.0, 0.0]]), 0.4)
    assert variation_score(current, [past]) == pytest.approx(1.0, rel=1e-9)


def test_variation_empty_history_floors():
    current = cam([[1.0, 0.0]])
    assert variation_score(current, [], floor=1e-6) == 1.0 / 1e-6


def test_variation_static_content_floors():
    current = cam([[1.0, 0.7]])
    history = [filter_cam(current, 0.4)] * 5
    assert variation_score(current, history, floor=1e-6) == (1.0 + 0.7) / 1e-6


# ------------------------------------------------------- rolling accuracy

def accuracy_weight(state):
    """A unit numerator over a unit variation floor scores the weight itself."""
    return enhancement_quality(state, 0, 1, cam([[1.0]]), cam([[0.0]]))


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


# ------------------------------------------------------------ ring windows

def test_window_entry_outlives_the_ring_storage_it_was_read_from():
    state = QualityState(num_devices=1, num_algorithms=1, window_depth=2)
    commit_slot(state, 0, 1, filter_cam(cam([[0.5, 0.9]]), 0.4))
    first = state.cam_window(0, 1)[0]
    # three more commits and assessments evict the entry and rewrite every
    # ring column it could have shared storage with
    for v in (0.6, 0.7, 0.8):
        enhancement_quality(state, 0, 1, cam([[v, 0.1]]), cam([[0.2, 0.2]]))
        commit_slot(state, 0, 1, filter_cam(cam([[v, v]]), 0.4))
    assert first.values.tolist() == [[0.5, 0.9]]
    assert first.threshold == 0.4 and not first.values.flags.writeable
    assert [fc.values.tolist() for fc in state.cam_window(0, 1)] == [[[0.7, 0.7]], [[0.8, 0.8]]]


def test_window_entries_keep_their_threshold():
    state = QualityState(num_devices=1, num_algorithms=1, window_depth=3)
    for gamma in (0.1, 0.4, 0.7, 0.2):
        commit_slot(state, 0, 1, filter_cam(cam([[0.8]]), gamma))
    assert [fc.threshold for fc in state.cam_window(0, 1)] == [0.4, 0.7, 0.2]


def test_window_shape_is_per_pair():
    # two algorithms of one device may store maps of different shapes
    state = QualityState(num_devices=1, num_algorithms=2)
    commit_slot(state, 0, 1, filter_cam(cam([[0.9, 0.5]]), 0.4))
    commit_slot(state, 0, 2, filter_cam(cam([[0.9], [0.5]]), 0.4))
    commit_slot(state, 0, 2, filter_cam(cam([[0.7], [0.8]]), 0.4))
    assert [fc.shape for fc in state.cam_window(0, 1)] == [(1, 2)]
    assert [fc.shape for fc in state.cam_window(0, 2)] == [(2, 1), (2, 1)]
    # but one pair keeps the shape of what it stores
    with pytest.raises(ShapeMismatchError):
        commit_slot(state, 0, 1, filter_cam(cam([[0.9], [0.5]]), 0.4))
    with pytest.raises(ShapeMismatchError):
        enhancement_quality(state, 0, 2, cam([[0.9, 0.5]]), cam([[0.1, 0.1]]))
    assert [len(state.cam_window(0, a)) for a in (1, 2)] == [1, 2]
    # a pair assessed at one shape but holding nothing yet may store another
    fresh = QualityState(num_devices=1, num_algorithms=1)
    assert enhancement_quality(fresh, 0, 1, cam([[0.9, 0.5]]), cam([[0.1, 0.1]])) == 10.0
    commit_slot(fresh, 0, 1, filter_cam(cam([[0.9]]), 0.4))
    assert [fc.values.tolist() for fc in fresh.cam_window(0, 1)] == [[[0.9]]]


@pytest.mark.parametrize("shapes, depth", [
    (((3, 5), (2, 2), (3, 5)), 3),
    (((1, 1),) * 3, 1),
    (((64, 64),) * 3, 2),  # scored a device at a time
], ids=["mixed-depth3", "1x1-depth1", "64x64-depth2"])
@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "no-feedback"])
def test_uneven_per_pair_windows_then_slots_match_the_per_pair_reference(shapes, depth, feedback):
    """Pairs committed one by one in a scrambled order, each a different
    number of times, leave windows with different fills and heads and ring
    rows out of slot order; slots assessed and committed together on that
    state must match the pair-by-pair reference bit for bit."""
    trace = cam_trace(shapes, 4, feedback, seed=11, num_algorithms=3)
    m, k = trace.num_devices, trace.num_algorithms
    model = gpu_roster_model(m, k)
    rng = np.random.default_rng(3)
    state, ref = (QualityState(m, k, window_depth=depth, default_accuracy=0.7)
                  for _ in range(2))
    pairs = [(d, a) for d in range(m) for a in range(1, k + 1)]
    stored = {pair: [] for pair in pairs}
    for i in rng.permutation(len(pairs)):
        d, a = pairs[i]
        for _ in range(int(rng.integers(0, 2 * depth + 2))):
            fc = filter_cam(CamMap(rng.uniform(0.0, 1.0, shapes[d])), 0.4)
            feedback_value = float(rng.uniform()) if rng.random() < 0.5 else None
            for s in (state, ref):
                commit_slot(s, d, a, fc, feedback_value)
            stored[(d, a)] = (stored[(d, a)] + [fc.values.tolist()])[-depth:]
    assert {pair: [fc.values.tolist() for fc in state.cam_window(*pair)]
            for pair in pairs} == stored
    seen = {}
    for t, slot in enumerate(trace.slots):
        want = ref_assess_quality(trace, slot, ref, 0.4)
        got, _ = sim.assess_quality(trace, slot, state, 0.4)
        assert hex_matrix(got) == hex_matrix(want)
        metrics = sim.run_slot(t, trace, state, model, "capacity", threshold=0.4)
        ref_commit_windows(trace, slot, ref, metrics.decision, metrics.rejected, 0.4)
        assert hex_windows(state, seen) == hex_windows(ref, seen)


def test_slot_without_algorithms_scores_only_raw_shipping():
    state = QualityState(num_devices=2, num_algorithms=0)
    quality, maps = slot_quality(state, [cam([[0.9]]), cam([[0.5, 0.6]])], [(), ()])
    assert quality.tolist() == [[0.0], [0.0]] and maps == ()
    commit_maps(state, maps)
    with pytest.raises(UnknownDeviceError):
        state.cam_window(0, 1)


# ------------------------------------------------------------- properties

@given(shared_shape_pairs)
def test_prop_antisymmetry(pair):
    a, b = CamMap(pair[0]), CamMap(pair[1])
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
    base = quality_numerator(CamMap(a), CamMap(b))
    shifted = quality_numerator(CamMap(a + c), CamMap(b + c))
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
    current = CamMap(current_values)
    history = [filter_cam(CamMap(h), 0.4) for h in history_values]
    q = variation_score(current, history, floor=floor)
    num = quality_numerator(current, CamMap(np.zeros_like(current_values)), 0.4)
    raw = ref_temporal_variation(
        filter_cam(current, 0.4).values.tolist(), [h.values.tolist() for h in history], 0.0
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
        assert quality_numerator(CamMap(a), CamMap(b)) == pytest.approx(
            ref_cam_difference(a.tolist(), b.tolist()), abs=1e-12
        )
        fa = filter_cam(CamMap(a), gamma)
        np.testing.assert_allclose(
            fa.values, np.array(ref_filter(a.tolist(), gamma)), atol=1e-12
        )
        history = [filter_cam(CamMap(rng.uniform(0, 2, (3, 3))), gamma) for _ in range(3)]
        tv_ref = ref_temporal_variation(
            fa.values.tolist(), [h.values.tolist() for h in history], 1e-6
        )
        num_ref = ref_cam_difference(fa.values.tolist(), np.zeros((3, 3)).tolist())
        assert variation_score(CamMap(a), history, threshold=gamma) == pytest.approx(
            num_ref / tv_ref, rel=1e-12
        )


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
