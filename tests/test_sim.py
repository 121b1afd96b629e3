"""Simulation loop and synthetic trace generator tests."""

import json
import math

import numpy as np
import pytest

from camsched import camq, fileio, sched, sim, sysmodel
from camsched.config import build_model, build_quality_state, parse_config
from camsched.errors import TraceError, ValidationError
from camsched.camq import QualityState
from camsched.sched import GaConfig, brute_force, evolve, objective
from camsched.sim import (
    SCHEDULER_CHOICES,
    SlotData,
    SynthSpec,
    Trace,
    generate_synthetic,
    run,
    run_slot,
    summarize,
)
from camsched.sysmodel import (
    Decision,
    EdgeServer,
    EnhancementProfile,
    KIND_GPU,
    ModelConstants,
    SlotInput,
    SystemModel,
)

from conftest import quality_numerator
from refimpl import ref_assess_quality, ref_commit_windows, ref_gene_latency, ref_utility


def tiny_model(num_devices=2, overhead=0.05):
    servers = (EdgeServer(8.0, 4.0), EdgeServer(4.0, 8.0))
    profiles = (
        EnhancementProfile(
            1, KIND_GPU, np.array([1e-7, 2e-7]), np.array([4.0, 2.0])
        ),
    )
    constants = ModelConstants(
        num_devices=num_devices, overhead_latency_s=overhead,
        latency_weight=0.5, max_latency_s=4.0,
    )
    return SystemModel(servers, profiles, constants)


def quality_trace(model, num_slots=3, seed=0):
    rng = np.random.default_rng(seed)
    m = model.constants.num_devices
    n = model.num_servers
    k = model.num_algorithms
    slots = []
    for _ in range(num_slots):
        q = np.abs(rng.normal(0.8, 0.4, (m, k + 1)))
        q[:, 0] = 0.0
        slots.append(SlotData(
            datasize_bits=rng.uniform(0.5e6, 2e6, m),
            bandwidth_bps=rng.uniform(5e6, 2e7, (m, n)),
            quality=q,
        ))
    return Trace(num_devices=m, num_servers=n, num_algorithms=k, slots=tuple(slots))


# ------------------------------------------------------------------ run_slot

def test_oracle_scheduler_passthrough_decision():
    model = tiny_model()
    trace = quality_trace(model, num_slots=1, seed=1)
    state = QualityState(2, 1)
    metrics = run_slot(0, trace, state, model, scheduler="oracle")
    data = trace.slots[0]
    slot_input = SlotInput(data.datasize_bits, data.bandwidth_bps, data.quality)
    oracle = brute_force(slot_input, model)
    assert metrics.decision == oracle.decision
    assert metrics.total_utility == pytest.approx(oracle.objective, abs=1e-12)


def test_slot_accounting_matches_scalar_model():
    model = tiny_model()
    trace = quality_trace(model, num_slots=1, seed=2)
    state = QualityState(2, 1)
    metrics = run_slot(0, trace, state, model, scheduler="oracle")
    data = trace.slots[0]
    for m in range(2):
        n, k = metrics.decision.servers[m], metrics.decision.algorithms[m]
        lat = ref_gene_latency(data, model, m, n, k)
        util = ref_utility(float(data.quality[m, k]), lat, 0.5)
        assert metrics.latencies[m] == lat
        assert metrics.utilities[m] == util
        assert metrics.qualities[m] == data.quality[m, k]
    assert metrics.total_utility == pytest.approx(sum(metrics.utilities), abs=1e-12)
    assert metrics.scheduler_seconds >= 0.0


def test_ga_deterministic_from_fresh_state():
    model = tiny_model()
    trace = quality_trace(model, num_slots=1, seed=3)
    ga = GaConfig(rng_seed=5)
    m1 = run_slot(0, trace, QualityState(2, 1), model, scheduler="ga", ga_config=ga)
    m2 = run_slot(0, trace, QualityState(2, 1), model, scheduler="ga", ga_config=ga)
    assert m1.decision == m2.decision
    assert m1.total_utility == m2.total_utility


def test_rejected_device_accounting():
    # single server whose gpu pool fits one enhancement reservation
    servers = (EdgeServer(5.0, 100.0),)
    profiles = (EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([5.0])),)
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    q = np.array([[0.0, 0.9], [0.0, 0.9]])
    data = SlotData(
        datasize_bits=np.full(2, 1e6),
        bandwidth_bps=np.full((2, 1), 1e7),
        quality=q,
    )
    trace = Trace(2, 1, 1, (data,))
    metrics = run_slot(0, trace, QualityState(2, 1), model, scheduler="capacity")
    assert metrics.rejected == frozenset({1})
    assert metrics.qualities[1] == 0.0
    assert metrics.latencies[1] == math.inf
    assert metrics.utilities[1] == -math.inf
    assert metrics.total_utility == -math.inf
    assert not metrics.feasible


def test_unknown_scheduler_rejected():
    model = tiny_model()
    trace = quality_trace(model, 1)
    with pytest.raises(ValidationError):
        run_slot(0, trace, QualityState(2, 1), model, scheduler="annealing")


@pytest.mark.parametrize("seed", [3, 7777])
@pytest.mark.parametrize("devices", [10, 300], ids=["cam-m10", "quality-m300"])
def test_every_total_is_the_one_report_sum_at_scale(devices, seed):
    # from M = 8 up a pairwise sum and a device-by-device sum part ways, so
    # every total a run reports must be check_feasibility's, bit for bit
    config = parse_config(json.dumps({"devices": devices, "seed": seed}))
    model = build_model(config)
    trace = (generate_synthetic(config.synth) if devices == 10
             else quality_trace(model, num_slots=5, seed=seed))
    for scheduler in ("ga", "capacity", "none"):
        state = build_quality_state(config)
        for t, data in enumerate(trace.slots):
            quality, _ = sim.assess_quality(trace, data, state, config.cam_threshold)
            slot = SlotInput(data.datasize_bits, data.bandwidth_bps, quality)
            metrics = run_slot(t, trace, state, model, scheduler, config.ga,
                               config.cam_threshold)
            if not metrics.rejected:
                want = objective(metrics.decision, slot, model)
                assert metrics.total_utility.hex() == want.hex()
            if scheduler == "ga":
                best, _ = evolve(slot, model, config.ga)
                assert best.decision == metrics.decision
                assert best.raw_utility.hex() == objective(best.decision, slot, model).hex()
                if best.feasible:
                    assert best.fitness.hex() == best.raw_utility.hex()


# ----------------------------------------------------------------------- run

def test_run_empty_trace():
    model = tiny_model()
    trace = Trace(2, 2, 1, ())
    metrics, summary = run(trace, model)
    assert metrics == []
    assert summary.slots == 0
    assert summary.mean_total_utility is None
    assert summary.feasible_rate is None


def test_run_summary_mean_matches_slots():
    model = tiny_model()
    trace = quality_trace(model, num_slots=4, seed=4)
    metrics, summary = run(trace, model, scheduler="oracle")
    assert summary.slots == 4
    totals = [sm.total_utility for sm in metrics]
    assert summary.mean_total_utility == pytest.approx(np.mean(totals), abs=1e-12)
    lats = [l for sm in metrics for l in sm.latencies if math.isfinite(l)]
    assert summary.mean_latency_s == pytest.approx(np.mean(lats), abs=1e-12)


def test_run_rejects_mismatched_model():
    model = tiny_model()
    trace = Trace(3, 2, 1, ())  # three devices, model says two
    with pytest.raises(ValidationError):
        run(trace, model)


def test_cam_windows_hold_exactly_depth_after_warmup():
    spec = SynthSpec(
        num_devices=2, num_servers=2, num_algorithms=2, horizon=8,
        cam_rows=8, cam_cols=8, offsets=(0.3, 0.1), seed=11,
    )
    trace = generate_synthetic(spec)
    model = tiny_model()
    servers = (EdgeServer(8.0, 4.0), EdgeServer(4.0, 8.0))
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1e-7, 2e-7]), np.array([4.0, 2.0])),
        EnhancementProfile(2, KIND_GPU, np.array([1e-7, 2e-7]), np.array([2.0, 1.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    state = QualityState(2, 2, window_depth=5)
    run(trace, model, scheduler="capacity", state=state)
    for m in range(2):
        for k in (1, 2):
            assert len(state.cam_window(m, k)) == 5
        assert len(state.accuracy_window(m)) <= 5


def test_run_on_cam_trace_is_reproducible():
    spec = SynthSpec(
        num_devices=2, num_servers=2, num_algorithms=1, horizon=5,
        cam_rows=8, cam_cols=8, offsets=(0.25,), seed=21,
    )
    model = tiny_model()
    out = []
    for _ in range(2):
        trace = generate_synthetic(spec)
        metrics, summary = run(trace, model, scheduler="ga",
                               ga_config=GaConfig(rng_seed=2),
                               state=QualityState(2, 1))
        # wall-clock timing is the one legitimately non-deterministic field
        out.append((tuple(sm.decision.genes() for sm in metrics),
                    tuple(sm.total_utility for sm in metrics),
                    tuple(sm.latencies for sm in metrics),
                    summary.mean_total_utility, summary.p95_latency_s))
    assert out[0] == out[1]


# ---------------------------------------------------------- slot assessment

def gpu_roster_model(num_devices, num_algorithms=4):
    """One server whose 8-unit gpu pool holds two 4-unit reservations, so the
    capacity matcher rejects every enhancing device after the second."""
    profiles = tuple(
        EnhancementProfile(k, KIND_GPU, np.array([1e-8]), np.array([4.0]))
        for k in range(1, num_algorithms + 1)
    )
    return SystemModel((EdgeServer(8.0, 8.0),), profiles,
                       ModelConstants(num_devices=num_devices))


def cam_trace(shapes, horizon, feedback, seed, num_algorithms=4):
    """CAM trace in which device m films maps of shapes[m], every value in [0, 1].

    Algorithm k lifts the low-light map by 0.15*k plus noise, so every
    enhanced map differs from the last slot's and scores differently.
    """
    rng = np.random.default_rng(seed)
    m, k = len(shapes), num_algorithms
    slots = []
    for _ in range(horizon):
        lows = [rng.uniform(0.0, 1.0, shape) for shape in shapes]
        enhanced = tuple(
            tuple(
                camq.CamMap(np.clip(low + 0.15 * alg + rng.normal(0.0, 0.05, low.shape),
                                    0.0, 1.0))
                for alg in range(1, k + 1)
            )
            for low in lows
        )
        slots.append(SlotData(
            datasize_bits=np.full(m, 1e6),
            bandwidth_bps=np.full((m, 1), 1e7),
            lowlight=tuple(camq.CamMap(low) for low in lows),
            enhanced=enhanced,
            accuracy=rng.uniform(0.0, 1.0, (m, k + 1)) if feedback else None,
        ))
    return Trace(m, 1, k, tuple(slots))


def hex_matrix(q):
    return [[v.hex() for v in row] for row in np.asarray(q).tolist()]


def hex_windows(state, seen):
    """Every stored window entry, bit for bit. A window read returns fresh
    copies, so renderings are kept in `seen` keyed by the entry's bytes."""
    def render(f):
        key = (f.shape, f.threshold.hex(), f.values.tobytes())
        if key not in seen:
            seen[key] = (f.shape, f.threshold.hex(), [v.hex() for v in f.values.ravel().tolist()])
        return seen[key]

    cams = [
        [[render(f) for f in state.cam_window(m, k)] for k in range(1, state.num_algorithms + 1)]
        for m in range(state.num_devices)
    ]
    accuracy = [[v.hex() for v in state.accuracy_window(m)] for m in range(state.num_devices)]
    return cams, accuracy


SLOT_SHAPES = {
    "1x1": ((1, 1),) * 3,
    "3x5": ((3, 5),) * 3,
    "16x16": ((16, 16),) * 3,
    "64x64": ((64, 64),) * 3,
    "mixed": ((1, 1), (3, 5), (16, 16), (64, 64)),
}


@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "no-feedback"])
@pytest.mark.parametrize("threshold", [0.0, 0.4, 1.0], ids=["t0", "t0.4", "blank-all"])
@pytest.mark.parametrize("shapes", sorted(SLOT_SHAPES))
def test_slot_assessment_matches_per_pair_reference(shapes, threshold, feedback):
    depth = 3
    trace = cam_trace(SLOT_SHAPES[shapes], depth + 2, feedback, seed=7)
    m, k = trace.num_devices, trace.num_algorithms
    model = gpu_roster_model(m)
    seen = {}

    # run_slot under the capacity matcher, which rejects devices
    state = QualityState(m, k, window_depth=depth)
    ref = QualityState(m, k, window_depth=depth)
    rejections = 0
    for t, slot in enumerate(trace.slots):
        want = ref_assess_quality(trace, slot, ref, threshold)
        metrics = run_slot(t, trace, state, model, "capacity", threshold=threshold)
        ref_commit_windows(trace, slot, ref, metrics.decision, metrics.rejected, threshold)
        rejections += len(metrics.rejected)
        chosen = [0.0 if d in metrics.rejected else float(want[d, a])
                  for d, a in enumerate(metrics.decision.algorithms)]
        assert [q.hex() for q in metrics.qualities] == [q.hex() for q in chosen]
        assert hex_windows(state, seen) == hex_windows(ref, seen)
    # the last slots evicted the oldest entries of full windows
    assert all(len(state.cam_window(d, a)) == depth for d in range(m) for a in range(1, k + 1))
    if threshold < 1.0:
        assert rejections > 0
    else:
        assert rejections == 0  # every map blank: all qualities 0, nothing enhances

    # the replay, which commits without a decision
    state = QualityState(m, k, window_depth=depth)
    ref = QualityState(m, k, window_depth=depth)
    for slot, got in zip(trace.slots, sim.replay(trace, state, threshold)):
        want = ref_assess_quality(trace, slot, ref, threshold)
        ref_commit_windows(trace, slot, ref, None, frozenset(), threshold)
        assert hex_matrix(got) == hex_matrix(want)
        assert hex_windows(state, seen) == hex_windows(ref, seen)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(camq, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(camq, name, counted)
    return calls


@pytest.mark.parametrize("scheduler", SCHEDULER_CHOICES)
def test_cam_slot_filters_each_map_once(monkeypatch, scheduler):
    m, k = 3, 2
    trace = cam_trace(((4, 4),) * m, 2, True, seed=5, num_algorithms=k)
    model = gpu_roster_model(m, k)
    filters = count_calls(monkeypatch, "filter_cam")
    pair_scores = count_calls(monkeypatch, "enhancement_quality")
    state = QualityState(m, k)
    for t in range(trace.horizon):
        del filters[:]
        run_slot(t, trace, state, model, scheduler)
        assert len(filters) == m * (k + 1)
    del filters[:]
    for _ in sim.replay(trace, QualityState(m, k), camq.DEFAULT_THRESHOLD):
        assert len(filters) == m * (k + 1)
        del filters[:]
    assert pair_scores == []


def test_quality_slot_filters_nothing(monkeypatch):
    model = tiny_model()
    trace = quality_trace(model, num_slots=2, seed=4)
    filters = count_calls(monkeypatch, "filter_cam")
    state = QualityState(2, 1)
    run_slot(0, trace, state, model, "none")
    next(sim.replay(trace, state, camq.DEFAULT_THRESHOLD))
    assert filters == []


@pytest.mark.parametrize("scheduler", SCHEDULER_CHOICES)
def test_slot_scores_its_decision_once(monkeypatch, scheduler):
    # one latency table a slot, read by the scheduler and by the one
    # check_feasibility that scores its answer
    model = tiny_model()
    trace = quality_trace(model, num_slots=2, seed=4)
    calls = []
    original = sysmodel.check_feasibility

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name, modules in (("check_feasibility", (sysmodel, sched, sim)),
                          ("latency_table", (sysmodel, sched))):
        wrapper = counting(name, getattr(sysmodel, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    state = QualityState(2, 1)
    for t in range(trace.horizon):
        del calls[:]
        metrics = run_slot(t, trace, state, model, scheduler)
        assert sorted(calls) == ["check_feasibility", "latency_table"]
        slot = SlotInput(trace.slots[t].datasize_bits, trace.slots[t].bandwidth_bps,
                         trace.slots[t].quality)
        if not metrics.rejected:
            assert metrics.total_utility == original(metrics.decision, slot, model).total_utility


def test_run_slot_checks_only_the_values_trace_has_not(monkeypatch):
    # Trace checked every stored value; a CAM slot's quality matrix is new
    quality = quality_trace(tiny_model(), num_slots=1, seed=3)
    cams = cam_trace(((4, 4),) * 2, 1, False, seed=3, num_algorithms=1)
    checks = []
    original = sysmodel.check_slot_values
    for module in (sim, sysmodel):
        monkeypatch.setattr(module, "check_slot_values",
                            lambda *args: checks.append(args) or original(*args))
    run_slot(0, quality, QualityState(2, 1), tiny_model(), "oracle")
    assert checks == []
    run_slot(0, cams, QualityState(2, 1), gpu_roster_model(2, 1), "oracle")
    assert len(checks) == 1


@pytest.mark.parametrize("cell, value, message", [
    ((0, 1), math.nan, "finite"),
    ((1, 0), 0.5, "no-enhancement choice must be 0"),
], ids=["nan", "column-0"])
def test_run_slot_rejects_a_bad_assessed_quality(monkeypatch, cell, value, message):
    trace = cam_trace(((4, 4),) * 2, 1, False, seed=3, num_algorithms=1)
    original = camq.slot_quality

    def assessed(*args):
        quality, maps = original(*args)
        quality[cell] = value
        return quality, maps

    monkeypatch.setattr(camq, "slot_quality", assessed)
    with pytest.raises(ValidationError, match=message):
        run_slot(0, trace, QualityState(2, 1), gpu_roster_model(2, 1), "oracle")


# ------------------------------------------------------------ trace validation

def test_slot_data_keeps_read_only_copies_of_a_callers_arrays():
    given = {"datasize_bits": np.ones(2), "bandwidth_bps": np.ones((2, 1)),
             "quality": np.zeros((2, 2)), "accuracy": np.zeros((2, 2))}
    data = SlotData(**given)
    for name, arr in given.items():
        stored = getattr(data, name)
        assert stored is not arr and not np.shares_memory(stored, arr)
        assert arr.flags.writeable and not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = -1.0
        # editing the caller's array afterwards cannot get past Trace's check
        arr[0] = -1.0
    Trace(2, 1, 1, (data,))
    assert data.datasize_bits.tolist() == [1.0, 1.0]
    from_lists = SlotData([1, 2], [[1.0], [2.0]], quality=[[0, 1], [0, 2]])
    assert not from_lists.datasize_bits.flags.writeable
    assert from_lists.quality.dtype == np.float64


def test_load_trace_arrays_are_not_copied_again(tmp_path, monkeypatch):
    manifest = fileio.save_trace(quality_trace(tiny_model(), num_slots=2), str(tmp_path / "t"))
    built = []
    asarray = np.asarray

    def spy(*args, **kwargs):
        arr = asarray(*args, **kwargs)
        built.append(arr)
        return arr

    monkeypatch.setattr(np, "asarray", spy)
    trace = fileio.load_trace(manifest)
    monkeypatch.undo()
    # each stored array is the one SlotData built from the manifest's lists
    for slot in trace.slots:
        for arr in (slot.datasize_bits, slot.bandwidth_bps, slot.quality):
            assert any(arr is b for b in built)
            assert not arr.flags.writeable



def test_slot_data_payload_is_exclusive():
    q = np.zeros((1, 2))
    low = (camq.CamMap(np.zeros((2, 2))),)
    enh = ((camq.CamMap(np.zeros((2, 2))),),)
    with pytest.raises(TraceError):
        SlotData(np.ones(1), np.ones((1, 1)), quality=q, lowlight=low, enhanced=enh)
    with pytest.raises(TraceError):
        SlotData(np.ones(1), np.ones((1, 1)))


def test_trace_shape_validation():
    data = SlotData(np.ones(2), np.ones((2, 2)), quality=np.zeros((2, 2)))
    with pytest.raises(TraceError):
        Trace(2, 2, 2, (data,))  # quality says K=1, trace says K=2
    bad_acc = SlotData(
        np.ones(2), np.ones((2, 2)), quality=np.zeros((2, 2)),
        accuracy=np.full((2, 2), 1.5),
    )
    with pytest.raises(TraceError):
        Trace(2, 2, 1, (bad_acc,))

    def cam_slot(size):
        cams = [camq.CamMap(np.zeros((size, size))) for _ in range(2)]
        return SlotData(np.ones(1), np.ones((1, 1)),
                        lowlight=(cams[0],), enhanced=((cams[1],),))
    Trace(1, 1, 1, (cam_slot(4), cam_slot(4)))
    # a device's CAM shape may not change from one slot to the next
    with pytest.raises(TraceError, match=r"slot 1 device 0: .*\(4, 4\) vs \(3, 3\)"):
        Trace(1, 1, 1, (cam_slot(4), cam_slot(3)))


# ------------------------------------------------------------------ synthetic

def test_synthetic_deterministic():
    spec = SynthSpec(num_devices=3, num_servers=2, num_algorithms=2,
                     horizon=4, offsets=(0.3, 0.1), seed=33)
    t1 = generate_synthetic(spec)
    t2 = generate_synthetic(spec)
    assert t1.horizon == t2.horizon == 4
    for s1, s2 in zip(t1.slots, t2.slots):
        np.testing.assert_array_equal(s1.datasize_bits, s2.datasize_bits)
        np.testing.assert_array_equal(s1.bandwidth_bps, s2.bandwidth_bps)
        np.testing.assert_array_equal(s1.accuracy, s2.accuracy)
        for m in range(3):
            np.testing.assert_array_equal(s1.lowlight[m].values, s2.lowlight[m].values)
            for k in range(2):
                np.testing.assert_array_equal(
                    s1.enhanced[m][k].values, s2.enhanced[m][k].values
                )


def test_synthetic_zero_offsets_zero_noise():
    spec = SynthSpec(num_devices=2, num_servers=2, num_algorithms=2,
                     horizon=3, offsets=(0.0, 0.0), cam_noise=0.0, seed=5)
    trace = generate_synthetic(spec)
    for slot in trace.slots:
        for m in range(2):
            for k in range(2):
                np.testing.assert_array_equal(
                    slot.enhanced[m][k].values, slot.lowlight[m].values
                )
                # numerator of every Q is then exactly zero
                assert quality_numerator(slot.enhanced[m][k], slot.lowlight[m], 0.4) == 0.0


def test_synthetic_offset_ordering_statistic():
    spec = SynthSpec(num_devices=1, num_servers=2, num_algorithms=2,
                     horizon=100, offsets=(0.3, 0.1), seed=7)
    trace = generate_synthetic(spec)
    diff = {1: [], 2: []}
    for slot in trace.slots:
        for k in (1, 2):
            diff[k].append(quality_numerator(slot.enhanced[0][k - 1], slot.lowlight[0], 0.4))
    assert np.mean(diff[1]) > np.mean(diff[2])


def test_synthetic_accuracy_tracks_offsets():
    spec = SynthSpec(num_devices=2, num_servers=2, num_algorithms=2,
                     horizon=50, offsets=(0.3, 0.1), seed=9)
    trace = generate_synthetic(spec)
    acc1 = np.mean([s.accuracy[m, 1] for s in trace.slots for m in range(2)])
    acc2 = np.mean([s.accuracy[m, 2] for s in trace.slots for m in range(2)])
    acc0 = np.mean([s.accuracy[m, 0] for s in trace.slots for m in range(2)])
    assert acc1 > acc2 > acc0
    for slot in trace.slots:
        assert ((slot.accuracy >= 0) & (slot.accuracy <= 1)).all()


def test_synthetic_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(num_devices=0)
    with pytest.raises(ValidationError):
        SynthSpec(offsets=(0.3,))  # length must match num_algorithms
    with pytest.raises(ValidationError):
        SynthSpec(cam_noise=-0.1)
    with pytest.raises(ValidationError):
        SynthSpec(datasize_bits=(3.0, 2.0))  # inverted range


def test_summarize_percentiles():
    model = tiny_model()
    trace = quality_trace(model, num_slots=6, seed=8)
    metrics, summary = run(trace, model, scheduler="none")
    finite = sorted(l for sm in metrics for l in sm.latencies if math.isfinite(l))
    assert summary.p50_latency_s == pytest.approx(np.percentile(finite, 50), abs=1e-12)
    assert summary.p95_latency_s == pytest.approx(np.percentile(finite, 95), abs=1e-12)
    assert 0.0 <= summary.feasible_rate <= 1.0
    assert summarize(metrics) == summary
