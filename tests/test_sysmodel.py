"""Latency, utility, load and feasibility tests for the edge/server model."""

import math

import numpy as np
import pytest

from camsched.errors import UnknownDeviceError, ValidationError
from camsched.sysmodel import (
    Decision,
    EdgeServer,
    EnhancementProfile,
    KIND_CPU,
    KIND_GPU,
    ModelConstants,
    SlotInput,
    SystemModel,
    check_feasibility,
    device_latency,
    device_utility,
    enhancement_latency,
    latency_table,
    server_loads,
    transmission_latency,
    utility_table,
)

from conftest import make_model, make_slot
from refimpl import ref_capacity_ok, ref_feasible, ref_latency_ok, ref_server_loads


def two_server_model(overhead=0.05, max_latency=4.0, gpu_caps=(8.0, 8.0)):
    servers = (
        EdgeServer(gpu_capacity=gpu_caps[0], cpu_capacity=4.0),
        EdgeServer(gpu_capacity=gpu_caps[1], cpu_capacity=6.0),
    )
    profiles = (
        EnhancementProfile(
            algorithm_id=1, kind=KIND_GPU,
            demand_per_bit=np.array([100.0, 100.0]),
            service_rate=np.array([4e9, 5.0]),
        ),
        EnhancementProfile(
            algorithm_id=2, kind=KIND_CPU,
            demand_per_bit=np.array([50.0, 50.0]),
            service_rate=np.array([2e9, 0.0]),
        ),
    )
    constants = ModelConstants(
        num_devices=2, overhead_latency_s=overhead,
        latency_weight=0.5, max_latency_s=max_latency,
    )
    return SystemModel(servers, profiles, constants)


def basic_slot(model, d=(20e6, 20e6), b=20e6, q=1.0):
    m = model.constants.num_devices
    quality = np.full((m, model.num_algorithms + 1), q)
    quality[:, 0] = 0.0
    return SlotInput(
        datasize_bits=np.array(d, dtype=float),
        bandwidth_bps=np.full((m, model.num_servers), b, dtype=float),
        quality=quality,
    )


# ------------------------------------------------------------------- latency

def test_transmission_default_bandwidth():
    assert transmission_latency(20e6, 20e6) == 1.0


def test_transmission_zero_datasize():
    assert transmission_latency(0.0, 20e6) == 0.0
    assert transmission_latency(0.0, 0.0) == 0.0


def test_transmission_dead_link():
    assert transmission_latency(1.0, 0.0) == math.inf


def test_transmission_rejects_negatives():
    with pytest.raises(ValidationError):
        transmission_latency(-1.0, 1.0)
    with pytest.raises(ValidationError):
        transmission_latency(1.0, -1.0)


def test_enhancement_worked_example():
    profile = EnhancementProfile(
        algorithm_id=1, kind=KIND_GPU,
        demand_per_bit=np.array([100.0]),
        service_rate=np.array([1e9]),
    )
    assert enhancement_latency(profile, 0, 1e6) == pytest.approx(0.1, rel=1e-9)


def test_enhancement_none_profile_is_zero():
    assert enhancement_latency(None, 0, 5e6) == 0.0


def test_enhancement_incapable_server():
    profile = EnhancementProfile(
        algorithm_id=1, kind=KIND_CPU,
        demand_per_bit=np.array([10.0]),
        service_rate=np.array([0.0]),
    )
    assert enhancement_latency(profile, 0, 1e6) == math.inf


def test_device_latency_worked_example():
    # transmission 1.0 s + enhancement 0.5 s + overhead 0.2 s
    model = two_server_model(overhead=0.2)
    slot = basic_slot(model)
    decision = Decision(servers=(0, 0), algorithms=(1, 0))
    lat = device_latency(decision, 0, slot, model)
    assert lat == pytest.approx(1.7, rel=1e-9)


def test_device_latency_no_enhancement_is_transmission_plus_overhead():
    model = two_server_model(overhead=0.2)
    slot = basic_slot(model)
    decision = Decision(servers=(1, 0), algorithms=(0, 0))
    assert device_latency(decision, 0, slot, model) == 1.0 + 0.2


def test_device_latency_unreachable_server():
    model = two_server_model()
    slot = basic_slot(model, b=0.0, d=(1e6, 1e6))
    decision = Decision(servers=(0, 0), algorithms=(0, 0))
    assert device_latency(decision, 0, slot, model) == math.inf


def test_latency_decomposition_is_exact():
    model = two_server_model(overhead=0.05)
    slot = basic_slot(model, d=(17e6, 3e6), b=13e6)
    for n in range(2):
        for k in range(3):
            plain = Decision(servers=(n, 0), algorithms=(0, 0))
            full = Decision(servers=(n, 0), algorithms=(k, 0))
            profile = None if k == 0 else model.profiles[k - 1]
            extra = enhancement_latency(profile, n, float(slot.datasize_bits[0]))
            want = device_latency(plain, 0, slot, model) + extra
            got = device_latency(full, 0, slot, model)
            assert want == got or (math.isinf(want) and math.isinf(got))


def test_latency_never_below_overhead():
    rng = np.random.default_rng(3)
    for _ in range(50):
        model = make_model(rng, 3, 2, 2)
        slot = make_slot(rng, model)
        decision = Decision(
            servers=tuple(int(rng.integers(0, 2)) for _ in range(3)),
            algorithms=tuple(int(rng.integers(0, 3)) for _ in range(3)),
        )
        for m in range(3):
            assert device_latency(decision, m, slot, model) >= model.constants.overhead_latency_s


# ------------------------------------------------------------------- utility

def test_utility_worked_example():
    assert device_utility(1.0, 1.0, 0.5) == 0.5


def test_utility_zero_everything():
    assert device_utility(0.0, 0.0, 0.5) == 0.0


def test_utility_infinite_latency():
    assert device_utility(5.0, math.inf, 0.5) == -math.inf


def test_utility_strictly_decreasing_in_latency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = float(rng.uniform(-2, 2))
        l1, l2 = sorted(rng.uniform(0, 10, 2))
        if l1 == l2:
            continue
        assert device_utility(q, l1, 0.5) > device_utility(q, l2, 0.5)


# --------------------------------------------------------------------- loads

def test_loads_two_devices_one_gpu_server():
    servers = (EdgeServer(4.0, 4.0), EdgeServer(12.0, 4.0))
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1.0, 1.0]), np.array([5.0, 5.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    decision = Decision(servers=(1, 1), algorithms=(1, 1))
    loads = server_loads(decision, model)
    assert loads[1, 0] == 10.0
    assert loads[1, 1] == 0.0
    assert loads[0].sum() == 0.0


def test_loads_all_passthrough_zero():
    model = two_server_model()
    decision = Decision(servers=(0, 1), algorithms=(0, 0))
    assert server_loads(decision, model).sum() == 0.0


def test_loads_spread_devices_single_terms():
    model = two_server_model()
    decision = Decision(servers=(0, 1), algorithms=(1, 1))
    loads = server_loads(decision, model)
    assert loads[0, 0] == model.profiles[0].service_rate[0]
    assert loads[1, 0] == model.profiles[0].service_rate[1]


def test_loads_conservation_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(200):
        model = make_model(rng, 4, 3, 3)
        decision = Decision(
            servers=tuple(int(rng.integers(0, 3)) for _ in range(4)),
            algorithms=tuple(int(rng.integers(0, 4)) for _ in range(4)),
        )
        loads = server_loads(decision, model)
        ref = ref_server_loads(decision.genes(), model)
        assert loads.sum() == pytest.approx(sum(ref.values()), abs=1e-12)
        for (n, pool), v in ref.items():
            assert loads[n, pool] == pytest.approx(v, abs=1e-12)


# --------------------------------------------------------------- feasibility

def test_feasible_passthrough_generous_bandwidth():
    model = two_server_model()
    slot = basic_slot(model, d=(1e6, 1e6), b=1e9)
    report = check_feasibility(Decision((0, 1), (0, 0)), slot, model)
    assert report.feasible and report.capacity_ok and report.latency_ok
    assert report.overloads.sum() == 0.0
    assert report.latency_excess.sum() == 0.0


def test_deadline_excess_example():
    model = two_server_model(overhead=0.05, max_latency=4.0)
    slot = basic_slot(model, d=(4.05e6, 0.0), b=1e6)
    report = check_feasibility(Decision((0, 0), (0, 0)), slot, model)
    assert not report.feasible and not report.latency_ok and report.capacity_ok
    assert report.latency_excess[0] == pytest.approx(0.1, rel=1e-9)
    assert report.latency_excess[1] == 0.0


def test_capacity_overload_example():
    servers = (EdgeServer(8.0, 4.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1e-9]), np.array([5.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    slot = basic_slot(model, d=(1e6, 1e6), b=1e9)
    report = check_feasibility(Decision((0, 0), (1, 1)), slot, model)
    assert not report.feasible and not report.capacity_ok
    assert report.loads[0, 0] == 10.0
    assert report.overloads[0, 0] == 2.0


def test_capacity_boundary_is_inclusive():
    # load exactly equal to capacity is allowed: constraint is <=
    servers = (EdgeServer(10.0, 4.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1e-9]), np.array([5.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    slot = basic_slot(model, d=(1e6, 1e6), b=1e9)
    report = check_feasibility(Decision((0, 0), (1, 1)), slot, model)
    assert report.capacity_ok and report.feasible


def test_feasibility_agrees_with_reference_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(500):
        model = make_model(rng, 4, 2, 2)
        slot = make_slot(rng, model)
        decision = Decision(
            servers=tuple(int(rng.integers(0, 2)) for _ in range(4)),
            algorithms=tuple(int(rng.integers(0, 3)) for _ in range(4)),
        )
        report = check_feasibility(decision, slot, model)
        genes = decision.genes()
        assert report.capacity_ok == ref_capacity_ok(genes, model)
        assert report.latency_ok == ref_latency_ok(genes, slot, model)
        assert report.feasible == ref_feasible(genes, slot, model)


# ----------------------------------------------------------- decision shape

def test_decision_one_hot_structure():
    model = two_server_model()
    decision = Decision(servers=(1, 0), algorithms=(2, 0))
    su = decision.server_one_hot(model.num_servers)
    au = decision.algorithm_one_hot(model.num_algorithms)
    assert su.shape == (2, 2) and au.shape == (2, 3)
    assert (su.sum(axis=1) == 1).all()
    assert (au.sum(axis=1) == 1).all()
    assert su[0, 1] == 1 and su[1, 0] == 1
    assert au[0, 2] == 1 and au[1, 0] == 1


def test_decision_validation():
    model = two_server_model()
    with pytest.raises(ValidationError):
        Decision(servers=(0,), algorithms=(0, 0))
    with pytest.raises(ValidationError):
        Decision(servers=(0, 5), algorithms=(0, 0)).validate_against(model)
    with pytest.raises(ValidationError):
        Decision(servers=(0, 0), algorithms=(0, 9)).validate_against(model)
    with pytest.raises(UnknownDeviceError):
        device_latency(Decision((0, 0), (0, 0)), 7, basic_slot(model), model)


# ----------------------------------------------------------------- the tables

def test_tables_match_scalar_paths_bit_for_bit():
    rng = np.random.default_rng(23)
    picks = np.random.default_rng(29)
    for _ in range(20):
        model = make_model(rng, 3, 2, 2)
        slot = make_slot(rng, model)
        lat = latency_table(slot, model)
        util = utility_table(slot, model)
        for m in range(3):
            for n in range(2):
                for k in range(3):
                    genes_servers = tuple(n if i == m else 0 for i in range(3))
                    genes_algs = tuple(k if i == m else 0 for i in range(3))
                    decision = Decision(genes_servers, genes_algs)
                    want_lat = device_latency(decision, m, slot, model)
                    want_util = device_utility(
                        float(slot.quality[m, k]), want_lat,
                        model.constants.latency_weight,
                    )
                    assert lat[m, n, k] == want_lat or (
                        math.isinf(want_lat) and math.isinf(lat[m, n, k])
                    )
                    assert util[m, n, k] == want_util or (
                        math.isinf(want_util) and math.isinf(util[m, n, k])
                    )
        # the table-backed check_feasibility and server_loads against the
        # scalar device_latency and the gene-by-gene reference sum
        for _ in range(5):
            decision = Decision(
                tuple(int(v) for v in picks.integers(0, 2, 3)),
                tuple(int(v) for v in picks.integers(0, 3, 3)),
            )
            report = check_feasibility(decision, slot, model)
            for m in range(3):
                assert report.latencies[m] == device_latency(decision, m, slot, model)
            want_loads = np.zeros((2, 2))
            for (n, pool), v in ref_server_loads(decision.genes(), model).items():
                want_loads[n, pool] = v
            assert np.array_equal(server_loads(decision, model), want_loads)
            assert np.array_equal(report.loads, want_loads)


# ------------------------------------------------------------- construction

def test_edge_server_validation():
    with pytest.raises(ValidationError):
        EdgeServer(gpu_capacity=-1.0, cpu_capacity=1.0)
    with pytest.raises(ValidationError):
        EdgeServer(gpu_capacity=0.0, cpu_capacity=0.0)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EnhancementProfile(0, KIND_GPU, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        EnhancementProfile(1, "tpu", np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        EnhancementProfile(1, KIND_GPU, np.array([-1.0]), np.array([1.0]))


def test_constants_validation():
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=0)
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=1, latency_weight=-0.5)
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=1, max_latency_s=0.0)


def test_slot_input_validation():
    model = two_server_model()
    good = basic_slot(model)
    bad_q = np.array(good.quality)
    bad_q[0, 0] = 0.5
    with pytest.raises(ValidationError):
        SlotInput(good.datasize_bits, good.bandwidth_bps, bad_q)
    with pytest.raises(ValidationError):
        SlotInput(good.datasize_bits[:1], good.bandwidth_bps, good.quality)
    with pytest.raises(ValidationError):
        SlotInput(-good.datasize_bits - 1.0, good.bandwidth_bps, good.quality)


def test_model_requires_ordered_profile_ids():
    servers = (EdgeServer(1.0, 1.0),)
    p1 = EnhancementProfile(1, KIND_GPU, np.array([1.0]), np.array([1.0]))
    p3 = EnhancementProfile(3, KIND_GPU, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        SystemModel((servers[0],), (p1, p3), ModelConstants(num_devices=1))
