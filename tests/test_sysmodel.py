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
    _utility_from_latency,
    check_feasibility,
    device_latency,
    latency_table,
    server_loads,
)

from camsched.config import build_model, parse_config
from conftest import make_model, make_slot, one_link
from refimpl import (
    ref_capacity_ok,
    ref_enhancement,
    ref_feasible,
    ref_gene_latency,
    ref_latency_ok,
    ref_server_loads,
    ref_utility,
)


def two_server_model(overhead=0.05, max_latency=4.0, gpu_caps=(8.0, 8.0)):
    servers = (
        EdgeServer(gpu_capacity=gpu_caps[0], cpu_capacity=4.0),
        EdgeServer(gpu_capacity=gpu_caps[1], cpu_capacity=6.0),
    )
    profiles = (
        EnhancementProfile(
            kind=KIND_GPU,
            demand_per_bit=np.array([100.0, 100.0]),
            service_rate=np.array([4e9, 5.0]),
        ),
        EnhancementProfile(
            kind=KIND_CPU,
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
    assert one_link(20e6, 20e6)[0][0] == 1.0


def test_transmission_zero_datasize():
    assert one_link(0.0, 20e6)[0][0] == 0.0
    assert one_link(0.0, 0.0)[0][0] == 0.0


def test_transmission_dead_link():
    assert one_link(1.0, 0.0)[0][0] == math.inf


@pytest.mark.parametrize("datasize, bandwidth, want", [
    (1.0, -0.0, math.inf), (-0.0, 1e7, 0.0), (-0.0, -0.0, 0.0), (0.0, -0.0, 0.0),
])
def test_transmission_over_a_negative_zero(datasize, bandwidth, want):
    # -0.0 passes the non-negative check: a -0.0 bandwidth is a dead link,
    # and an empty chunk takes 0.0 s, never -0.0 or NaN
    got = one_link(datasize, bandwidth)[0][0]
    assert got == want and math.copysign(1.0, got) == 1.0


def test_enhancement_worked_example():
    lat, _ = one_link(1e6, 1e7, phi=100.0, s=1e9)
    assert lat[1] - lat[0] == pytest.approx(0.1, rel=1e-9)


def test_enhancement_none_profile_is_zero():
    # algorithm 0 runs no profile: its latency is the transmission time alone
    assert one_link(5e6, 1e7, phi=100.0, s=1e9)[0][0] == 5e6 / 1e7


def test_enhancement_incapable_server():
    lat, _ = one_link(1e6, 1e7, phi=10.0, s=0.0)
    assert lat[1] == math.inf


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
            if k == 0:
                extra = 0.0
            else:
                profile = model.profiles[k - 1]
                extra = ref_enhancement(float(profile.demand_per_bit[n]),
                                        float(slot.datasize_bits[0]),
                                        float(profile.service_rate[n]))
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

def utility(quality, latency):
    """The model's utility of one latency at latency weight 0.5."""
    return float(_utility_from_latency(np.float64(latency), quality, two_server_model()))


def test_utility_worked_example():
    assert utility(1.0, 1.0) == 0.5


def test_utility_zero_everything():
    assert utility(0.0, 0.0) == 0.0


def test_utility_infinite_latency():
    assert utility(5.0, math.inf) == -math.inf


def test_utility_strictly_decreasing_in_latency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = float(rng.uniform(-2, 2))
        l1, l2 = sorted(rng.uniform(0, 10, 2))
        if l1 == l2:
            continue
        assert utility(q, l1) > utility(q, l2)


# --------------------------------------------------------------------- loads

def test_loads_two_devices_one_gpu_server():
    servers = (EdgeServer(4.0, 4.0), EdgeServer(12.0, 4.0))
    profiles = (
        EnhancementProfile(KIND_GPU, np.array([1.0, 1.0]), np.array([5.0, 5.0])),
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
    assert (report.loads - model.capacity_matrix <= 0.0).all()
    assert (report.latencies - model.constants.max_latency_s <= 0.0).all()


def test_deadline_excess_example():
    model = two_server_model(overhead=0.05, max_latency=4.0)
    slot = basic_slot(model, d=(4.05e6, 0.0), b=1e6)
    report = check_feasibility(Decision((0, 0), (0, 0)), slot, model)
    assert not report.feasible and not report.latency_ok and report.capacity_ok
    excess = report.latencies - model.constants.max_latency_s
    assert excess[0] == pytest.approx(0.1, rel=1e-9)
    assert excess[1] <= 0.0


def test_capacity_overload_example():
    servers = (EdgeServer(8.0, 4.0),)
    profiles = (
        EnhancementProfile(KIND_GPU, np.array([1e-9]), np.array([5.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    slot = basic_slot(model, d=(1e6, 1e6), b=1e9)
    report = check_feasibility(Decision((0, 0), (1, 1)), slot, model)
    assert not report.feasible and not report.capacity_ok
    assert report.loads[0, 0] == 10.0
    assert (report.loads - model.capacity_matrix)[0, 0] == 2.0


def test_capacity_boundary_is_inclusive():
    # load exactly equal to capacity is allowed: constraint is <=
    servers = (EdgeServer(10.0, 4.0),)
    profiles = (
        EnhancementProfile(KIND_GPU, np.array([1e-9]), np.array([5.0])),
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


@pytest.mark.parametrize("devices, servers, decision, what", [
    (1, 1, Decision((2,), (0,)), "server"),     # the model's server 2 has no slot column
    (2, 4, Decision((0,), (0,)), "device"),     # the slot has a device the model lacks
], ids=["fewer-servers", "more-devices"])
def test_device_latency_rejects_a_slot_of_other_dimensions(devices, servers, decision, what):
    model = build_model(parse_config('{"devices": 1}'))  # 4 servers, 4 algorithms
    slot = SlotInput(np.full(devices, 20e6), np.full((devices, servers), 20e6),
                     np.zeros((devices, model.num_algorithms + 1)))
    message = f"^SlotInput and model disagree on {what} count"
    with pytest.raises(ValidationError, match=message):
        device_latency(decision, 0, slot, model)
    with pytest.raises(ValidationError, match=message):
        check_feasibility(decision, slot, model)


@pytest.mark.parametrize("servers, algorithms, message", [
    ((0, 5), (0, 9), "device 1: server 5 out of range"),        # server before algorithm
    ((0, -1), (9, 0), "device 0: algorithm 9 out of range"),    # first bad device first
    ((0, 2**70), (0, 0), f"device 1: server {2**70} out of range"),
    ((-1, 2**63), (0, 0), "device 0: server -1 out of range"),
    ((1, 0), (2, -3), "device 1: algorithm -3 out of range"),
])
def test_decision_validation_names_the_first_bad_device(servers, algorithms, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Decision(servers, algorithms).validate_against(two_server_model())


def test_model_code_tables():
    # code c = n * (K+1) + k; server 0 gives algorithm 1 and 2 more service
    # than its pools hold
    model = two_server_model()
    assert np.array_equal(model.code_load_matrix, [
        [0.0, 0.0, 0.0, 0.0],
        [4e9, 0.0, 0.0, 0.0],
        [0.0, 2e9, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 5.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert model.fits_alone.tolist() == [True, False, False, True, True, True]
    assert not model.code_load_matrix.flags.writeable and not model.fits_alone.flags.writeable
    assert model.decode(np.array([5, 1])) == Decision((1, 0), (2, 1))
    assert model.decode([0, 4]) == Decision((0, 1), (0, 1))


# ----------------------------------------------------------------- the tables

def test_tables_match_scalar_paths_bit_for_bit():
    rng = np.random.default_rng(23)
    picks = np.random.default_rng(29)
    for _ in range(20):
        model = make_model(rng, 3, 2, 2)
        slot = make_slot(rng, model)
        lat = latency_table(slot, model)
        util = _utility_from_latency(lat, slot.quality[:, None, :], model)
        for m in range(3):
            for n in range(2):
                for k in range(3):
                    want_lat = ref_gene_latency(slot, model, m, n, k)
                    want_util = ref_utility(
                        float(slot.quality[m, k]), want_lat,
                        model.constants.latency_weight,
                    )
                    assert lat[m, n, k] == want_lat
                    assert util[m, n, k] == want_util
                    decision = Decision(tuple(n if i == m else 0 for i in range(3)),
                                        tuple(k if i == m else 0 for i in range(3)))
                    assert device_latency(decision, m, slot, model) == want_lat
        # the table-backed check_feasibility and server_loads against the
        # scalar reference latency and the gene-by-gene reference sum
        for _ in range(5):
            decision = Decision(
                tuple(int(v) for v in picks.integers(0, 2, 3)),
                tuple(int(v) for v in picks.integers(0, 3, 3)),
            )
            report = check_feasibility(decision, slot, model)
            for m, (n, k) in enumerate(decision.genes()):
                assert report.latencies[m] == ref_gene_latency(slot, model, m, n, k)
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


@pytest.mark.parametrize("gpu,cpu", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_edge_server_rejects_a_capacity_that_is_not_finite(gpu, cpu):
    with pytest.raises(ValidationError, match="finite"):
        EdgeServer(gpu_capacity=gpu, cpu_capacity=cpu)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EnhancementProfile("tpu", np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        EnhancementProfile(KIND_GPU, np.array([-1.0]), np.array([1.0]))


@pytest.mark.parametrize("rates", [[5.0], [5.0, 5.0, 5.0]])
def test_model_checks_both_per_server_lists_against_the_roster(rates):
    # one rate on a two-server roster would broadcast a GPU rate to server 1,
    # which has no GPU pool; three would fail inside numpy at first use
    servers = (EdgeServer(gpu_capacity=8.0, cpu_capacity=1.0), EdgeServer(cpu_capacity=1.0))
    profiles = (EnhancementProfile(KIND_GPU, [1e-7, 1e-7], [5.0, 0.0]),
                EnhancementProfile(KIND_GPU, [1e-7, 1e-7], rates))
    with pytest.raises(ValidationError, match="^algorithm 2: per-server lists must have length 2$"):
        SystemModel(servers, profiles, ModelConstants(num_devices=1))


def test_constants_validation():
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=0)
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=1, latency_weight=-0.5)
    with pytest.raises(ValidationError):
        ModelConstants(num_devices=1, max_latency_s=0.0)


@pytest.mark.parametrize("devices,weight,deadline", [
    (2, 1e308, 4.0), (10, 1e307, 4.0), (1, math.inf, 4.0), (1, 0.0, math.inf),
])
def test_constants_reject_a_latency_weight_that_overflows_the_utility(devices, weight,
                                                                     deadline):
    with pytest.raises(ValidationError, match="overflows"):
        ModelConstants(num_devices=devices, latency_weight=weight, max_latency_s=deadline)


def test_a_config_whose_utility_would_overflow_builds_no_model():
    with pytest.raises(ValidationError, match="overflows"):
        build_model(parse_config('{"devices": 2, "latency_weight": 1e308}'))
    # just inside the bound: two devices on time keep a finite total
    model = build_model(parse_config('{"devices": 2, "latency_weight": 1e307}'))
    slot = SlotInput(np.array([1e6, 1e6]), np.full((2, model.num_servers), 1e6),
                     np.zeros((2, model.num_algorithms + 1)))
    report = check_feasibility(Decision((0, 0), (0, 0)), slot, model)
    assert report.latency_ok and math.isfinite(report.total_utility)


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
