"""Shared builders for randomized model/slot instances.

The generators deliberately mix in zero capacities, zero service rates,
zero datasizes and dead links so the infinity/sentinel paths get exercised,
not just the happy path.
"""

import math
import random
import sys

import numpy as np

from camsched.camq import (
    DEFAULT_THRESHOLD,
    QualityState,
    commit_slot,
    enhancement_quality,
)
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
    latency_table,
)


def one_link(datasize, bandwidth, phi=0.0, s=1.0, quality=0.0):
    """One device, one server and one algorithm, with no overhead: the slot's
    latency_table row [transmission time, transmission plus enhancement
    time], and the check_feasibility report of running the algorithm."""
    model = SystemModel(
        (EdgeServer(8.0, 4.0),),
        (EnhancementProfile(KIND_GPU, np.array([phi]), np.array([s])),),
        ModelConstants(num_devices=1, overhead_latency_s=0.0),
    )
    slot = SlotInput(np.array([datasize]), np.array([[bandwidth]]),
                     np.array([[0.0, quality]]))
    return latency_table(slot, model)[0, 0], check_feasibility(Decision((0,), (1,)), slot, model)


def one_device_quality(state, enhanced, lowlight, threshold=DEFAULT_THRESHOLD, algorithm=1):
    """Quality of `algorithm` in a slot of the one-device `state` whose
    low-light map is `lowlight` and whose every enhanced map is `enhanced`."""
    stack = np.stack([lowlight] + [enhanced] * state.num_algorithms)
    quality = enhancement_quality(state, [stack], threshold)
    return float(quality[0, algorithm])


def store_window(state, history, threshold=DEFAULT_THRESHOLD):
    """Assess and commit one slot per map of `history` on the one-device
    `state`, every algorithm enhancing to that map, so each window stores
    the maps filtered at `threshold`, oldest first."""
    for past in history:
        one_device_quality(state, past, np.zeros(past.shape), threshold)
        commit_slot(state)


def quality_numerator(enhanced, lowlight, threshold=0.0):
    """The difference of the filtered CAMs, read off enhancement_quality.

    A fresh state has an empty window and no accuracy feedback, so the
    variation is the denominator floor, here 1.0, and the accuracy weight
    is 1.0; the largest finite cap clamps no finite score. The score is then the numerator
    bit for bit. A filter at 0.0 keeps every cell of a non-negative map, so
    at that threshold the numerator is the raw CAM difference.
    """
    state = QualityState(1, 1, denom_floor=1.0, quality_cap=sys.float_info.max)
    return one_device_quality(state, enhanced, lowlight, threshold)


def cam_window(state, device, algorithm):
    """The pair's stored filtered CAM values, oldest first, as read-only copies;
    () before the state's first assessed slot."""
    for windows in state._windows or ():
        if device in windows.devices:
            row = windows.devices.index(device), algorithm
            break
    else:
        return ()
    entries = []
    for col in (state._head - state._fill + np.arange(state._fill)) % (state.window_depth + 1):
        values = windows.ring[col][row].reshape(windows.shape).copy()
        values.setflags(write=False)
        entries.append(values)
    return tuple(entries)


def accuracy_window(state, device):
    """The device's stored accuracy feedback, oldest first."""
    fill = state._accuracy_fill[device]
    return tuple(state._accuracy[device, state.window_depth - fill:].tolist())


def make_model(rng, num_devices, num_servers, num_algorithms,
               zero_rate_frac=0.15, max_latency_s=4.0):
    servers = []
    for _ in range(num_servers):
        gpu = float(rng.uniform(2.0, 10.0)) if rng.random() > 0.2 else 0.0
        cpu = float(rng.uniform(2.0, 10.0)) if rng.random() > 0.2 else 0.0
        if gpu == 0.0 and cpu == 0.0:
            cpu = float(rng.uniform(2.0, 10.0))
        servers.append(EdgeServer(gpu_capacity=gpu, cpu_capacity=cpu))
    profiles = []
    for _ in range(num_algorithms):
        kind = KIND_GPU if rng.random() < 0.5 else KIND_CPU
        # per-bit work scaled so enhancement lands around 0.05..9 s for the
        # datasize range below: some assignments fit the deadline, some not
        demand = rng.uniform(0.5, 3.0, num_servers) * 1e-6
        rate = rng.uniform(1.0, 6.0, num_servers)
        for n, srv in enumerate(servers):
            pool_cap = srv.gpu_capacity if kind == KIND_GPU else srv.cpu_capacity
            if pool_cap == 0.0 or rng.random() < zero_rate_frac:
                rate[n] = 0.0
        profiles.append(EnhancementProfile(
            kind=kind,
            demand_per_bit=demand, service_rate=rate,
        ))
    constants = ModelConstants(
        num_devices=num_devices,
        overhead_latency_s=0.05,
        latency_weight=0.5,
        max_latency_s=max_latency_s,
    )
    return SystemModel(tuple(servers), tuple(profiles), constants)


def random_decision(rng: random.Random, model: SystemModel) -> Decision:
    """One uniform (server, algorithm) draw per device."""
    servers = []
    algorithms = []
    for _ in range(model.num_devices):
        servers.append(rng.randrange(model.num_servers))
        algorithms.append(rng.randrange(model.num_algorithms + 1))
    return Decision(tuple(servers), tuple(algorithms))


def make_slot(rng, model, zero_data_frac=0.1, dead_link_frac=0.1):
    m = model.constants.num_devices
    n = model.num_servers
    k = model.num_algorithms
    d = rng.uniform(0.5e6, 3e6, m)
    d[rng.random(m) < zero_data_frac] = 0.0
    b = rng.uniform(2e6, 2e7, (m, n))
    b[rng.random((m, n)) < dead_link_frac] = 0.0
    q = np.abs(rng.normal(1.0, 0.6, (m, k + 1)))
    q[:, 0] = 0.0
    return SlotInput(datasize_bits=d, bandwidth_bps=b, quality=q)


def small_instance(seed):
    """Oracle-tractable scale: M=4, N=2, K=2, space 6^4 = 1296."""
    rng = np.random.default_rng(seed)
    model = make_model(rng, num_devices=4, num_servers=2, num_algorithms=2)
    slot = make_slot(rng, model)
    return model, slot


def paper_scale_instance(seed):
    """Default problem size: M=10, N=4, K=4."""
    rng = np.random.default_rng(seed)
    model = make_model(rng, num_devices=10, num_servers=4, num_algorithms=4,
                       zero_rate_frac=0.05)
    slot = make_slot(rng, model, zero_data_frac=0.05, dead_link_frac=0.05)
    return model, slot


def oracle_gap_instance(seed):
    """Oracle-vs-GA benchmark instances: M=4, N=2, K=2, space 1296.

    Calibrated so the deadline and capacity constraints genuinely bind on a
    fraction of instances while the penalized landscape stays navigable:
    every link is alive, every server can run every algorithm, and pool
    capacities fit roughly two to six concurrent reservations.
    """
    rng = np.random.default_rng(1000 + seed)
    servers = tuple(
        EdgeServer(float(rng.uniform(9.0, 14.0)), float(rng.uniform(9.0, 14.0)))
        for _ in range(2)
    )
    profiles = (
        EnhancementProfile(
            kind=KIND_GPU,
            demand_per_bit=rng.uniform(0.5e-6, 5e-6, 2),
            service_rate=rng.uniform(2.3, 3.8, 2),
        ),
        EnhancementProfile(
            kind=KIND_CPU,
            demand_per_bit=rng.uniform(0.5e-6, 5e-6, 2),
            service_rate=rng.uniform(2.3, 3.8, 2),
        ),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=4))
    q = np.abs(rng.normal(0.8, 0.5, (4, 3))) + 0.3
    q[:, 0] = 0.0
    slot = SlotInput(
        datasize_bits=rng.uniform(0.8e6, 2e6, 4),
        bandwidth_bps=rng.uniform(4e6, 2e7, (4, 2)),
        quality=q,
    )
    return model, slot
