"""End-to-edge system model: servers, algorithm profiles, latency and utility.

A slot decision assigns every device exactly one (server, algorithm) pair;
algorithm 0 ships the raw chunk. Latency is transmission plus enhancement plus
a fixed scheduling overhead, and utility trades assessed quality against
latency. latency_table prices every gene of a slot at once, over masks the
model caches; a simulated slot builds it once for its scheduler and the
check_feasibility that scores every decision once: per-server capacity
pools, the per-device deadline, and the utility summed device by device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnknownDeviceError, ValidationError

KIND_GPU = "gpu"
KIND_CPU = "cpu"
GPU_POOL = 0  # row index into (N, 2) capacity/load matrices
CPU_POOL = 1

DEFAULT_OVERHEAD_S = 0.05  # fixed per-slot scheduling/queueing overhead
DEFAULT_LATENCY_WEIGHT = 0.5
DEFAULT_MAX_LATENCY_S = 4.0


@dataclass(frozen=True)
class EdgeServer:
    """One edge server with two independent capacity pools (either may be 0)."""

    gpu_capacity: float  # compute units per second, e.g. FLOPS
    cpu_capacity: float  # compute units per second, e.g. cycles/s

    def __post_init__(self):
        if self.gpu_capacity < 0 or self.cpu_capacity < 0:
            raise ValidationError("server capacities must be non-negative")
        if self.gpu_capacity == 0 and self.cpu_capacity == 0:
            raise ValidationError("server needs at least one nonzero capacity pool")


@dataclass(frozen=True)
class EnhancementProfile:
    """Per-server cost profile of one enhancement algorithm.

    demand_per_bit[n] is its compute demand on server n (units per input bit);
    service_rate[n] is the slice of server n reserved to run it, 0 meaning the
    server cannot run this algorithm at all.
    """

    algorithm_id: int                  # 1..K; 0 is the implicit no-enhancement choice
    kind: str                          # "gpu" or "cpu": which pool it draws from
    demand_per_bit: np.ndarray         # shape (N,)
    service_rate: np.ndarray           # shape (N,)

    def __post_init__(self):
        if self.algorithm_id < 1:
            raise ValidationError("algorithm ids start at 1")
        if self.kind not in (KIND_GPU, KIND_CPU):
            raise ValidationError(f"unknown algorithm kind {self.kind!r}")
        for name in ("demand_per_bit", "service_rate"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be a 1-D per-server array")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValidationError(f"{name} must be finite and non-negative")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def pool(self) -> int:
        return GPU_POOL if self.kind == KIND_GPU else CPU_POOL

    def __eq__(self, other):
        # dataclass eq chokes on array fields; compare them elementwise
        if not isinstance(other, EnhancementProfile):
            return NotImplemented
        return (
            self.algorithm_id == other.algorithm_id
            and self.kind == other.kind
            and np.array_equal(self.demand_per_bit, other.demand_per_bit)
            and np.array_equal(self.service_rate, other.service_rate)
        )

    __hash__ = None


@dataclass(frozen=True)
class ModelConstants:
    num_devices: int
    overhead_latency_s: float = DEFAULT_OVERHEAD_S
    latency_weight: float = DEFAULT_LATENCY_WEIGHT    # utility lost per second
    max_latency_s: float = DEFAULT_MAX_LATENCY_S      # per-device deadline

    def __post_init__(self):
        if self.num_devices < 1:
            raise ValidationError("need at least one device")
        if self.overhead_latency_s < 0:
            raise ValidationError("overhead latency must be non-negative")
        if self.latency_weight < 0:
            raise ValidationError("latency weight must be non-negative")
        if self.max_latency_s <= 0:
            raise ValidationError("latency deadline must be positive")


@dataclass(frozen=True)
class SystemModel:
    """Immutable server roster, algorithm profiles and run constants."""

    servers: tuple[EdgeServer, ...]
    profiles: tuple[EnhancementProfile, ...]
    constants: ModelConstants

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(self.servers))
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.servers:
            raise ValidationError("need at least one server")
        for pos, prof in enumerate(self.profiles):
            if prof.algorithm_id != pos + 1:
                raise ValidationError(
                    f"profile at position {pos} must carry algorithm id {pos + 1}"
                )
            if len(prof.demand_per_bit) != len(self.servers):
                raise ValidationError(
                    f"algorithm {prof.algorithm_id}: per-server arrays must have "
                    f"length {len(self.servers)}"
                )

    @property
    def num_devices(self) -> int:
        return self.constants.num_devices

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_algorithms(self) -> int:
        return len(self.profiles)

    @cached_property
    def capacity_matrix(self) -> np.ndarray:
        """(N, 2) array of [gpu, cpu] capacities."""
        caps = np.array(
            [[s.gpu_capacity, s.cpu_capacity] for s in self.servers], dtype=np.float64
        )
        caps.setflags(write=False)
        return caps

    @cached_property
    def service_matrix(self) -> np.ndarray:
        """(N, K+1) service rates; column 0 (no enhancement) is all zero."""
        mat = np.zeros((self.num_servers, self.num_algorithms + 1))
        for prof in self.profiles:
            mat[:, prof.algorithm_id] = prof.service_rate
        mat.setflags(write=False)
        return mat

    @cached_property
    def demand_matrix(self) -> np.ndarray:
        """(N, K+1) compute demand per bit; column 0 is all zero."""
        mat = np.zeros((self.num_servers, self.num_algorithms + 1))
        for prof in self.profiles:
            mat[:, prof.algorithm_id] = prof.demand_per_bit
        mat.setflags(write=False)
        return mat

    @cached_property
    def pool_index(self) -> np.ndarray:
        """(K+1,) pool per algorithm; -1 for algorithm 0 which uses no pool."""
        idx = np.full(self.num_algorithms + 1, -1, dtype=np.int64)
        for prof in self.profiles:
            idx[prof.algorithm_id] = prof.pool
        idx.setflags(write=False)
        return idx

    @cached_property
    def code_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Per gene code c = n*(K+1) + k: (load slot, service) it reserves.

        The load slot 2n + pool indexes the flattened (N, 2) load matrix; -1
        marks algorithm 0, which reserves nothing.
        """
        servers = np.arange(self.num_servers)[:, None]
        pools = self.pool_index[None, :]
        load_slot = np.where(pools >= 0, 2 * servers + pools, -1).reshape(-1)
        service = self.service_matrix.reshape(-1)
        load_slot.setflags(write=False)
        return load_slot, service

    @cached_property
    def code_load_matrix(self) -> np.ndarray:
        """(codes, 2N) dense load row of each gene code: its service at its
        load slot, 0 elsewhere."""
        load_slot, service = self.code_loads
        mat = np.zeros((len(load_slot), 2 * self.num_servers))
        used = load_slot >= 0
        mat[used, load_slot[used]] = service[used]
        mat.setflags(write=False)
        return mat

    @cached_property
    def enhancement_divisor(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, K+1) runnable mask, and the service rate where runnable, else 1.0."""
        runnable = self.service_matrix > 0.0
        divisor = np.where(runnable, self.service_matrix, 1.0)
        runnable.setflags(write=False)
        divisor.setflags(write=False)
        return runnable, divisor

    @cached_property
    def fits_alone(self) -> np.ndarray:
        """(codes,) True where a gene code alone fits its pool's capacity."""
        mask = (self.code_load_matrix <= self.capacity_matrix.reshape(-1)).all(axis=1)
        mask.setflags(write=False)
        return mask

    def decode(self, codes) -> Decision:
        """The decision whose genes are the given codes, one per device."""
        servers, algorithms = np.divmod(np.asarray(codes), self.num_algorithms + 1)
        return Decision(servers.tolist(), algorithms.tolist())


@dataclass(frozen=True)
class SlotInput:
    """Everything the scheduler sees for one slot."""

    datasize_bits: np.ndarray   # (M,) chunk size of each device
    bandwidth_bps: np.ndarray   # (M, N) end-to-server uplink rates
    quality: np.ndarray         # (M, K+1) assessed quality; column 0 is all zero

    def __post_init__(self):
        d = np.asarray(self.datasize_bits, dtype=np.float64)
        b = np.asarray(self.bandwidth_bps, dtype=np.float64)
        q = np.asarray(self.quality, dtype=np.float64)
        if d.ndim != 1 or d.shape[0] < 1:
            raise ValidationError("datasize must be a non-empty 1-D array")
        m = d.shape[0]
        if b.ndim != 2 or b.shape[0] != m:
            raise ValidationError("bandwidth must be (devices, servers)")
        if q.ndim != 2 or q.shape[0] != m or q.shape[1] < 1:
            raise ValidationError("quality must be (devices, algorithms + 1)")
        check_slot_values(d, b, q)
        for name, arr in (("datasize_bits", d), ("bandwidth_bps", b), ("quality", q)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_devices(self) -> int:
        return self.datasize_bits.shape[0]

    @property
    def num_servers(self) -> int:
        return self.bandwidth_bps.shape[1]

    @property
    def num_algorithms(self) -> int:
        return self.quality.shape[1] - 1


def check_slot_values(
    datasize_bits: np.ndarray, bandwidth_bps: np.ndarray, quality: np.ndarray | None
) -> None:
    """The one value rule of slot input, over any leading slot axes.

    Datasizes and bandwidths are finite and non-negative; quality, when given,
    is finite and its no-enhancement column is all zero.
    """
    for name, arr in (("datasizes", datasize_bits), ("bandwidths", bandwidth_bps)):
        # phrased so that NaN fails as well
        if not ((arr >= 0.0) & (arr < math.inf)).all():
            raise ValidationError(f"{name} must be finite and non-negative")
    if quality is not None:
        if not np.isfinite(quality).all():
            raise ValidationError("quality scores must be finite")
        if (quality[..., 0] != 0.0).any():
            raise ValidationError("quality of the no-enhancement choice must be 0")


def check_dims(item, model: SystemModel) -> None:
    """Raise unless a slot or a trace has the model's device, server and
    algorithm counts."""
    for what in ("device", "server", "algorithm"):
        have, want = getattr(item, f"num_{what}s"), getattr(model, f"num_{what}s")
        if have != want:
            raise ValidationError(
                f"{type(item).__name__} and model disagree on {what} count: {have} vs {want}"
            )


@dataclass(frozen=True)
class Decision:
    """Per-device assignment: exactly one server index and one algorithm id each.

    The shape of the two tuples is the whole constraint story for assignment
    validity; range checks against a concrete model happen in the operations.
    """

    servers: tuple[int, ...]
    algorithms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(map(int, self.servers)))
        object.__setattr__(self, "algorithms", tuple(map(int, self.algorithms)))
        if len(self.servers) != len(self.algorithms):
            raise ValidationError("server and algorithm tuples must align")
        if not self.servers:
            raise ValidationError("decision must cover at least one device")

    @property
    def num_devices(self) -> int:
        return len(self.servers)

    def genes(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.servers, self.algorithms))

    def validate_against(self, model: SystemModel) -> None:
        if self.num_devices != model.num_devices:
            raise ValidationError(
                f"decision covers {self.num_devices} devices, model has "
                f"{model.num_devices}"
            )
        n_max, k_max = model.num_servers - 1, model.num_algorithms
        servers, algorithms = self.servers, self.algorithms
        if not (0 <= min(servers) and max(servers) <= n_max
                and 0 <= min(algorithms) and max(algorithms) <= k_max):
            # name the first bad device, its server checked before its algorithm
            n, k = np.array(servers), np.array(algorithms)
            bad_server = (n < 0) | (n > n_max)
            m = int((bad_server | (k < 0) | (k > k_max)).argmax())
            if bad_server[m]:
                raise ValidationError(f"device {m}: server {servers[m]} out of range")
            raise ValidationError(f"device {m}: algorithm {algorithms[m]} out of range")


def device_latency(
    decision: Decision, device: int, slot: SlotInput, model: SystemModel
) -> float:
    """Total slot latency of one device under the decision: its entry of the
    slot's latency_table, which also checks the slot against the model."""
    if not 0 <= device < decision.num_devices:
        raise UnknownDeviceError(f"device {device} outside decision")
    decision.validate_against(model)
    n, k = decision.servers[device], decision.algorithms[device]
    return float(latency_table(slot, model)[device, n, k])


def server_loads(decision: Decision, model: SystemModel) -> np.ndarray:
    """(N, 2) reserved service per server pool under the decision.

    bincount adds the genes in device order from 0.0, so each pool sums
    exactly as a gene-by-gene loop would.
    """
    decision.validate_against(model)
    load_slot, service = model.code_loads
    ka = model.num_algorithms + 1
    codes = np.asarray(decision.servers) * ka + np.asarray(decision.algorithms)
    codes = codes[load_slot[codes] >= 0]
    loads = np.bincount(
        load_slot[codes], weights=service[codes], minlength=2 * model.num_servers
    )
    return loads.reshape(model.num_servers, 2)


@dataclass(frozen=True)
class FeasibilityReport:
    """One decision scored: capacity and deadline verdicts plus its utility."""

    feasible: bool
    capacity_ok: bool
    latency_ok: bool
    loads: np.ndarray            # (N, 2) raw reserved service
    latencies: np.ndarray        # (M,) per-device latency
    utilities: np.ndarray        # (M,) per-device utility, -inf if unreachable
    total_utility: float         # utilities added device after device

    def __post_init__(self):
        for name in ("loads", "latencies", "utilities"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def check_feasibility(
    decision: Decision,
    slot: SlotInput,
    model: SystemModel,
    lat: np.ndarray | None = None,
) -> FeasibilityReport:
    """The one scorer of a decision: exact capacity-pool and deadline
    verdicts, no tolerance applied, and its per-device and total utility.

    `lat` is the slot's latency_table when the caller has built it already
    (a simulated slot shares one table with its scheduler); without it the
    table is built here. The report is the same either way.
    """
    loads = server_loads(decision, model)  # validates the decision
    if lat is None:
        lat = latency_table(slot, model)
    rows = np.arange(decision.num_devices)
    latencies = lat[rows, decision.servers, decision.algorithms]
    utilities = _utility_from_latency(
        latencies, slot.quality[rows, decision.algorithms], model
    )
    # strictly device after device from 0.0, as the GA scorer and the oracle add
    total = 0.0
    for u in utilities.tolist():
        total += u
    capacity_ok = bool((loads <= model.capacity_matrix).all())
    latency_ok = bool((latencies <= model.constants.max_latency_s).all())
    return FeasibilityReport(
        feasible=capacity_ok and latency_ok,
        capacity_ok=capacity_ok,
        latency_ok=latency_ok,
        loads=loads,
        latencies=latencies,
        utilities=utilities,
        total_utility=total,
    )


def latency_table(slot: SlotInput, model: SystemModel) -> np.ndarray:
    """(M, N, K+1) read-only latency of every possible assignment for the slot.

    Shared precomputation for the schedulers and check_feasibility: entry
    [m, n, k] is transmission plus overhead, then plus enhancement, for that
    gene. That grouping keeps the k=0/k decomposition exact: entry [m, n, k]
    equals entry [m, n, 0] plus the enhancement time.
    """
    check_dims(slot, model)
    d, b = slot.datasize_bits, slot.bandwidth_bps
    linked = b > 0.0
    runnable, divisor = model.enhancement_divisor   # (N, K+1)
    # (demand * d) / service in that order; inf marks servers that cannot run k
    with np.errstate(divide="ignore", invalid="ignore"):
        trans = d[:, None] / np.where(linked, b, 1.0)
        enh = model.demand_matrix * d[:, None, None] / divisor
    trans = np.where(d[:, None] == 0.0, 0.0, np.where(linked, trans, np.inf))
    enh = np.where(runnable, enh, np.inf)
    enh[:, :, 0] = 0.0  # algorithm 0 never runs anything
    lat = (trans[:, :, None] + model.constants.overhead_latency_s) + enh
    lat.setflags(write=False)
    return lat


def _utility_from_latency(
    lat: np.ndarray, quality: np.ndarray, model: SystemModel
) -> np.ndarray:
    """Utilities of latencies and the qualities that broadcast against them:
    a whole latency_table, or the entries one decision picks from it."""
    weight = model.constants.latency_weight
    return np.where(np.isinf(lat), -np.inf, quality - weight * lat)
