"""End-to-edge system model: servers, algorithm profiles, latency and utility.

A slot decision assigns every device exactly one (server, algorithm) pair;
algorithm 0 ships the raw chunk. Latency is transmission plus enhancement plus
a fixed scheduling overhead, and utility trades assessed quality against
latency. latency_table prices every gene of a slot at once, over masks the
model caches; a simulated slot builds it once for its scheduler and for the
one score of its answer: per-server capacity pools, the per-device deadline,
and the utility summed device by device. _finish_report is the one place
a report is assembled: check_feasibility finishes there, and so does the
oracle, from the rows it already holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnknownDeviceError, ValidationError
from .keys import check_keyed, keyed

KIND_GPU = "gpu"
KIND_CPU = "cpu"
GPU_POOL = 0  # row index into (N, 2) capacity/load matrices
CPU_POOL = 1


@dataclass(frozen=True)
class EdgeServer:
    """One edge server with two independent capacity pools (either may be 0).
    Each field is the server config key it names."""

    gpu_capacity: float = keyed("gpu_capacity", float, 0.0, low=0.0)  # units/s, e.g. FLOPS
    cpu_capacity: float = keyed("cpu_capacity", float, 0.0, low=0.0)  # units/s, e.g. cycles/s

    def __post_init__(self):
        check_keyed(self)
        if self.gpu_capacity == 0 and self.cpu_capacity == 0:
            raise ValidationError("server needs at least one nonzero capacity pool")


@dataclass(frozen=True, eq=False)
class EnhancementProfile:
    """Per-server cost profile of one enhancement algorithm.

    demand_per_bit[n] is its compute demand on server n (units per input bit);
    service_rate[n] is the slice of server n reserved to run it, 0 meaning the
    server cannot run this algorithm at all. A model's k-th profile is
    algorithm k; algorithm 0 is the implicit no-enhancement choice.
    """

    kind: str                          # "gpu" or "cpu": which pool it draws from
    demand_per_bit: np.ndarray         # shape (N,)
    service_rate: np.ndarray           # shape (N,)

    def __post_init__(self):
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


@dataclass(frozen=True)
class ModelConstants:
    """The run's device count and latency constants; each latency field is the
    top-level config key it names."""

    num_devices: int
    # fixed per-slot scheduling/queueing overhead
    overhead_latency_s: float = keyed("overhead_latency_s", float, 0.05, low=0.0)
    # utility lost per second
    latency_weight: float = keyed("latency_weight", float, 0.5, low=0.0)
    # per-device deadline
    max_latency_s: float = keyed("max_latency_s", float, 4.0, low=0.0, strict=True)

    def __post_init__(self):
        if self.num_devices < 1:
            raise ValidationError("need at least one device")
        # every device inside the deadline loses at most weight * deadline, so
        # a finite bound keeps a feasible slot's utility total finite. An
        # infinite weight or deadline overflows it too, so this runs before the
        # key checks; a value that is not a number is left to them
        try:
            finite = math.isfinite(self.num_devices * self.latency_weight * self.max_latency_s)
        except OverflowError:
            finite = False
        except TypeError:
            finite = True
        if not finite:
            raise ValidationError(
                f"latency weight {self.latency_weight} times the {self.max_latency_s} s "
                f"deadline over {self.num_devices} devices overflows"
            )
        check_keyed(self)


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
        for k, prof in enumerate(self.profiles, start=1):
            if len(prof.demand_per_bit) != len(self.servers):
                raise ValidationError(
                    f"algorithm {k}: per-server arrays must have length {len(self.servers)}"
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
        for k, prof in enumerate(self.profiles, start=1):
            mat[:, k] = prof.service_rate
        mat.setflags(write=False)
        return mat

    @cached_property
    def demand_matrix(self) -> np.ndarray:
        """(N, K+1) compute demand per bit; column 0 is all zero."""
        mat = np.zeros((self.num_servers, self.num_algorithms + 1))
        for k, prof in enumerate(self.profiles, start=1):
            mat[:, k] = prof.demand_per_bit
        mat.setflags(write=False)
        return mat

    @cached_property
    def pool_index(self) -> np.ndarray:
        """(K+1,) pool per algorithm; -1 for algorithm 0 which uses no pool."""
        idx = np.full(self.num_algorithms + 1, -1, dtype=np.int64)
        for k, prof in enumerate(self.profiles, start=1):
            idx[k] = prof.pool
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
        """(N, K+1) service rate where runnable, else 1.0, and the additive
        mask: +inf where server n cannot run k, 0.0 where it can and in
        column 0, since algorithm 0 runs nothing."""
        runnable = self.service_matrix > 0.0
        divisor = np.where(runnable, self.service_matrix, 1.0)
        runnable[:, 0] = True
        unrunnable = np.where(runnable, 0.0, np.inf)
        divisor.setflags(write=False)
        unrunnable.setflags(write=False)
        return divisor, unrunnable

    @cached_property
    def fits_alone(self) -> np.ndarray:
        """(codes,) True where a gene code alone fits its pool's capacity."""
        mask = (self.code_load_matrix <= self.capacity_matrix.reshape(-1)).all(axis=1)
        mask.setflags(write=False)
        return mask

    def decode(self, codes) -> Decision:
        """The decision whose genes are the given codes, one per device."""
        ka = self.num_algorithms + 1
        return Decision([c // ka for c in codes], [c % ka for c in codes])


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

    @classmethod
    def trusted(cls, **fields) -> SlotInput:
        """A SlotInput over arrays used as is.

        It skips __post_init__'s checks and copy, so the caller must hand over
        read-only float64 arrays that already hold the class's invariant.
        """
        obj = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        return obj

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
    is finite, its no-enhancement column is all zero, and each slot's
    absolute quality adds to a finite total, so no decision's total utility
    overflows on quality alone.
    """
    for name, arr in (("datasizes", datasize_bits), ("bandwidths", bandwidth_bps)):
        # phrased so that NaN fails as well
        if not ((arr >= 0.0) & (arr < math.inf)).all():
            raise ValidationError(f"{name} must be finite and non-negative")
    if quality is not None:
        if not np.isfinite(quality).all():
            raise ValidationError("quality scores must be finite")
        with np.errstate(over="ignore"):
            magnitude = np.abs(quality).sum(axis=(-2, -1))
        if not np.isfinite(magnitude).all():
            raise ValidationError("quality scores of a slot must add to a finite total")
        if (quality[..., 0] != 0.0).any():
            raise ValidationError("quality of the no-enhancement choice must be 0")


def check_dims(item, model: SystemModel) -> None:
    """Raise unless a slot or a trace has the model's device, server and
    algorithm counts."""
    if ((item.num_devices, item.num_servers, item.num_algorithms)
            == (model.num_devices, model.num_servers, model.num_algorithms)):
        return
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
    return _finish_report(loads, latencies, utilities, model)


def _finish_report(
    loads: np.ndarray, latencies: np.ndarray, utilities: np.ndarray, model: SystemModel
) -> FeasibilityReport:
    """The one place a FeasibilityReport is assembled: a decision's (N, 2)
    pool loads and its (M,) latencies and utilities, with the verdicts and
    the total read off them. check_feasibility and the oracle finish here."""
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

    An entry is +inf when its link is dead (zero bandwidth), when server n
    cannot run k (zero service rate), or when any of its times overflows the
    float range: a time too long to represent is as unreachable as a dead
    link.
    """
    check_dims(slot, model)
    d = slot.datasize_bits[:, None]
    divisor, unrunnable = model.enhancement_divisor   # (N, K+1)
    # an empty chunk takes no time, even on a dead link; otherwise d / b is
    # the dead link's inf once + 0.0 has made a -0.0 bandwidth 0.0. Then
    # (demand * d) / service in that order, and the mask makes an unrunnable
    # entry inf. An overflow leaves the inf the float range rounds it to
    with np.errstate(divide="ignore", over="ignore"):
        b = slot.bandwidth_bps + 0.0
        trans = np.divide(d, b, out=np.zeros(b.shape), where=d != 0.0)
        enh = model.demand_matrix * d[:, :, None] / divisor
        enh += unrunnable
        lat = (trans[:, :, None] + model.constants.overhead_latency_s) + enh
    lat.setflags(write=False)
    return lat


def _utility_from_latency(
    lat: np.ndarray, quality: np.ndarray, model: SystemModel
) -> np.ndarray:
    """Utilities of latencies and the qualities that broadcast against them:
    a whole latency_table, or the entries one decision picks from it. An
    infinite latency is -inf; at weight 0 it is 0 * inf first, which the
    mask drops."""
    weight = model.constants.latency_weight
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(lat), -np.inf, quality - weight * lat)
