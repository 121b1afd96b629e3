"""Per-slot schedulers over (server, algorithm) assignments.

The genetic scheduler searches the full assignment space with elitism,
roulette selection, single-point crossover and single-gene mutation, all in
one operator on packed code populations (next_generation), scoring
individuals by total utility minus normalised constraint penalties. The
exhaustive oracle enumerates every admissible decision for small instances,
and two baselines bound it from below: capacity-driven greedy and no
enhancement. A decision's utility is sysmodel.check_feasibility's total;
the GA scorer and the oracle add utilities device by device just as it does.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SearchSpaceError, ValidationError
from .sysmodel import (
    Decision,
    SlotInput,
    SystemModel,
    _utility_from_latency,
    check_dims,
    check_feasibility,
    latency_table,
)

DEFAULT_POPULATION = 50
DEFAULT_GENERATIONS = 100
DEFAULT_CROSSOVER_PROB = 0.8
DEFAULT_MUTATION_PROB = 0.1
DEFAULT_PENALTY = 100.0
DEFAULT_ORACLE_LIMIT = 10_000_000
DEFAULT_SEED = 1

CAPACITY_EPS = 1e-9     # overload on a ~zero-capacity pool still penalises hard
SELECTION_SHIFT = 1e-9  # relative shift keeping min-fitness weights positive
_ORACLE_CHUNK = 8192    # decisions scored per vectorised batch


@dataclass(frozen=True)
class GaConfig:
    population_size: int = DEFAULT_POPULATION
    generations: int = DEFAULT_GENERATIONS
    crossover_prob: float = DEFAULT_CROSSOVER_PROB
    mutation_prob: float = DEFAULT_MUTATION_PROB
    penalty_capacity: float = DEFAULT_PENALTY
    penalty_latency: float = DEFAULT_PENALTY
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.population_size < 1:
            raise ValidationError("population size must be at least 1")
        if self.generations < 1:
            raise ValidationError("generation count must be at least 1")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.penalty_capacity < 0 or self.penalty_latency < 0:
            raise ValidationError("penalty coefficients must be non-negative")


@dataclass(frozen=True)
class Individual:
    """An evaluated decision: search fitness plus the raw unpenalised utility."""

    decision: Decision
    fitness: float
    raw_utility: float
    feasible: bool


@dataclass(frozen=True)
class OracleResult:
    decision: Decision | None   # None when no feasible decision exists
    objective: float | None
    enumerated: int
    feasible_count: int


@dataclass(frozen=True)
class BaselineResult:
    """Capacity-greedy output; rejected devices are not served this slot."""

    decision: Decision
    rejected: frozenset[int]


def objective(decision: Decision, slot: SlotInput, model: SystemModel) -> float:
    """Total utility of the decision; -inf as soon as any device is unreachable."""
    return check_feasibility(decision, slot, model).total_utility


def _selection_weights(fitnesses: Sequence[float]) -> list[float] | None:
    """Min-shifted roulette weights; None requests uniform selection.

    Unreachable individuals (fitness -inf) get weight zero so a single stray
    one cannot blow up the shift.
    """
    finite = [f for f in fitnesses if not math.isinf(f)]
    if not finite:
        return None
    lowest = min(finite)
    shift = SELECTION_SHIFT * (1.0 + abs(lowest))
    return [0.0 if math.isinf(f) else f - lowest + shift for f in fitnesses]


def _spin(cum: list[float] | None, total: float, size: int, rng: random.Random) -> int:
    if cum is None or total <= 0.0:
        return rng.randrange(size)
    idx = bisect_right(cum, rng.random() * total)
    return min(idx, size - 1)


def _population_fitness(slot: SlotInput, model: SystemModel, ga: GaConfig):
    """Scorer of whole GA populations for the slot.

    Genes are packed as code = server * (K+1) + algorithm, and a population
    is a device-major (M, P) code array with P = ga.population_size. The
    deadline penalty separates per device, so it is folded into the per-gene
    base score; only the capacity coupling depends on the whole genome.
    Every sum runs in device order, then pool order, so each individual's
    fitness is bit-identical to adding its genes one by one.
    """
    load_slot, service = model.code_loads
    m_devices = model.num_devices
    num_codes = len(load_slot)
    size = ga.population_size

    lat = latency_table(slot, model)
    util = _utility_from_latency(lat, slot.quality[:, None, :], model)
    lmax = model.constants.max_latency_s
    excess = np.maximum(lat - lmax, 0.0) / lmax
    if ga.penalty_latency > 0.0:
        base = np.where(excess > 0.0, util - ga.penalty_latency * excess, util)
    else:
        base = util
    # + 0.0 maps -0.0 to 0.0, as a sum started from 0.0 does with its first term
    base = base.reshape(-1) + 0.0
    rows = np.arange(m_devices)[:, None] * num_codes
    caps = model.capacity_matrix.reshape(-1)
    num_pools = len(caps)
    cap_col = caps[:, None]
    inv_col = 1.0 / np.maximum(cap_col, CAPACITY_EPS)
    # pool loads come from one bincount over bins pool * P + individual;
    # algorithm 0 reserves nothing and lands in a spare last pool
    code_bin = np.where(load_slot >= 0, load_slot, num_pools) * size
    members = np.arange(size)
    lam_cap = ga.penalty_capacity

    def fitness(pop: np.ndarray) -> np.ndarray:
        # accumulate, unlike np.sum, adds strictly device after device
        total = np.cumsum(base[pop + rows], axis=0)[-1]
        if lam_cap > 0.0:
            # bincount adds in input order, so each pool sums in device order
            loads = np.bincount(
                (code_bin[pop] + members).reshape(-1),
                weights=service[pop].reshape(-1),
                minlength=(num_pools + 1) * size,
            )[: num_pools * size].reshape(num_pools, size)
            over = loads - cap_col
            np.maximum(over, 0.0, out=over)
            over *= inv_col
            pen = np.cumsum(over, axis=0)[-1]
            hit = pen > 0.0
            np.multiply(pen, lam_cap, out=pen, where=hit)
            np.subtract(total, pen, out=total, where=hit)
        return total

    return fitness


def next_generation(
    pop: np.ndarray,
    fits: Sequence[float],
    ga: GaConfig,
    rng: random.Random,
    num_codes: int,
) -> np.ndarray:
    """The GA's one operator: the next (M, P) code population from `pop`
    and its fitnesses.

    Column 0 keeps the best column verbatim (elitism, the first on ties).
    Every other column spins the roulette twice for its parents; with
    probability crossover_prob it takes genes [0, cut) from the first and
    the rest from the second, the cut uniform in 1..M-1, and otherwise it
    copies the first. With probability mutation_prob one uniformly chosen
    gene is then redrawn uniformly from the `num_codes` codes. The draws are
    taken one child after the next in exactly that order.
    """
    m_devices, size = pop.shape
    best_idx = max(range(size), key=fits.__getitem__)
    weights = _selection_weights(fits)
    if weights is None:
        cum, total = None, 0.0
    else:
        cum = list(itertools.accumulate(weights))
        total = cum[-1]
    # column c of the next population takes genes [0, cuts[c]) from
    # parent firsts[c] and the rest from seconds[c]
    firsts, seconds, cuts = [best_idx], [best_idx], [m_devices]
    mut_cols: list[int] = []
    mut_rows: list[int] = []
    mut_codes: list[int] = []
    for col in range(1, size):
        firsts.append(_spin(cum, total, size, rng))
        seconds.append(_spin(cum, total, size, rng))
        if rng.random() < ga.crossover_prob and m_devices > 1:
            cuts.append(rng.randrange(1, m_devices))
        else:
            cuts.append(m_devices)
        if rng.random() < ga.mutation_prob:
            # the new code is drawn before the position it lands on
            mut_codes.append(rng.randrange(num_codes))
            mut_rows.append(rng.randrange(m_devices))
            mut_cols.append(col)
    rows = np.arange(m_devices)[:, None]
    pop = np.where(rows < cuts, pop[:, firsts], pop[:, seconds])
    if mut_cols:
        pop[mut_rows, mut_cols] = mut_codes
    return pop


def evolve(
    slot: SlotInput, model: SystemModel, ga: GaConfig | None = None
) -> tuple[Individual, list[float]]:
    """Genetic search; returns the best individual ever seen and the
    per-generation best-fitness history (non-decreasing under elitism).

    Runs O(population * generations) evaluations on a fixed seed, so repeated
    calls with the same inputs return the same decision and history. Each
    generation comes from next_generation and is scored as one batch.
    """
    if ga is None:
        ga = GaConfig()
    rng = random.Random(ga.rng_seed)
    fitness = _population_fitness(slot, model, ga)
    size = ga.population_size
    m_devices = model.num_devices
    num_codes = len(model.code_loads[0])

    pop = np.array(
        [[rng.randrange(num_codes) for _ in range(m_devices)] for _ in range(size)]
    ).T
    fits = fitness(pop).tolist()
    history: list[float] = []

    for _ in range(ga.generations):
        history.append(max(fits))
        pop = next_generation(pop, fits, ga, rng, num_codes)
        fits = fitness(pop).tolist()

    best_idx = max(range(size), key=fits.__getitem__)
    decision = model.decode(pop[:, best_idx])
    report = check_feasibility(decision, slot, model)
    return Individual(decision, fits[best_idx], report.total_utility, report.feasible), history


def brute_force(
    slot: SlotInput, model: SystemModel, limit: int = DEFAULT_ORACLE_LIMIT
) -> OracleResult:
    """Enumerate every admissible decision and return the best feasible one.

    Exact but exponential: the space holds (N * (K+1))**M decisions and the
    call refuses to start past `limit`; `enumerated` reports that full space.
    Only admissible codes are enumerated: a code that misses the deadline
    (unreachable or unrunnable ones included) or alone overfills its pool is
    in no feasible decision, so dropping it changes neither the optimum nor
    `feasible_count`. Ties on the objective go to the lexicographically
    smallest gene vector, which is simply the first optimum in enumeration
    order.
    """
    check_dims(slot, model)
    if limit < 1:
        raise ValidationError("enumeration limit must be positive")
    m_devices = model.num_devices
    slot_of, svc_of = model.code_loads
    num_codes = len(slot_of)
    total = num_codes**m_devices
    if total > limit:
        raise SearchSpaceError(
            f"{total} decisions exceed the enumeration limit of {limit}"
        )

    lat = latency_table(slot, model)
    util = _utility_from_latency(lat, slot.quality[:, None, :], model)
    util = util.reshape(m_devices, num_codes)
    lat = lat.reshape(m_devices, num_codes)
    caps = model.capacity_matrix.reshape(-1)
    # dense load row of each code: its service at its load slot, 0 elsewhere
    code_load = np.zeros((num_codes, len(caps)))
    used = slot_of >= 0
    code_load[used, slot_of[used]] = svc_of[used]
    fits_alone = (code_load <= caps).all(axis=1)
    kept = [
        np.flatnonzero((lat[m] <= model.constants.max_latency_s) & fits_alone)
        for m in range(m_devices)
    ]
    if any(len(codes) == 0 for codes in kept):
        return OracleResult(None, None, total, 0)

    # the trailing devices from `split` on form one broadcast block of at most
    # _ORACLE_CHUNK decisions (always at least the last device); the leading
    # ones are iterated. Device 0 is the most significant digit and each
    # device's codes ascend, so enumeration order stays lexicographic.
    split = m_devices - 1
    block = len(kept[split])
    while split > 0 and block * len(kept[split - 1]) <= _ORACLE_CHUNK:
        split -= 1
        block *= len(kept[split])
    block_shape = [len(codes) for codes in kept[split:]]
    block_util = [util[m, kept[m]] for m in range(split, m_devices)]
    block_load = [code_load[kept[m]] for m in range(split, m_devices)]

    best_val = -np.inf
    best_codes: list[int] | None = None
    feasible_count = 0
    for prefix in itertools.product(*kept[:split]):
        # sum device by device, left to right, as a gene-by-gene loop would:
        # regrouping the float additions could move a near-tie or a load
        # sitting exactly at capacity
        vals = np.zeros(1)
        loads = np.zeros((1, len(caps)))
        for m, c in enumerate(prefix):
            vals = vals + util[m, c]
            loads = loads + code_load[c]
        for u_m, l_m in zip(block_util, block_load):
            vals = (vals[:, None] + u_m).reshape(-1)
            loads = (loads[:, None, :] + l_m).reshape(-1, len(caps))
        ok = (loads <= caps).all(axis=1)
        n_ok = int(np.count_nonzero(ok))
        if n_ok == 0:
            continue
        feasible_count += n_ok
        masked = np.where(ok, vals, -np.inf)
        pos = int(np.argmax(masked))
        if masked[pos] > best_val:
            best_val = float(masked[pos])
            digits = np.unravel_index(pos, block_shape)
            best_codes = list(prefix) + [
                codes[d] for codes, d in zip(kept[split:], digits)
            ]

    if best_codes is None:
        return OracleResult(None, None, total, feasible_count)
    # best_val sums device by device from 0.0, so it is objective() exactly
    return OracleResult(model.decode(best_codes), best_val, total, feasible_count)


def baseline_capacity(slot: SlotInput, model: SystemModel) -> BaselineResult:
    """Greedy capacity matcher.

    Each device, in index order, asks for its highest-quality algorithm and is
    placed on the server with the most residual pool capacity that can hold
    it. A device whose request fits nowhere is rejected outright rather than
    downgraded, and a rejected device is not served at all this slot.
    """
    check_dims(slot, model)
    residual = model.capacity_matrix.copy()
    service = model.service_matrix
    pools = model.pool_index
    servers_out: list[int] = []
    algorithms_out: list[int] = []
    rejected: list[int] = []
    for m in range(model.num_devices):
        k_star = int(np.argmax(slot.quality[m]))  # ties go to the smaller id
        if k_star == 0:
            totals = residual.sum(axis=1)
            servers_out.append(int(np.argmax(totals)))
            algorithms_out.append(0)
            continue
        pool = int(pools[k_star])
        order = np.argsort(-residual[:, pool], kind="stable")
        chosen = -1
        for n in order:
            s = service[n, k_star]
            if 0.0 < s <= residual[n, pool]:
                chosen = int(n)
                break
        if chosen < 0:
            rejected.append(m)
            servers_out.append(0)
            algorithms_out.append(0)
        else:
            residual[chosen, pool] -= service[chosen, k_star]
            servers_out.append(chosen)
            algorithms_out.append(k_star)
    return BaselineResult(
        Decision(tuple(servers_out), tuple(algorithms_out)), frozenset(rejected)
    )


def baseline_no_enhancement(slot: SlotInput, model: SystemModel) -> Decision:
    """Every device ships raw to its fastest uplink (ties to the smaller index)."""
    check_dims(slot, model)
    servers = tuple(
        int(np.argmax(slot.bandwidth_bps[m])) for m in range(model.num_devices)
    )
    return Decision(servers, (0,) * model.num_devices)
