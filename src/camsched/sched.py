"""Per-slot schedulers over (server, algorithm) assignments.

The genetic scheduler searches the full assignment space with elitism,
roulette selection, single-point crossover and single-gene mutation, scoring
individuals by total utility minus normalised constraint penalties. The
exhaustive oracle enumerates every decision for small instances, and two
baselines bound it from below: capacity-driven greedy and no enhancement.
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
    _check_slot_dims,
    check_feasibility,
    latency_table,
    utility_table,
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
    decision.validate_against(model)
    util = utility_table(slot, model)
    rows = np.arange(decision.num_devices)
    vals = util[rows, list(decision.servers), list(decision.algorithms)]
    if np.isneginf(vals).any():
        return -math.inf
    return float(np.sum(vals))


def _penalty_term(coefficient: float, amount: float) -> float:
    # guards 0 * inf, which would otherwise poison the fitness with NaN
    if coefficient == 0.0 or amount == 0.0:
        return 0.0
    return coefficient * amount


def penalized_fitness(
    decision: Decision, slot: SlotInput, model: SystemModel, ga: GaConfig
) -> tuple[float, float, bool]:
    """(fitness, raw utility, feasible) with normalised additive penalties.

    Overloads are scaled by pool capacity and deadline excess by the deadline,
    so one penalty unit means "violated by 100% of the budget" for both.
    """
    raw = objective(decision, slot, model)
    report = check_feasibility(decision, slot, model)
    caps = np.maximum(model.capacity_matrix, CAPACITY_EPS)
    cap_amount = float(np.sum(report.overloads / caps))
    lat_amount = float(
        np.sum(report.latency_excess / model.constants.max_latency_s)
    )
    fitness = (
        raw
        - _penalty_term(ga.penalty_capacity, cap_amount)
        - _penalty_term(ga.penalty_latency, lat_amount)
    )
    return fitness, raw, report.feasible


def random_decision(rng: random.Random, model: SystemModel) -> Decision:
    """One uniform (server, algorithm) draw per device."""
    servers = []
    algorithms = []
    for _ in range(model.num_devices):
        servers.append(rng.randrange(model.num_servers))
        algorithms.append(rng.randrange(model.num_algorithms + 1))
    return Decision(tuple(servers), tuple(algorithms))


def random_individual(
    rng: random.Random, slot: SlotInput, model: SystemModel, ga: GaConfig
) -> Individual:
    decision = random_decision(rng, model)
    fitness, raw, feasible = penalized_fitness(decision, slot, model, ga)
    return Individual(decision, fitness, raw, feasible)


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


def roulette_select(population: Sequence[Individual], rng: random.Random) -> Individual:
    """Fitness-proportional draw over min-shifted weights."""
    if not population:
        raise ValidationError("cannot select from an empty population")
    weights = _selection_weights([ind.fitness for ind in population])
    if weights is None:
        return population[rng.randrange(len(population))]
    cum = list(itertools.accumulate(weights))
    return population[_spin(cum, cum[-1], len(population), rng)]


def crossover(parent1: Decision, parent2: Decision, rng: random.Random) -> Decision:
    """Single-point splice over the device axis; a 1-device child copies parent1."""
    if parent1.num_devices != parent2.num_devices:
        raise ValidationError("parents must cover the same devices")
    m = parent1.num_devices
    if m == 1:
        return Decision(parent1.servers, parent1.algorithms)
    cut = rng.randrange(1, m)
    return Decision(
        parent1.servers[:cut] + parent2.servers[cut:],
        parent1.algorithms[:cut] + parent2.algorithms[cut:],
    )


def mutate(decision: Decision, rng: random.Random, model: SystemModel) -> Decision:
    """Redraw one uniformly chosen device's gene uniformly (may land unchanged)."""
    decision.validate_against(model)
    pos = rng.randrange(decision.num_devices)
    servers = list(decision.servers)
    algorithms = list(decision.algorithms)
    servers[pos] = rng.randrange(model.num_servers)
    algorithms[pos] = rng.randrange(model.num_algorithms + 1)
    return Decision(tuple(servers), tuple(algorithms))


class _SlotTables:
    """Flattened per-slot cost tables backing the GA inner loop.

    Genes are packed as code = server * (K+1) + algorithm. The deadline
    penalty separates per device, so it is folded into the per-gene base
    score; only the capacity coupling is recomputed per evaluation.
    """

    __slots__ = (
        "num_devices",
        "num_codes",
        "base",
        "load_slot",
        "service_flat",
        "caps",
        "inv_caps",
        "lam_cap",
    )

    def __init__(self, slot: SlotInput, model: SystemModel, ga: GaConfig):
        load_slot, service = model.code_loads
        self.num_devices = model.num_devices
        self.num_codes = len(load_slot)

        lat = latency_table(slot, model)
        util = utility_table(slot, model)
        lmax = model.constants.max_latency_s
        excess = np.maximum(lat - lmax, 0.0) / lmax
        if ga.penalty_latency > 0.0:
            base = np.where(excess > 0.0, util - ga.penalty_latency * excess, util)
        else:
            base = util
        self.base = base.reshape(self.num_devices, self.num_codes).tolist()
        self.load_slot = load_slot.tolist()
        self.service_flat = service.tolist()
        self.caps = model.capacity_matrix.reshape(-1).tolist()
        self.inv_caps = [1.0 / max(c, CAPACITY_EPS) for c in self.caps]
        self.lam_cap = ga.penalty_capacity

    def fitness(self, genome: list[int]) -> float:
        base = self.base
        load_slot = self.load_slot
        service = self.service_flat
        loads = [0.0] * len(self.caps)
        total = 0.0
        for m, c in enumerate(genome):
            total += base[m][c]
            j = load_slot[c]
            if j >= 0:
                loads[j] += service[c]
        if self.lam_cap > 0.0:
            caps = self.caps
            inv = self.inv_caps
            pen = 0.0
            for j, load in enumerate(loads):
                over = load - caps[j]
                if over > 0.0:
                    pen += over * inv[j]
            if pen > 0.0:
                total -= self.lam_cap * pen
        return total


def evolve(
    slot: SlotInput, model: SystemModel, ga: GaConfig | None = None
) -> tuple[Individual, list[float]]:
    """Genetic search; returns the best individual ever seen and the
    per-generation best-fitness history (non-decreasing under elitism).

    Runs O(population * generations) evaluations on a fixed seed, so repeated
    calls with the same inputs return the same decision and history.
    """
    if ga is None:
        ga = GaConfig()
    rng = random.Random(ga.rng_seed)
    tables = _SlotTables(slot, model, ga)
    m_devices = tables.num_devices
    num_codes = tables.num_codes

    pop = [
        [rng.randrange(num_codes) for _ in range(m_devices)]
        for _ in range(ga.population_size)
    ]
    fits = [tables.fitness(g) for g in pop]
    history: list[float] = []

    for _ in range(ga.generations):
        best_idx = max(range(len(fits)), key=fits.__getitem__)
        history.append(fits[best_idx])
        weights = _selection_weights(fits)
        if weights is None:
            cum, total = None, 0.0
        else:
            cum = list(itertools.accumulate(weights))
            total = cum[-1]
        # elitism: the generation best survives verbatim
        next_pop = [pop[best_idx]]
        next_fits = [fits[best_idx]]
        for _ in range(ga.population_size - 1):
            i1 = _spin(cum, total, ga.population_size, rng)
            i2 = _spin(cum, total, ga.population_size, rng)
            child = pop[i1]
            changed = False
            if rng.random() < ga.crossover_prob and m_devices > 1:
                cut = rng.randrange(1, m_devices)
                child = pop[i1][:cut] + pop[i2][cut:]
                changed = True
            if rng.random() < ga.mutation_prob:
                if not changed:
                    child = child[:]
                child[rng.randrange(m_devices)] = rng.randrange(num_codes)
                changed = True
            if changed:
                next_pop.append(child)
                next_fits.append(tables.fitness(child))
            else:
                # untouched copy of parent 1: reuse its cached fitness
                next_pop.append(pop[i1])
                next_fits.append(fits[i1])
        pop, fits = next_pop, next_fits

    best_idx = max(range(len(fits)), key=fits.__getitem__)
    decision = model.decode(pop[best_idx])
    # keep the table-path fitness: the scalar re-evaluation can differ in the
    # last ulp on penalized individuals, which would break final == history[-1]
    _, raw, feasible = penalized_fitness(decision, slot, model, ga)
    return Individual(decision, fits[best_idx], raw, feasible), history


def brute_force(
    slot: SlotInput, model: SystemModel, limit: int = DEFAULT_ORACLE_LIMIT
) -> OracleResult:
    """Enumerate every decision and return the best feasible one.

    Exact but exponential: the space holds (N * (K+1))**M decisions and the
    call refuses to start past `limit`. Ties on the objective go to the
    lexicographically smallest gene vector, which is simply the first optimum
    in enumeration order.
    """
    _check_slot_dims(slot, model)
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

    util = utility_table(slot, model).reshape(m_devices, num_codes)
    lat = latency_table(slot, model).reshape(m_devices, num_codes)
    lat_ok = lat <= model.constants.max_latency_s
    caps = model.capacity_matrix.reshape(-1)

    # device 0 is the most significant digit, so enumeration order is
    # lexicographic over gene vectors
    radix = num_codes ** np.arange(m_devices - 1, -1, -1, dtype=np.int64)
    best_val = -np.inf
    best_codes: np.ndarray | None = None
    feasible_count = 0
    for start in range(0, total, _ORACLE_CHUNK):
        idx = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.int64)
        codes_mat = (idx[:, None] // radix[None, :]) % num_codes
        batch = len(idx)
        vals = np.zeros(batch)
        ok = np.ones(batch, dtype=bool)
        loads = np.zeros((batch, len(caps)))
        rows = np.arange(batch)
        for m in range(m_devices):
            c = codes_mat[:, m]
            vals = vals + util[m, c]
            ok &= lat_ok[m, c]
            j = slot_of[c]
            used = j >= 0
            if used.any():
                loads[rows[used], j[used]] += svc_of[c[used]]
        ok &= (loads <= caps[None, :]).all(axis=1)
        feasible_count += int(np.count_nonzero(ok))
        if ok.any():
            masked = np.where(ok, vals, -np.inf)
            pos = int(np.argmax(masked))
            if masked[pos] > best_val:
                best_val = float(masked[pos])
                best_codes = codes_mat[pos].copy()

    if best_codes is None:
        return OracleResult(None, None, total, feasible_count)
    decision = model.decode(best_codes)
    # canonical re-evaluation so the stored optimum matches objective() exactly
    return OracleResult(decision, objective(decision, slot, model), total, feasible_count)


def baseline_capacity(slot: SlotInput, model: SystemModel) -> BaselineResult:
    """Greedy capacity matcher.

    Each device, in index order, asks for its highest-quality algorithm and is
    placed on the server with the most residual pool capacity that can hold
    it. A device whose request fits nowhere is rejected outright rather than
    downgraded, and a rejected device is not served at all this slot.
    """
    _check_slot_dims(slot, model)
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
    _check_slot_dims(slot, model)
    servers = tuple(
        int(np.argmax(slot.bandwidth_bps[m])) for m in range(model.num_devices)
    )
    return Decision(servers, (0,) * model.num_devices)
