"""Per-slot schedulers over (server, algorithm) assignments.

The genetic scheduler searches the full assignment space with elitism,
roulette selection, single-point crossover and single-gene mutation, all in
one operator on packed code populations (next_generation), scoring
individuals by total utility minus normalised constraint penalties. Its
first population is one bulk draw of 32-bit words that keeps randrange's
stream (initial_population), and its scorer builds no pool loads for a
population whose totals are all -inf, since no penalty can lower them. The
exact oracle enumerates every admissible decision for small instances, or
solves the slot device by device when no pool can overfill, and two
baselines bound it from below: capacity-driven greedy and no enhancement.
A decision's utility is sysmodel.check_feasibility's total; the GA scorer
and the oracle add utilities device by device just as it does, and each
returns its answer with the report check_feasibility would give it. evolve
and brute_force take the slot's latency_table from a caller that has built
it (the simulator builds one per slot), and build their own when given none.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SearchSpaceError, ValidationError
from .keys import check_keyed, keyed
from .sysmodel import (
    Decision,
    FeasibilityReport,
    SlotInput,
    SystemModel,
    _finish_report,
    _utility_from_latency,
    check_dims,
    check_feasibility,
    latency_table,
)

DEFAULT_ORACLE_LIMIT = 10_000_000
DEFAULT_SEED = 1

CAPACITY_EPS = 1e-9     # overload on a ~zero-capacity pool still penalises hard
SELECTION_SHIFT = 1e-9  # relative shift keeping min-fitness weights positive
_ORACLE_CHUNK = 8192    # decisions scored per vectorised batch


@dataclass(frozen=True)
class GaConfig:
    """The penalty GA's parameters; each field is the `ga` config key it names."""

    population_size: int = keyed("population_size", int, 50, low=1)
    generations: int = keyed("generations", int, 100, low=1)
    crossover_prob: float = keyed("crossover_prob", float, 0.8, low=0.0, high=1.0)
    mutation_prob: float = keyed("mutation_prob", float, 0.1, low=0.0, high=1.0)
    penalty_capacity: float = keyed("penalty_capacity", float, 100.0, low=0.0)
    penalty_latency: float = keyed("penalty_latency", float, 100.0, low=0.0)
    # a seed absent from the ga section takes the top-level seed
    rng_seed: int = keyed("seed", int, DEFAULT_SEED)

    def __post_init__(self):
        check_keyed(self)


@dataclass(frozen=True)
class Individual:
    """An evaluated decision: its search fitness and its check_feasibility
    report, which holds the raw unpenalised utility and the verdicts."""

    decision: Decision
    fitness: float
    # left out of ==: it follows from the decision for a given slot, and
    # its arrays do not compare to one bool
    report: FeasibilityReport = field(compare=False)

    @property
    def raw_utility(self) -> float:
        return self.report.total_utility

    @property
    def feasible(self) -> bool:
        return self.report.feasible


@dataclass(frozen=True)
class OracleResult:
    """brute_force's answer: the optimum, its check_feasibility report and
    that report's total; all three None when no feasible decision exists."""

    decision: Decision | None
    objective: float | None
    enumerated: int
    feasible_count: int
    # left out of ==, as Individual's report is
    report: FeasibilityReport | None = field(default=None, compare=False)


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


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Column totals of a 2-D array: 0.0 plus each row in turn, bit-identical
    to a left-to-right loop over the rows that starts from 0.0.

    np.add.reduce starts from its identity 0.0 but sums pairwise along the
    fast axis, so it adds row after row only when the rows are C-contiguous
    and hold more than one column. Any other layout takes the accumulate,
    which always adds in order but starts from the first row; adding 0.0
    turns the -0.0 that start can leave into the 0.0 a start from 0.0 gives.
    """
    if x.shape[1] > 1 and x.flags.c_contiguous:
        return np.add.reduce(x, axis=0)
    return np.cumsum(x, axis=0)[-1] + 0.0


def _population_fitness(
    slot: SlotInput, model: SystemModel, ga: GaConfig, lat: np.ndarray
):
    """Scorer of whole GA populations for the slot, from its latency_table `lat`.

    Genes are packed as code = server * (K+1) + algorithm, and a population
    is a device-major (M, P) code array with P = ga.population_size. The
    deadline penalty separates per device, so it is folded into the per-gene
    base score; only the capacity coupling depends on the whole genome.
    Both totals, over devices and over pools, are row reductions of an
    (rows, P) array through _row_sum, so each individual's fitness is
    bit-identical to adding its genes one by one in device order, then its
    pool overloads in pool order. The (M, P) offsets of each gene's row in
    the base scores and of its individual's pool bins are built once, so a
    generation reads both through take on arrays of its own shape.

    The capacity penalty is never negative or NaN (penalties and capacities
    are finite), so subtracting it leaves a -inf total as it is. When every
    individual's total is -inf the pool loads are not built at all, and
    every score keeps its bits.
    """
    load_slot, service = model.code_loads
    m_devices = model.num_devices
    num_codes = len(load_slot)
    size = ga.population_size

    util = _utility_from_latency(lat, slot.quality[:, None, :], model)
    lmax = model.constants.max_latency_s
    excess = np.maximum(lat - lmax, 0.0) / lmax
    if ga.penalty_latency > 0.0:
        base = np.where(excess > 0.0, util - ga.penalty_latency * excess, util)
    else:
        base = util
    base = base.reshape(-1)
    # gene (m, c) reads base[row_at[m, c] + code]
    row_at = np.repeat(np.arange(m_devices) * num_codes, size).reshape(m_devices, size)
    caps = model.capacity_matrix.reshape(-1)
    num_pools = len(caps)
    cap_col = caps[:, None]
    inv_col = 1.0 / np.maximum(cap_col, CAPACITY_EPS)
    # pool loads come from one bincount over bins pool * P + individual;
    # algorithm 0 reserves nothing and lands in a spare last pool
    code_bin = np.where(load_slot >= 0, load_slot, num_pools) * size
    member_at = np.tile(np.arange(size), m_devices).reshape(m_devices, size)
    lam_cap = ga.penalty_capacity

    def fitness(pop: np.ndarray) -> np.ndarray:
        # row reductions add strictly device after device, unlike np.sum
        total = _row_sum(base.take(pop + row_at))
        if lam_cap > 0.0 and total.max() != -math.inf:
            # bincount adds in input order, so each pool sums in device order
            loads = np.bincount(
                (code_bin.take(pop) + member_at).reshape(-1),
                weights=service.take(pop).reshape(-1),
                minlength=(num_pools + 1) * size,
            )[: num_pools * size].reshape(num_pools, size)
            over = loads - cap_col
            np.maximum(over, 0.0, out=over)
            over *= inv_col
            # pen >= 0 and total is never -0.0, so subtracting a zero
            # penalty leaves total's bits as they are
            pen = _row_sum(over)
            pen *= lam_cap
            total -= pen
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
    taken one child after the next in exactly that order. Each integer draw
    is inlined from CPython's randrange: `getrandbits(n.bit_length())`
    redrawn while it is n or more, so `rng` yields, and ends in, exactly what
    the same sequence of random() and randrange() calls would give. The loop
    records each child as one or two runs of parent genes; one repeat of
    those run lengths and one take then assemble the whole generation.
    """
    m_devices, size = pop.shape
    best_idx = fits.index(max(fits))
    weights = _selection_weights(fits)
    # the roulette's total is > 0: each finite fitness weighs >= SELECTION_SHIFT
    uniform = weights is None
    if not uniform:
        cum = list(itertools.accumulate(weights))
        total = cum[-1]
    rand = rng.random
    bits = rng.getrandbits
    px, pm = ga.crossover_prob, ga.mutation_prob
    crossable = m_devices > 1
    last = size - 1
    # randrange(n) draws n.bit_length() bits; randrange(1, M) is 1 + randrange(M - 1)
    k_size, k_cut = size.bit_length(), (m_devices - 1).bit_length()
    k_row, k_code = m_devices.bit_length(), num_codes.bit_length()
    # the children, column after column, as runs of genes: run i copies the
    # next runs[i] genes from parent column parents[i]. A crossing child is a
    # run of `cut` genes and one of M - cut; the elite and every other child
    # are one run of M.
    parents, runs = [best_idx], [m_devices]
    mut_at: list[int] = []  # flat (row-major) positions of the mutated genes
    mut_codes: list[int] = []
    for col in range(1, size):
        if uniform:
            first = bits(k_size)
            while first >= size:
                first = bits(k_size)
            second = bits(k_size)
            while second >= size:
                second = bits(k_size)
        else:
            # searching cum[:last] clamps a spin that rounds up to total
            first = bisect_right(cum, rand() * total, 0, last)
            second = bisect_right(cum, rand() * total, 0, last)
        if rand() < px and crossable:
            cut = bits(k_cut)
            while cut >= m_devices - 1:
                cut = bits(k_cut)
            cut += 1
            parents.append(first)
            runs.append(cut)
            parents.append(second)
            runs.append(m_devices - cut)
        else:
            parents.append(first)
            runs.append(m_devices)
        if rand() < pm:
            # the new code is drawn before the position it lands on
            code = bits(k_code)
            while code >= num_codes:
                code = bits(k_code)
            row = bits(k_row)
            while row >= m_devices:
                row = bits(k_row)
            mut_codes.append(code)
            mut_at.append(row * size + col)
    # the runs laid end to end give each gene's parent column, child by
    # child; adding m * P to gene m's turns them into flat positions, written
    # device-major so that take returns the C-contiguous (M, P) _row_sum needs
    flat = np.empty((m_devices, size), dtype=np.intp)
    np.add(np.array(parents).repeat(runs).reshape(size, m_devices).T,
           np.arange(0, m_devices * size, size)[:, None], out=flat)
    pop = pop.take(flat)
    if mut_at:
        pop.put(mut_at, mut_codes)
    return pop


def initial_population(
    rng: random.Random, num_codes: int, m_devices: int, size: int
) -> np.ndarray:
    """The GA's first (M, P) code population: randrange(num_codes) for every
    gene, individual by individual and device by device within each, drawn
    in bulk.

    CPython's getrandbits(k) for k <= 32 is one Mersenne Twister word
    shifted right by 32 - k, and getrandbits(32 * n) returns the next n words
    least significant first. So the shifted words of each round that fall
    below num_codes, kept in order, are randrange's draws, rejections
    included, and rng ends in the state those calls leave. A round draws one
    word per code still missing, so no round draws past the last code. This
    needs num_codes.bit_length() <= 32: one word per draw.
    """
    shift = 32 - num_codes.bit_length()
    need = size * m_devices
    rounds = []
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        codes = np.frombuffer(words, dtype="<u4") >> shift
        codes = codes[codes < num_codes]
        rounds.append(codes)
        need -= len(codes)
    # C-contiguous (M, P), so the scorer's row sums take np.add.reduce
    return np.concatenate(rounds).astype(np.intp).reshape(size, m_devices).T.copy()


def evolve(
    slot: SlotInput,
    model: SystemModel,
    ga: GaConfig | None = None,
    lat: np.ndarray | None = None,
) -> tuple[Individual, list[float]]:
    """Genetic search; returns the best individual ever seen and the
    per-generation best-fitness history (non-decreasing under elitism).

    Runs O(population * generations) evaluations on a fixed seed, so repeated
    calls with the same inputs return the same decision and history. The
    first population comes from initial_population, in bulk, with the
    randrange draws a gene-by-gene loop would take (num_codes needs at most 32
    bits); each later one comes from next_generation. Every population is
    scored as one batch, which skips the capacity penalty while no
    individual's total is finite. The populations and the answer's report are
    scored from one latency table: `lat` when given, else one built here.
    """
    if ga is None:
        ga = GaConfig()
    if lat is None:
        lat = latency_table(slot, model)
    rng = random.Random(ga.rng_seed)
    size = ga.population_size
    m_devices = model.num_devices
    num_codes = len(model.code_loads[0])
    history: list[float] = []

    # a deadline penalty or a total past the float range is the -inf it
    # rounds to, the score of an unreachable gene
    with np.errstate(over="ignore"):
        fitness = _population_fitness(slot, model, ga, lat)
        pop = initial_population(rng, num_codes, m_devices, size)
        fits = fitness(pop).tolist()
        for _ in range(ga.generations):
            history.append(max(fits))
            pop = next_generation(pop, fits, ga, rng, num_codes)
            fits = fitness(pop).tolist()

    best_idx = fits.index(max(fits))
    decision = model.decode(pop[:, best_idx].tolist())
    report = check_feasibility(decision, slot, model, lat)
    return Individual(decision, fits[best_idx], report), history


def brute_force(
    slot: SlotInput,
    model: SystemModel,
    limit: int = DEFAULT_ORACLE_LIMIT,
    lat: np.ndarray | None = None,
) -> OracleResult:
    """Return the best feasible decision over every admissible one, with its
    report.

    Exact but exponential: the space holds (N * (K+1))**M decisions and the
    call refuses to start past `limit`; `enumerated` reports that full space.
    Only admissible codes count: a code that misses the deadline
    (unreachable or unrunnable ones included) or alone overfills its pool is
    in no feasible decision, so dropping it changes neither the optimum nor
    `feasible_count`. A pool is slack when even each device's heaviest kept
    code, added in device order, fits it; float addition is monotone, so no
    decision overfills a slack pool and its capacity check is dropped. When
    every pool is slack the slot separates by device and is solved without
    enumerating (_separable_optimum). Ties on the objective go to the
    lexicographically smallest gene vector, the first optimum in enumeration
    order. `lat` is the slot's latency_table when the caller has built it;
    without it the table is built here. Both paths finish the answer's
    report from the rows they hold, and `objective` is its total.
    """
    check_dims(slot, model)
    if limit < 1:
        raise ValidationError("enumeration limit must be positive")
    m_devices = model.num_devices
    num_codes = len(model.fits_alone)
    total = num_codes**m_devices
    if total > limit:
        raise SearchSpaceError(
            f"{total} decisions exceed the enumeration limit of {limit}"
        )

    if lat is None:
        lat = latency_table(slot, model)
    util = _utility_from_latency(lat, slot.quality[:, None, :], model)
    util = util.reshape(m_devices, num_codes)
    lat = lat.reshape(m_devices, num_codes)
    admissible = lat <= model.constants.max_latency_s
    admissible &= model.fits_alone
    kept = [row.nonzero()[0].tolist() for row in admissible]
    if not all(kept):
        return OracleResult(None, None, total, 0)

    # the largest load any decision puts on each pool, 0.0 plus device after
    # device as below; loads are non-negative and every device keeps a code,
    # so the 0.0 standing in for a dropped code never wins a device's max
    code_load = model.code_load_matrix
    peak = _row_sum(np.where(admissible[:, :, None], code_load, 0.0).max(axis=1))
    caps = model.capacity_matrix.reshape(-1)
    live = peak > caps
    if not live.any():
        return _separable_optimum(util, lat, admissible, kept, total, model)
    caps = caps[live]
    code_load = code_load[:, live]

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
    # best_val sums device by device from 0.0, as the report's total does
    return _oracle_answer(best_codes, util, lat, total, feasible_count, model)


def _separable_optimum(
    util: np.ndarray,
    lat: np.ndarray,
    admissible: np.ndarray,
    kept: list[list[int]],
    total: int,
    model: SystemModel,
) -> OracleResult:
    """brute_force's answer when no capacity check can fail.

    Every admissible decision is feasible, and by monotonicity the largest
    left-to-right sum takes each device's best utility. The walk picks, device
    by device, the smallest code that can still reach that sum, which is the
    first optimum in enumeration order even where rounding lets a code below
    a device's best tie with it.
    It adds Python floats, IEEE doubles as numpy's are. max may keep a -0.0
    where numpy's gives 0.0, but every sum starts from 0.0, so none sees it.
    """
    # every device's admissible utilities, device after device, in one read
    flat = iter(util[admissible].tolist())
    rows = [list(itertools.islice(flat, len(codes))) for codes in kept]
    best = [max(row) for row in rows]
    target = 0.0
    for b in best:
        target += b
    prefix = 0.0
    chosen = []
    for m, row in enumerate(rows):
        rest = best[m + 1:]
        for i, u in enumerate(row):
            reach = prefix + u
            for b in rest:
                reach += b
            if reach == target:
                break
        chosen.append(kept[m][i])
        prefix += u
    feasible_count = math.prod(len(codes) for codes in kept)
    # the walk ends on a sum equal to target, so the report's total is target
    return _oracle_answer(chosen, util, lat, total, feasible_count, model)


def _oracle_answer(
    codes: list[int],
    util: np.ndarray,
    lat: np.ndarray,
    total: int,
    feasible_count: int,
    model: SystemModel,
) -> OracleResult:
    """The OracleResult of the optimum `codes`, one per device, with the
    report check_feasibility would give it, finished from the (M, codes)
    utility and latency rows brute_force holds."""
    rows, cols = np.arange(len(codes)), np.array(codes)
    # pool loads added device by device from 0.0, as server_loads adds them
    loads = _row_sum(model.code_load_matrix[cols]).reshape(model.num_servers, 2)
    report = _finish_report(loads, lat[rows, cols], util[rows, cols], model)
    return OracleResult(
        model.decode(codes), report.total_utility, total, feasible_count, report
    )


def baseline_capacity(slot: SlotInput, model: SystemModel) -> BaselineResult:
    """Greedy capacity matcher.

    Each device, in index order, asks for its highest-quality algorithm and is
    placed on the server with the most residual pool capacity that can hold
    it. A device whose request fits nowhere is rejected outright rather than
    downgraded, and a rejected device is not served at all this slot.

    Admission rule: a request fits when `load + service <= capacity`, the
    pool's load added device by device from 0.0 as check_feasibility adds it,
    so a slot that rejects no device reports capacity_ok. Servers are tried by
    residual `capacity - load`, largest first, ties to the smaller index.
    """
    check_dims(slot, model)
    capacity = model.capacity_matrix
    load = np.zeros_like(capacity)
    service = model.service_matrix
    pools = model.pool_index
    servers_out: list[int] = []
    algorithms_out: list[int] = []
    rejected: list[int] = []
    for m in range(model.num_devices):
        k_star = int(np.argmax(slot.quality[m]))  # ties go to the smaller id
        if k_star == 0:
            totals = (capacity - load).sum(axis=1)
            servers_out.append(int(np.argmax(totals)))
            algorithms_out.append(0)
            continue
        pool = int(pools[k_star])
        order = np.argsort(load[:, pool] - capacity[:, pool], kind="stable")
        chosen = -1
        for n in order:
            s = service[n, k_star]
            if 0.0 < s and load[n, pool] + s <= capacity[n, pool]:
                chosen = int(n)
                break
        if chosen < 0:
            rejected.append(m)
            servers_out.append(0)
            algorithms_out.append(0)
        else:
            load[chosen, pool] += service[chosen, k_star]
            servers_out.append(chosen)
            algorithms_out.append(k_star)
    return BaselineResult(
        Decision(tuple(servers_out), tuple(algorithms_out)), frozenset(rejected)
    )


def baseline_no_enhancement(slot: SlotInput, model: SystemModel) -> Decision:
    """Every device ships raw to its fastest uplink (ties to the smaller index)."""
    check_dims(slot, model)
    servers = slot.bandwidth_bps.argmax(axis=1).tolist()
    return Decision(servers, (0,) * model.num_devices)
