"""Scheduler tests: objective, the GA operator, brute-force oracle, baselines."""

import dataclasses
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camsched import sched as sched_module
from camsched.errors import SearchSpaceError, ValidationError
from camsched.sched import (
    BaselineResult,
    GaConfig,
    baseline_capacity,
    baseline_no_enhancement,
    brute_force,
    evolve,
    _population_fitness,
    _row_sum,
    next_generation,
    objective,
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
    _utility_from_latency,
    latency_table,
    server_loads,
)

from conftest import (
    make_model,
    make_slot,
    paper_scale_instance,
    random_decision,
    small_instance,
)
from refimpl import (
    _ref_next_generation,
    ref_evolve,
    ref_gene_latency,
    ref_objective,
    ref_row_sum,
    ref_utility,
)


def free_enhancer_model(num_devices=1, overhead=0.0):
    """One server, one algorithm whose enhancement takes zero seconds."""
    servers = (EdgeServer(gpu_capacity=8.0, cpu_capacity=4.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([1.0])),
    )
    constants = ModelConstants(
        num_devices=num_devices, overhead_latency_s=overhead,
        latency_weight=0.5, max_latency_s=4.0,
    )
    return SystemModel(servers, profiles, constants)


def slot_for(model, d, b, quality):
    m = model.constants.num_devices
    return SlotInput(
        datasize_bits=np.asarray(d, dtype=float),
        bandwidth_bps=np.full((m, model.num_servers), b, dtype=float),
        quality=np.asarray(quality, dtype=float),
    )


# ----------------------------------------------------------------- objective

def test_objective_single_device_example():
    model = free_enhancer_model()
    slot = slot_for(model, [20e6], 20e6, [[0.0, 1.0]])
    assert objective(Decision((0,), (1,)), slot, model) == 0.5


def test_objective_all_terms_vanish():
    model = free_enhancer_model(num_devices=2)
    slot = slot_for(model, [0.0, 0.0], 20e6, [[0.0, 1.0], [0.0, 1.0]])
    assert objective(Decision((0, 0), (0, 0)), slot, model) == 0.0


def test_objective_two_device_sum():
    model = free_enhancer_model(num_devices=2)
    slot = slot_for(model, [20e6, 20e6], 20e6, [[0.0, 0.8], [0.0, 0.4]])
    got = objective(Decision((0, 0), (1, 1)), slot, model)
    assert got == pytest.approx(0.2, rel=1e-9)


def test_objective_unreachable_is_minus_inf():
    model = free_enhancer_model()
    slot = slot_for(model, [1e6], 0.0, [[0.0, 1.0]])
    assert objective(Decision((0,), (0,)), slot, model) == -math.inf


def test_objective_matches_reference_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(300):
        model = make_model(rng, 3, 2, 2)
        slot = make_slot(rng, model)
        decision = Decision(
            servers=tuple(int(rng.integers(0, 2)) for _ in range(3)),
            algorithms=tuple(int(rng.integers(0, 3)) for _ in range(3)),
        )
        got = objective(decision, slot, model)
        want = ref_objective(decision.genes(), slot, model)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ packed fitness

def packed_fitness(decision, slot, model, ga):
    """The scorer evolve runs, on a one-column population of code n*(K+1)+k,
    with the decision's (raw utility, feasible) from check_feasibility."""
    ka = model.num_algorithms + 1
    codes = np.array([[n * ka + k] for n, k in decision.genes()])
    score = _population_fitness(slot, model, dataclasses.replace(ga, population_size=1),
                                latency_table(slot, model))
    report = check_feasibility(decision, slot, model)
    return float(score(codes)[0]), report.total_utility, report.feasible


def test_fitness_equals_objective_when_feasible():
    model = free_enhancer_model()
    slot = slot_for(model, [20e6], 20e6, [[0.0, 1.0]])
    fitness, raw, feasible = packed_fitness(
        Decision((0,), (1,)), slot, model, GaConfig()
    )
    assert feasible
    assert fitness == raw == 0.5


def test_fitness_latency_penalty_example():
    # excess 0.4 s against a 4 s deadline at weight 100 -> raw minus 10
    model = free_enhancer_model()
    slot = slot_for(model, [4.4e6], 1e6, [[0.0, 1.0]])
    fitness, raw, feasible = packed_fitness(
        Decision((0,), (0,)), slot, model, GaConfig()
    )
    assert not feasible
    assert raw == pytest.approx(-2.2, rel=1e-9)
    assert fitness == pytest.approx(raw - 10.0, rel=1e-9)


def test_fitness_capacity_penalty_example():
    # gpu load 10 on capacity 8: overload 2, normalized 0.25, weight 100 -> -25
    servers = (EdgeServer(8.0, 4.0),)
    profiles = (EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([5.0])),)
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    slot = slot_for(model, [0.0, 0.0], 20e6, [[0.0, 1.0], [0.0, 1.0]])
    fitness, raw, feasible = packed_fitness(
        Decision((0, 0), (1, 1)), slot, model, GaConfig()
    )
    assert not feasible
    assert fitness == pytest.approx(raw - 25.0, rel=1e-9)


def test_fitness_below_objective_when_infeasible():
    rng = np.random.default_rng(31)
    ga = GaConfig()
    seen_infeasible = 0
    for _ in range(300):
        model = make_model(rng, 3, 2, 2)
        slot = make_slot(rng, model)
        decision = random_decision(random.Random(int(rng.integers(1 << 30))), model)
        fitness, raw, feasible = packed_fitness(decision, slot, model, ga)
        if feasible:
            assert fitness == raw
        elif math.isfinite(raw):
            seen_infeasible += 1
            assert fitness < raw
        else:
            assert fitness == -math.inf
    assert seen_infeasible > 10


def test_fitness_is_pure():
    model, slot = small_instance(3)
    ga = GaConfig()
    decision = Decision((0, 1, 0, 1), (1, 0, 2, 1))
    first = packed_fitness(decision, slot, model, ga)
    second = packed_fitness(decision, slot, model, ga)
    assert first == second


# ---------------------------------------------------------- exact row sums

# mantissa times a power of two: magnitudes far enough apart that
# regrouping the additions changes the rounded total
mixed_magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 2.0**exponent,
    st.floats(-1.0, 1.0), st.integers(-60, 60),
)


def laid_out(rows, layout):
    x = np.array(rows, dtype=np.float64)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "transposed":
        return np.ascontiguousarray(x.T).T
    if layout == "strided":
        return np.repeat(x, 2, axis=0)[::2]
    return x


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 6)),
                 elements=mixed_magnitudes),
    layout=st.sampled_from(("C", "F", "transposed", "strided")),
)
def test_row_sum_adds_rows_one_after_the_next(x, layout):
    rows = x.tolist()
    got = _row_sum(laid_out(rows, layout))
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref_row_sum(rows)]


@pytest.mark.parametrize("cols,layout", [(1, "C"), (3, "F"), (3, "transposed")])
def test_row_sum_where_numpy_reduce_sums_pairwise(cols, layout):
    # 1 + 2**-53 rounds back to 1 at every step of the in-order sum; numpy's
    # pairwise sum along the fast axis first adds the small terms together
    rows = [[1.0] * cols] + [[2.0**-53] * cols] * 39
    x = laid_out(rows, layout)
    assert (np.add.reduce(x, axis=0) != 1.0).all()
    assert _row_sum(x).tolist() == ref_row_sum(rows) == [1.0] * cols


@pytest.mark.parametrize("cols,layout", [(1, "C"), (2, "C"), (2, "F"), (2, "strided")])
def test_row_sum_starts_from_zero(cols, layout):
    # 0.0 + -0.0 is 0.0, as in a loop that starts its total at 0.0
    rows = [[-0.0] * cols] * 3
    assert [v.hex() for v in _row_sum(laid_out(rows, layout)).tolist()] == ["0x0.0p+0"] * cols


# ------------------------------------------------------------- GA operator

def tagged_population(m_devices, size):
    """Code m * size + c sits at (m, c): a child's gene names its parent
    column (code % size) and the device it came from (code // size)."""
    return np.arange(m_devices * size).reshape(m_devices, size)


def child_counts(size, fits, calls, seed):
    """How often each column parents a child, over `calls` generations of a
    one-device tagged population without crossover or mutation."""
    pop = tagged_population(1, size)
    ga = GaConfig(crossover_prob=0.0, mutation_prob=0.0)
    rng = random.Random(seed)
    counts = Counter()
    for _ in range(calls):
        counts.update(next_generation(pop, fits, ga, rng, size)[0, 1:].tolist())
    return counts


def test_next_generation_keeps_the_best_in_column_0():
    rng = random.Random(2)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=1.0)
    for _ in range(500):
        m_devices, size = rng.randint(1, 6), rng.randint(1, 12)
        pop = np.array([[rng.randrange(9) for _ in range(size)] for _ in range(m_devices)])
        fits = [rng.choice([-math.inf, 0.0, 1.5, rng.random()]) for _ in range(size)]
        before = pop.copy()
        nxt = next_generation(pop, fits, ga, rng, 9)
        assert nxt.shape == pop.shape
        assert (pop == before).all()
        # the first column of the best fitness, gene for gene
        assert nxt[:, 0].tolist() == pop[:, fits.index(max(fits))].tolist()


def test_roulette_single_individual():
    # a lone column is its own elite: nothing is spun or drawn
    pop = np.array([[3], [1], [4]])
    rng = random.Random(1)
    state = rng.getstate()
    ga = GaConfig(crossover_prob=1.0, mutation_prob=1.0)
    assert next_generation(pop, [0.5], ga, rng, 6).tolist() == pop.tolist()
    assert rng.getstate() == state


def test_roulette_uniform_fallback_on_equal_fitness():
    # equal finite weights, or no finite one at all: every column alike
    draws = 20_000 * 3
    sigma = math.sqrt(draws * 0.25 * 0.75)
    for fitness, seed in ((0.0, 777), (-math.inf, 778)):
        counts = child_counts(4, [fitness] * 4, 20_000, seed)
        for col in range(4):
            assert abs(counts[col] - draws / 4) < 4 * sigma, (fitness, counts)


def test_roulette_ratio_tracks_shifted_weights():
    # shifted weights are {delta, 1 + delta, 3 + delta}: column 0 almost never
    # parents a child, and column 2 three times as often as column 1
    counts = child_counts(3, [1.0, 2.0, 4.0], 20_000, seed=4242)
    draws = 20_000 * 2
    sigma = math.sqrt(draws * 0.75 * 0.25)
    assert counts[0] <= 2
    assert abs(counts[2] - 0.75 * draws) < 4 * sigma, counts


def test_roulette_ignores_minus_inf():
    # equal finite fitnesses get the smallest weight the shift allows; -inf
    # still gets none
    pop = tagged_population(3, 4)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=0.0)
    rng = random.Random(5)
    for fits in ([-math.inf, 0.5, -math.inf, 0.5], [-math.inf, 0.5, -math.inf, 0.2]):
        for _ in range(1000):
            nxt = next_generation(pop, fits, ga, rng, 12)
            assert set((nxt % 4).reshape(-1).tolist()) <= {1, 3}


def test_crossover_identical_parents():
    pop = np.repeat(np.array([[2], [0], [5]]), 6, axis=1)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=0.0)
    rng = random.Random(0)
    for _ in range(200):
        fits = [rng.random() for _ in range(6)]
        assert next_generation(pop, fits, ga, rng, 6).tolist() == pop.tolist()


def test_crossover_two_devices_is_the_single_cut():
    # two devices have one cut, after device 0: a crossed child mixes two
    # parents, an uncrossed one copies a single parent
    size = 8
    pop = tagged_population(2, size)
    rng = random.Random(0)
    for prob in (0.0, 1.0):
        ga = GaConfig(crossover_prob=prob, mutation_prob=0.0)
        mixed = 0
        for _ in range(300):
            nxt = next_generation(pop, [1.0] * size, ga, rng, 2 * size)
            assert (nxt // size == [[0], [1]]).all()
            mixed += int(np.count_nonzero(nxt[0] % size != nxt[1] % size))
        if prob == 0.0:
            assert mixed == 0
        else:
            # distinct parents in about 7 of 8 of the 2100 children
            assert mixed > 1500


def test_crossover_genes_come_from_parents():
    m_devices, size = 4, 6
    pop = tagged_population(m_devices, size)
    ga = GaConfig(crossover_prob=0.8, mutation_prob=0.0)
    rng = random.Random(88)
    for _ in range(2000):
        fits = [rng.choice([-math.inf, rng.random()]) for _ in range(size)]
        nxt = next_generation(pop, fits, ga, rng, m_devices * size)
        # each gene is some parent's gene of the same device
        assert (nxt // size == np.arange(m_devices)[:, None]).all()


def test_crossover_prefix_suffix_structure():
    m_devices, size = 5, 7
    pop = tagged_population(m_devices, size)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=0.0)
    rng = random.Random(13)
    cuts_seen = set()
    for _ in range(500):
        fits = [rng.random() for _ in range(size)]
        for parents in (next_generation(pop, fits, ga, rng, m_devices * size) % size).T:
            # one cut: a run of genes from one parent, then a run from the other
            changes = np.flatnonzero(parents[1:] != parents[:-1])
            assert len(changes) <= 1
            cuts_seen.update((changes + 1).tolist())
    assert cuts_seen == {1, 2, 3, 4}


def test_mutate_single_point_space_noop():
    pop = np.zeros((3, 5), dtype=int)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=1.0)
    rng = random.Random(0)
    for _ in range(50):
        assert next_generation(pop, [0.0] * 5, ga, rng, 1).tolist() == pop.tolist()


def test_mutate_deterministic():
    rng = np.random.default_rng(6)
    pop = rng.integers(0, 12, (4, 9))
    fits = rng.normal(size=9).tolist()
    ga = GaConfig(crossover_prob=0.5, mutation_prob=0.5)
    first = next_generation(pop, fits, ga, random.Random(3), 12)
    assert first.tolist() == next_generation(pop, fits, ga, random.Random(3), 12).tolist()
    assert first.tolist() != next_generation(pop, fits, ga, random.Random(4), 12).tolist()


def test_mutate_changes_at_most_one_gene():
    # every column holds the same genome, so only mutation can change a gene
    size = 6
    pop = np.repeat(np.array([[0], [1], [2], [3]]), size, axis=1)
    ga = GaConfig(crossover_prob=1.0, mutation_prob=1.0)
    rng = random.Random(21)
    mutated = 0
    for _ in range(2000):
        fits = [rng.random() for _ in range(size)]
        changed = np.count_nonzero(next_generation(pop, fits, ga, rng, 8) != pop, axis=0)
        assert changed[0] == 0 and changed.max() <= 1
        mutated += int(changed.sum())
    # a redraw lands on the old code one time in eight
    assert mutated > 0.8 * 2000 * (size - 1)


# Each case names (devices, population, codes, fitnesses, crossover_prob,
# mutation_prob). Population, device and code counts sit on both sides of a
# power of two, where randrange's rejection loop starts or stops redrawing.
NEXT_GENERATION_CASES = {
    "all-minus-inf": (4, 6, 20, "-inf", 0.8, 0.1),
    "all-equal": (4, 6, 20, "equal", 0.8, 0.1),
    "some-minus-inf": (5, 9, 20, "mixed", 0.8, 0.1),
    "paper-default": (10, 50, 20, "random", 0.8, 0.1),
    "one-device": (1, 7, 20, "random", 1.0, 1.0),
    "one-individual": (3, 1, 20, "random", 1.0, 1.0),
    "never-cross-or-mutate": (6, 10, 20, "random", 0.0, 0.0),
    "always-cross-and-mutate": (6, 10, 20, "random", 1.0, 1.0),
    "cross-only": (6, 10, 20, "random", 1.0, 0.0),
    "mutate-only": (6, 10, 20, "random", 0.0, 1.0),
    "codes-1": (5, 5, 1, "random", 1.0, 1.0),
    "codes-2": (5, 5, 2, "random", 1.0, 1.0),
    "codes-8": (5, 5, 8, "random", 1.0, 1.0),
    "codes-9": (5, 5, 9, "random", 1.0, 1.0),
    "devices-2": (2, 8, 20, "random", 1.0, 1.0),
    "devices-4": (4, 8, 20, "random", 1.0, 1.0),
    "uniform-size-8": (3, 8, 20, "-inf", 1.0, 1.0),
    "uniform-size-9": (3, 9, 20, "-inf", 1.0, 1.0),
}


def case_fitnesses(kind, size, rng):
    if kind == "-inf":
        return [-math.inf] * size
    if kind == "equal":
        return [0.25] * size
    if kind == "mixed":
        return [rng.choice([-math.inf, rng.gauss(0.0, 1.0)]) for _ in range(size)]
    return [rng.gauss(0.0, 1.0) for _ in range(size)]


@pytest.mark.parametrize("case", sorted(NEXT_GENERATION_CASES))
def test_next_generation_matches_list_reference(case):
    # same children from the same draws, and the stream left where
    # random() and randrange() calls would leave it
    m_devices, size, num_codes, kind, px, pm = NEXT_GENERATION_CASES[case]
    ga = GaConfig(population_size=size, crossover_prob=px, mutation_prob=pm)
    inputs = random.Random(case)
    for seed in range(40):
        pop = np.array([[inputs.randrange(num_codes) for _ in range(size)]
                        for _ in range(m_devices)])
        fits = case_fitnesses(kind, size, inputs)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = next_generation(pop, fits, ga, rng, num_codes)
        want, _ = _ref_next_generation(pop.T.tolist(), fits, ga, ref_rng, num_codes,
                                       lambda genome: 0.0)
        assert got.T.tolist() == want, seed
        assert rng.getstate() == ref_rng.getstate(), seed


# ------------------------------------------------------------------- evolve

def test_evolve_single_point_space():
    servers = (EdgeServer(1.0, 1.0),)
    model = SystemModel((servers[0],), (), ModelConstants(num_devices=2))
    slot = SlotInput(
        datasize_bits=np.array([0.0, 0.0]),
        bandwidth_bps=np.ones((2, 1)),
        quality=np.zeros((2, 1)),
    )
    best, history = evolve(slot, model, GaConfig(population_size=4, generations=5))
    assert best.decision == Decision((0, 0), (0, 0))
    assert len(set(history)) == 1


def test_evolve_matches_oracle_on_tiny_instance():
    rng = np.random.default_rng(50)
    model = make_model(rng, 2, 2, 1)
    slot = make_slot(rng, model)
    best, _ = evolve(slot, model, GaConfig(rng_seed=9))
    oracle = brute_force(slot, model)
    assert best.fitness == pytest.approx(oracle.objective, abs=1e-12)


def test_evolve_deterministic():
    model, slot = small_instance(8)
    ga = GaConfig(rng_seed=123)
    best1, hist1 = evolve(slot, model, ga)
    best2, hist2 = evolve(slot, model, ga)
    assert best1 == best2
    assert hist1 == hist2


def test_evolve_seed_changes_search_path():
    model, slot = small_instance(9)
    _, hist1 = evolve(slot, model, GaConfig(rng_seed=1, generations=30))
    _, hist2 = evolve(slot, model, GaConfig(rng_seed=2, generations=30))
    # same optimum is fine; identical full histories would mean the seed is dead
    assert hist1 != hist2


def test_evolve_history_monotone():
    for seed in range(10):
        model, slot = small_instance(100 + seed)
        _, history = evolve(slot, model, GaConfig(rng_seed=seed + 1))
        assert len(history) == 100
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_evolve_final_matches_history_tail():
    model, slot = small_instance(11)
    best, history = evolve(slot, model)
    assert best.fitness == history[-1]


FIVE_SERVERS = ((2.0, 2.5), (2.5, 1.5), (1.5, 2.0), (1.0, 2.0), (2.0, 1.0))


def reachable_instance(num_devices, seed, capacities=FIVE_SERVERS):
    """Every link alive and every server runs every algorithm, so each genome
    has a finite fitness; some codes miss the deadline and pools overfill.
    Ten pools make a pairwise sum over them differ from a sequential one."""
    rng = np.random.default_rng(seed)
    num_servers = len(capacities)
    model = SystemModel(
        tuple(EdgeServer(gpu, cpu) for gpu, cpu in capacities),
        tuple(
            EnhancementProfile(k, kind, rng.uniform(2e-7, 2e-6, num_servers),
                               rng.uniform(1.0, 4.0, num_servers))
            for k, kind in ((1, KIND_GPU), (2, KIND_CPU))
        ),
        ModelConstants(num_devices=num_devices),
    )
    return model, make_slot(rng, model, dead_link_frac=0.0)


def conftest_instance(num_devices, seed):
    rng = np.random.default_rng(seed)
    model = make_model(rng, num_devices, 4, 4)
    return model, make_slot(rng, model)


EVOLVE_INSTANCES = {
    **{f"small-{s}": (lambda s=s: small_instance(s)) for s in range(3)},
    **{f"paper-{s}": (lambda s=s: paper_scale_instance(s)) for s in range(3)},
    "devices-1": lambda: conftest_instance(1, 61),
    "devices-2": lambda: conftest_instance(2, 62),
    "devices-30": lambda: reachable_instance(30, 63),
    # every genome holds an unreachable gene: the whole population is -inf
    "devices-300": lambda: conftest_instance(300, 64),
    # overloads on a zero-capacity pool are scaled by CAPACITY_EPS
    "zero-capacity": lambda: reachable_instance(6, 65, ((0.0, 6.0), (8.0, 0.0))),
}

EVOLVE_CONFIGS = (
    GaConfig(),
    GaConfig(population_size=1),
    GaConfig(generations=1),
    GaConfig(population_size=20, generations=30, crossover_prob=0.0, mutation_prob=0.0),
    GaConfig(population_size=20, generations=30, crossover_prob=1.0, mutation_prob=1.0,
             rng_seed=4),
    GaConfig(population_size=20, generations=30, penalty_capacity=0.0, rng_seed=5),
    GaConfig(population_size=20, generations=30, penalty_latency=0.0, rng_seed=6),
)


@pytest.mark.parametrize("case", sorted(EVOLVE_INSTANCES))
def test_evolve_matches_list_reference(case):
    model, slot = EVOLVE_INSTANCES[case]()
    for ga in EVOLVE_CONFIGS:
        best, history = evolve(slot, model, ga)
        decision, fitness, raw, feasible, ref_history = ref_evolve(slot, model, ga)
        assert best.decision == decision, ga
        assert best.fitness.hex() == fitness.hex(), ga
        assert best.raw_utility.hex() == raw.hex(), ga
        assert best.feasible == feasible, ga
        assert [h.hex() for h in history] == [h.hex() for h in ref_history], ga
    if case == "devices-300":
        assert history[-1] == -math.inf
    if case in ("devices-30", "zero-capacity"):
        assert math.isfinite(history[0])


# -------------------------------------------------------------- brute force

def test_brute_force_single_point():
    servers = (EdgeServer(1.0, 1.0),)
    model = SystemModel(
        (servers[0],), (), ModelConstants(num_devices=1, overhead_latency_s=0.0)
    )
    slot = SlotInput(
        datasize_bits=np.array([0.0]),
        bandwidth_bps=np.ones((1, 1)),
        quality=np.zeros((1, 1)),
    )
    res = brute_force(slot, model)
    assert res.enumerated == 1
    assert res.decision == Decision((0,), (0,))
    assert res.objective == 0.0


def test_brute_force_enumeration_count():
    rng = np.random.default_rng(60)
    model = make_model(rng, 3, 2, 2)
    slot = make_slot(rng, model)
    res = brute_force(slot, model)
    assert res.enumerated == 216  # (2 * 3) ** 3


def test_brute_force_limit():
    rng = np.random.default_rng(61)
    model = make_model(rng, 3, 2, 2)
    slot = make_slot(rng, model)
    with pytest.raises(SearchSpaceError):
        brute_force(slot, model, limit=100)


def test_brute_force_lexicographic_tie_break():
    # two identical servers, all-zero quality: every all-k=0 decision ties;
    # the reported optimum must be the lexicographically smallest genome
    servers = (EdgeServer(4.0, 4.0), EdgeServer(4.0, 4.0))
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1.0, 1.0]), np.array([1.0, 1.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=3))
    slot = SlotInput(
        datasize_bits=np.full(3, 1e6),
        bandwidth_bps=np.full((3, 2), 1e7),
        quality=np.zeros((3, 2)),
    )
    res = brute_force(slot, model)
    assert res.decision == Decision((0, 0, 0), (0, 0, 0))


def test_brute_force_prefers_passthrough_when_deadline_blocks_enhancement():
    # enhancement always blows the 4 s deadline; k=0 fits comfortably
    servers = (EdgeServer(8.0, 8.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([1e4]), np.array([1.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    quality = np.array([[0.0, 9.0], [0.0, 9.0]])
    slot = SlotInput(
        datasize_bits=np.full(2, 1e6),
        bandwidth_bps=np.full((2, 1), 1e7),
        quality=quality,
    )
    res = brute_force(slot, model)
    assert res.decision.algorithms == (0, 0)
    assert res.feasible_count == 1


def test_brute_force_counts_feasible():
    model, slot = small_instance(12)
    res = brute_force(slot, model)
    count = 0
    from itertools import product
    for genes in product(*[[(n, k) for n in range(2) for k in range(3)]] * 4):
        decision = Decision(
            tuple(g[0] for g in genes), tuple(g[1] for g in genes)
        )
        if check_feasibility(decision, slot, model).feasible:
            count += 1
    assert res.feasible_count == count


def test_brute_force_optimum_is_true_max():
    from itertools import product
    for seed in (13, 14, 15):
        model, slot = small_instance(seed)
        res = brute_force(slot, model)
        best = -math.inf
        for genes in product(*[[(n, k) for n in range(2) for k in range(3)]] * 4):
            decision = Decision(
                tuple(g[0] for g in genes), tuple(g[1] for g in genes)
            )
            if check_feasibility(decision, slot, model).feasible:
                best = max(best, objective(decision, slot, model))
        if res.decision is None:
            assert best == -math.inf
        else:
            assert res.objective == pytest.approx(best, abs=1e-12)


def exhaustive_reference(slot, model):
    """(first optimum, its objective, feasible count) by a plain loop.

    Every decision in lexicographic order: utilities add left to right,
    loads gene by gene, and both constraints compare with <=.
    """
    m_devices = model.num_devices
    genes = [(n, k) for n in range(model.num_servers)
             for k in range(model.num_algorithms + 1)]
    lmax = model.constants.max_latency_s
    weight = model.constants.latency_weight
    lat = [[ref_gene_latency(slot, model, m, n, k) for n, k in genes] for m in range(m_devices)]
    util = [[ref_utility(float(slot.quality[m, k]), lat[m][g], weight)
             for g, (n, k) in enumerate(genes)] for m in range(m_devices)]
    caps = {}
    for n, server in enumerate(model.servers):
        caps[(n, 0)] = server.gpu_capacity
        caps[(n, 1)] = server.cpu_capacity
    best, best_val, count = None, -math.inf, 0
    for vector in itertools.product(range(len(genes)), repeat=m_devices):
        if not all(lat[m][g] <= lmax for m, g in enumerate(vector)):
            continue
        loads = dict.fromkeys(caps, 0.0)
        total = 0.0
        for m, g in enumerate(vector):
            total += util[m][g]
            n, k = genes[g]
            if k:
                profile = model.profiles[k - 1]
                pool = 0 if profile.kind == KIND_GPU else 1
                loads[(n, pool)] += float(profile.service_rate[n])
        if all(loads[key] <= caps[key] for key in caps):
            count += 1
            if total > best_val:
                best, best_val = vector, total
    if best is None:
        return None, None, count
    decision = Decision(tuple(genes[g][0] for g in best),
                        tuple(genes[g][1] for g in best))
    return decision, objective(decision, slot, model), count


def oracle_case(servers, profiles, d, b, q, max_latency_s=4.0, overhead=0.05):
    """Model and slot from plain lists; profiles are (kind, demand, rate)."""
    model = SystemModel(
        tuple(EdgeServer(gpu, cpu) for gpu, cpu in servers),
        tuple(
            EnhancementProfile(k + 1, kind, np.asarray(demand, dtype=float),
                               np.asarray(rate, dtype=float))
            for k, (kind, demand, rate) in enumerate(profiles)
        ),
        ModelConstants(num_devices=len(d), overhead_latency_s=overhead,
                       latency_weight=0.5, max_latency_s=max_latency_s),
    )
    slot = SlotInput(datasize_bits=np.asarray(d, dtype=float),
                     bandwidth_bps=np.asarray(b, dtype=float),
                     quality=np.asarray(q, dtype=float))
    return model, slot


MIB = float(2**20)  # power-of-two sizes keep latencies exact

ORACLE_CASES = {
    # dead links and a server that cannot run algorithm 1: infinite latency
    "unreachable": lambda: oracle_case(
        [(8.0, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-6, 1e-6], [1.0, 0.0]), (KIND_CPU, [1e-6, 1e-6], [2.0, 2.0])],
        [1e6, 2e6, 1e6],
        [[1e7, 0.0], [0.0, 1e7], [1e7, 1e7]],
        [[0.0, 1.0, 0.8], [0.0, 0.5, 1.2], [0.0, 1.1, 0.9]],
    ),
    # device 0: (0, 0) and (1, 1) land exactly on the 4 s deadline, the
    # rest of its enhancing codes miss it
    "deadline": lambda: oracle_case(
        [(8.0, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [2.0**-22, 2.0**-21], [1.0, 1.0]),
         (KIND_CPU, [2.0**-20, 2.0**-20], [1.0, 1.0])],
        [4 * MIB, MIB, 3 * MIB],
        [[MIB, 2 * MIB], [8 * MIB, MIB], [MIB, MIB]],
        [[0.0, 2.0, 3.0], [0.0, 1.0, 0.5], [0.0, 1.5, 2.5]],
        overhead=0.0,
    ),
    # (0, 1) and (1, 2) each need more service than their pool holds
    "overfill": lambda: oracle_case(
        [(1.0, 4.0), (4.0, 4.0)],
        [(KIND_GPU, [1e-7, 1e-7], [2.0, 1.5]), (KIND_CPU, [1e-7, 1e-7], [1.0, 5.0])],
        [1e6, 1e6, 1e6],
        [[1e7, 1e7]] * 3,
        [[0.0, 3.0, 1.0], [0.0, 1.0, 3.0], [0.0, 2.0, 2.0]],
    ),
    # device 1 reaches no server at all
    "no-admissible": lambda: oracle_case(
        [(8.0, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-7, 1e-7], [1.0, 1.0])],
        [1e6, 1e6, 1e6],
        [[1e7, 1e7], [0.0, 0.0], [1e7, 1e7]],
        [[0.0, 1.0]] * 3,
    ),
    # three services 0.1, 0.2, 0.3 on one 0.6 pool: summed left to right,
    # only the orders (0.2, 0.3, 0.1) and (0.3, 0.2, 0.1) fit, exactly at it;
    # the optimum is the first of them
    "at-capacity": lambda: oracle_case(
        [(0.6, 1.0)],
        [(KIND_GPU, [1e-8], [0.1]), (KIND_GPU, [1e-8], [0.2]),
         (KIND_GPU, [1e-8], [0.3])],
        [1e6, 1e6, 1e6],
        [[1e7]] * 3,
        [[0.0, 1.0, 3.0, 1.0], [0.0, 1.0, 1.0, 3.0], [0.0, 3.0, 1.0, 1.0]],
    ),
    # identical servers and devices: every server permutation ties
    "ties": lambda: oracle_case(
        [(4.0, 4.0), (4.0, 4.0)],
        [(KIND_GPU, [1e-7, 1e-7], [1.0, 1.0])],
        [1e6] * 3,
        [[1e7, 1e7]] * 3,
        [[0.0, 1.0]] * 3,
    ),
    # M=6, N=2, K=2 with every code admissible: 6**6 decisions, so several
    # blocks of the enumeration, and pools that bind. Device 4's (1, 1) and
    # (1, 2) tie in exact arithmetic, so the optimum depends on adding the
    # utilities left to right
    "multi-block": lambda: oracle_case(
        [(0.7, 1.0), (1.2, 1.0)],
        [(KIND_GPU, [1e-8, 2e-8], [0.1, 0.2]), (KIND_GPU, [1e-8, 1e-8], [0.2, 0.3])],
        [1e6, 2e6, 1.5e6, 1e6, 3e6, 2e6],
        [[1e7, 2e7], [2e7, 1e7], [1e7, 1e7], [3e7, 1e7], [1e7, 3e7], [2e7, 2e7]],
        [[0.0, 1.2, 1.3], [0.0, 1.3, 0.5], [0.0, 0.5, 1.1],
         [0.0, 0.6, 1.4], [0.0, 1.2, 1.1], [0.0, 0.6, 0.7]],
        max_latency_s=10.0,
    ),
    # every pool slack: four devices at 1.0 each on 8.0 pools. Both
    # algorithms on both servers tie, so the walk must take (0, 1), or (1, 1)
    # for device 1, whose link to server 0 is dead
    "slack-ties": lambda: oracle_case(
        [(8.0, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-7, 1e-7], [1.0, 1.0]), (KIND_CPU, [1e-7, 1e-7], [1.0, 1.0])],
        [1e6] * 4,
        [[1e7, 1e7], [0.0, 1e7], [1e7, 1e7], [1e7, 0.0]],
        [[0.0, 1.0, 1.0]] * 4,
    ),
    # every pool slack; no data and no overhead make each utility its quality.
    # 0.3 + 1.0 and 0.30000000000000004 + 1.0 both round to 1.3, so the
    # first optimum takes device 0's smaller utility, not its argmax
    "slack-rounding-tie": lambda: oracle_case(
        [(8.0, 8.0)],
        [(KIND_GPU, [1e-7], [1.0]), (KIND_CPU, [1e-7], [1.0])],
        [0.0, 0.0],
        [[1e7], [1e7]],
        [[0.0, 0.3, 0.30000000000000004], [0.0, 1.0, 0.5]],
        overhead=0.0,
    ),
    # every pool slack, no data and no overhead. Device 1's utilities are
    # -0.0, 0.0 and -0.0; after the prefix 1.0 + -0.0 + 2.0, device 3's 0.3
    # and 0.30000000000000004 both round to 3.3, so the walk takes its
    # smaller utility late in the slot
    "slack-late-rounding-tie": lambda: oracle_case(
        [(8.0, 8.0)],
        [(KIND_GPU, [1e-7], [1.0]), (KIND_CPU, [1e-7], [1.0])],
        [0.0] * 5,
        [[1e7]] * 5,
        [[0.0, 1.0, 0.5], [-0.0, 0.0, -0.0], [0.0, 2.0, 0.25],
         [0.0, 0.3, 0.30000000000000004], [0.0, 0.7, 0.1]],
        overhead=0.0,
    ),
    # server 0's gpu pool holds one of the three 1.0 reservations; the other
    # three pools are slack, so only that pool is checked
    "one-live-pool": lambda: oracle_case(
        [(1.5, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-7, 1e-7], [1.0, 1.0]), (KIND_CPU, [1e-7, 1e-7], [1.0, 1.0])],
        [1e6] * 3,
        [[2e7, 1e7]] * 3,
        [[0.0, 1.5, 1.0], [0.0, 1.4, 1.2], [0.0, 1.3, 0.9]],
    ),
    # every pool slack; device 1 reaches only server 0, where enhancing its
    # 4e6 bits takes 4 s, so raw shipping is its only admissible code
    "slack-raw-only": lambda: oracle_case(
        [(8.0, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-6, 1e-6], [1.0, 1.0])],
        [1e6, 4e6, 1e6],
        [[1e7, 1e7], [1e7, 0.0], [1e7, 2e7]],
        [[0.0, 1.0], [0.0, 3.0], [0.0, 0.8]],
    ),
    # one device; its code (0, 1) overfills server 0's gpu pool alone, and
    # once it is dropped every pool is slack
    "m1": lambda: oracle_case(
        [(0.5, 8.0), (8.0, 8.0)],
        [(KIND_GPU, [1e-7, 1e-7], [1.0, 1.0]), (KIND_CPU, [1e-7, 1e-7], [2.0, 1.0])],
        [1e6],
        [[1e7, 5e6]],
        [[0.0, 1.2, 1.1]],
    ),
}

# the cases where no pool can overfill, which brute_force solves without
# enumerating
SLACK_CASES = {"unreachable", "deadline", "ties", "slack-ties", "slack-rounding-tie",
               "slack-late-rounding-tie", "slack-raw-only", "m1"}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_brute_force_matches_exhaustive_reference(case):
    model, slot = ORACLE_CASES[case]()
    decision, objective_value, count = exhaustive_reference(slot, model)
    res = brute_force(slot, model)
    assert res.decision == decision
    assert res.objective == objective_value
    assert res.feasible_count == count
    num_codes = model.num_servers * (model.num_algorithms + 1)
    assert res.enumerated == num_codes**model.num_devices
    if case == "no-admissible":
        assert res.decision is None and res.feasible_count == 0
    if case == "at-capacity":
        assert server_loads(res.decision, model)[0, 0] == 0.6


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_case_skips_enumeration_exactly_when_every_pool_is_slack(case, monkeypatch):
    calls = []
    closed_form = sched_module._separable_optimum
    monkeypatch.setattr(sched_module, "_separable_optimum",
                        lambda *args: calls.append(args) or closed_form(*args))
    model, slot = ORACLE_CASES[case]()
    brute_force(slot, model)
    assert bool(calls) == (case in SLACK_CASES)


def test_separable_walk_takes_the_first_optimum_past_a_late_tie():
    model, slot = ORACLE_CASES["slack-late-rounding-tie"]()
    util = _utility_from_latency(latency_table(slot, model), slot.quality[:, None, :], model)
    assert [math.copysign(1.0, u) for u in util[1, 0].tolist()] == [-1.0, 1.0, -1.0]
    res = brute_force(slot, model)
    # device 1's first code and device 3's smaller tied utility
    assert res.decision.algorithms == (1, 0, 1, 1, 1)
    assert res.objective == 4.0


def test_oracle_limit_counts_the_full_space_when_every_pool_is_slack():
    model, slot = ORACLE_CASES["slack-ties"]()
    assert brute_force(slot, model, limit=6**4).enumerated == 6**4
    with pytest.raises(SearchSpaceError):
        brute_force(slot, model, limit=6**4 - 1)


@st.composite
def oracle_instances(draw):
    """M <= 4, N <= 2, K <= 2 from small value sets, so loads land exactly on
    capacity, latencies on the deadline and utilities on each other. One
    draw in three makes every pool ample, and one link in five is dead."""
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    ample = draw(st.sampled_from([False, False, True]))
    caps = st.just(100.0) if ample else st.sampled_from([1.0, 2.0, 0.5, 0.0])
    servers = [draw(st.tuples(caps, caps).filter(any)) for _ in range(n)]
    profiles = [
        (draw(st.sampled_from([KIND_GPU, KIND_CPU])),
         [draw(st.sampled_from([1e-7, 1e-6, 3e-6])) for _ in range(n)],
         [draw(st.sampled_from([1.0, 0.5, 2.0, 0.0])) for _ in range(n)])
        for _ in range(k)
    ]
    step = draw(st.sampled_from([None, 0.25, 0.5]))
    quality = (st.floats(0.0, 3.0) if step is None
               else st.integers(0, 12).map(lambda i: i * step))
    return oracle_case(
        servers, profiles,
        [draw(st.sampled_from([1e6, 5e5, 2e6, 0.0])) for _ in range(m)],
        [[draw(st.sampled_from([1e7, 1e6, 2e6, 1e7, 0.0])) for _ in range(n)] for _ in range(m)],
        [[0.0] + [draw(quality) for _ in range(k)] for _ in range(m)],
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle_instances())
def test_brute_force_matches_exhaustive_reference_on_random_instances(instance):
    model, slot = instance
    decision, objective_value, count = exhaustive_reference(slot, model)
    res = brute_force(slot, model)
    assert res.decision == decision
    assert (res.objective is None) == (objective_value is None)
    if objective_value is not None:
        assert res.objective.hex() == objective_value.hex()
    assert res.feasible_count == count


def same_bits(got, want):
    """Equal to the last bit: arrays by dtype, shape and bytes, floats by hex."""
    if isinstance(want, np.ndarray):
        return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_instances(), st.data())
def test_a_shared_latency_table_changes_no_answer(instance, data):
    # the simulator builds one table a slot and hands it to the scheduler and
    # the scorer; each of them builds the same table when given none
    model, slot = instance
    lat = latency_table(slot, model)
    decision = Decision(
        [data.draw(st.integers(0, model.num_servers - 1)) for _ in range(model.num_devices)],
        [data.draw(st.integers(0, model.num_algorithms)) for _ in range(model.num_devices)],
    )
    pairs = [(check_feasibility(decision, slot, model, lat),
              check_feasibility(decision, slot, model)),
             (brute_force(slot, model, lat=lat), brute_force(slot, model))]

    ga = GaConfig(population_size=data.draw(st.integers(1, 8)),
                  generations=data.draw(st.integers(1, 4)),
                  rng_seed=data.draw(st.integers(0, 99)))
    (shared, shared_history), (own, own_history) = (
        evolve(slot, model, ga, lat), evolve(slot, model, ga))
    assert shared.decision == own.decision
    assert same_bits(shared.fitness, own.fitness)
    assert [f.hex() for f in shared_history] == [f.hex() for f in own_history]
    pairs.append((shared.report, own.report))
    for got, want in pairs:
        for field in dataclasses.fields(want):
            assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name
    assert not lat.flags.writeable


# ---------------------------------------------------------------- baselines

def test_capacity_baseline_ample_capacity_takes_argmax_q():
    servers = (EdgeServer(100.0, 100.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([1.0])),
        EnhancementProfile(2, KIND_CPU, np.array([0.0]), np.array([1.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=3))
    quality = np.array([
        [0.0, 0.9, 0.3],
        [0.0, 0.1, 0.8],
        [0.0, 0.2, 0.6],
    ])
    slot = SlotInput(
        datasize_bits=np.full(3, 1e6),
        bandwidth_bps=np.full((3, 1), 1e7),
        quality=quality,
    )
    res = baseline_capacity(slot, model)
    assert res.decision.algorithms == (1, 2, 2)
    assert res.rejected == frozenset()


def test_capacity_baseline_hand_traced_contention():
    # both devices prefer algorithm 1 (gpu, rate 5); the pool fits only one.
    # device 0 books server 0; device 1 finds no residual and is rejected.
    servers = (EdgeServer(5.0, 100.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([5.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    quality = np.array([[0.0, 0.9], [0.0, 0.9]])
    slot = SlotInput(
        datasize_bits=np.full(2, 1e6),
        bandwidth_bps=np.full((2, 1), 1e7),
        quality=quality,
    )
    res = baseline_capacity(slot, model)
    assert res.decision.algorithms[0] == 1
    assert res.rejected == frozenset({1})
    assert res.decision.algorithms[1] == 0


def test_capacity_baseline_zero_capacity_rejects_enhancers():
    # the only pool that backs the preferred algorithm has zero room
    servers = (EdgeServer(0.0, 10.0),)
    profiles = (
        EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([0.0])),
    )
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    quality = np.array([[0.0, 0.9], [0.0, 0.0]])
    slot = SlotInput(
        datasize_bits=np.full(2, 1e6),
        bandwidth_bps=np.full((2, 1), 1e7),
        quality=quality,
    )
    res = baseline_capacity(slot, model)
    # device 0 wants k=1 but nothing can host it; device 1's argmax is k=0
    assert res.rejected == frozenset({0})
    assert res.decision.algorithms == (0, 0)


def test_no_enhancement_baseline_picks_max_bandwidth():
    model, _ = small_instance(16)
    slot = SlotInput(
        datasize_bits=np.full(4, 1e6),
        bandwidth_bps=np.array([
            [1e6, 9e6],
            [8e6, 2e6],
            [5e6, 5e6],   # tie -> smallest index
            [3e6, 7e6],
        ]),
        quality=np.zeros((4, 3)),
    )
    decision = baseline_no_enhancement(slot, model)
    assert decision.servers == (1, 0, 0, 1)
    assert decision.algorithms == (0, 0, 0, 0)


def test_no_enhancement_baseline_matches_restricted_enumeration():
    for seed in (17, 18, 19):
        model, slot = small_instance(seed)
        decision = baseline_no_enhancement(slot, model)
        util = _utility_from_latency(
            latency_table(slot, model), slot.quality[:, None, :], model
        )
        got = objective(decision, slot, model)
        best = util[:, :, 0].max(axis=1).sum()
        if math.isinf(got):
            assert math.isinf(best)
        else:
            assert got == pytest.approx(best, abs=1e-12)


def test_baseline_decisions_are_structurally_valid():
    rng = np.random.default_rng(70)
    for _ in range(50):
        model = make_model(rng, 4, 3, 3)
        slot = make_slot(rng, model)
        cap = baseline_capacity(slot, model)
        noe = baseline_no_enhancement(slot, model)
        for decision in (cap.decision, noe):
            decision.validate_against(model)
            assert decision.num_devices == 4


# --------------------------------------------------------------- ga config

def test_ga_config_validation():
    with pytest.raises(ValidationError):
        GaConfig(population_size=0)
    with pytest.raises(ValidationError):
        GaConfig(generations=0)
    with pytest.raises(ValidationError):
        GaConfig(crossover_prob=1.5)
    with pytest.raises(ValidationError):
        GaConfig(mutation_prob=-0.1)
    with pytest.raises(ValidationError):
        GaConfig(penalty_capacity=-1.0)
