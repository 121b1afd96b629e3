"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written the slow, obvious way: explicit
Python loops over matrix cells, no vectorization, no shared helpers from
the package under test (ref_evolve takes the slot's latency table and final
scoring from it, see there; the slot-stage references take the per-pair camq
API, see there). If camsched and these disagree, camsched is wrong.
"""

import bisect
import itertools
import math
import random

import numpy as np

from camsched import camq
from camsched.sched import objective
from camsched.sysmodel import check_feasibility, latency_table


def ref_cam_difference(enhanced_rows, lowlight_rows):
    total = 0.0
    for r_e, r_l in zip(enhanced_rows, lowlight_rows):
        for e, l in zip(r_e, r_l):
            total += e - l
    return total


def ref_filter(rows, threshold):
    out = []
    for row in rows:
        out.append([v if v > threshold else 0.0 for v in row])
    return out


def ref_filtered_difference(enhanced_rows, lowlight_rows, threshold):
    return ref_cam_difference(ref_filter(enhanced_rows, threshold),
                              ref_filter(lowlight_rows, threshold))


def ref_temporal_variation(current_rows, history, floor):
    total = 0.0
    for past_rows in history:
        for r_c, r_p in zip(current_rows, past_rows):
            for c, p in zip(r_c, r_p):
                total += abs(c - p)
    return max(total, floor)


def ref_quality(accuracy, filtered_diff, variation, cap):
    q = accuracy * filtered_diff / variation
    return max(-cap, min(cap, q))


# The slot stages as per-pair loops: every (device, algorithm) pair filters
# its own maps through camq.enhancement_quality, and the commit filters each
# enhanced map again. They check how sim orchestrates a slot (one filter per
# map, the same filtered maps committed); the quality formula itself is
# checked against ref_quality.

def ref_assess_quality(trace, slot, state, threshold):
    if slot.quality is not None:
        return slot.quality
    k = trace.num_algorithms
    q = np.zeros((trace.num_devices, k + 1))
    for m in range(trace.num_devices):
        for alg in range(1, k + 1):
            q[m, alg] = camq.enhancement_quality(
                state, m, alg, slot.enhanced[m][alg - 1], slot.lowlight[m], threshold
            )
    return q


def ref_commit_windows(trace, slot, state, decision, rejected, threshold):
    if slot.lowlight is not None:
        for m in range(trace.num_devices):
            for alg in range(1, trace.num_algorithms + 1):
                filtered = camq.filter_cam(slot.enhanced[m][alg - 1], threshold)
                camq.commit_slot(state, m, alg, filtered)
    if slot.accuracy is not None and decision is not None:
        for m in range(trace.num_devices):
            if m in rejected:
                continue
            camq.record_accuracy(state, m, float(slot.accuracy[m, decision.algorithms[m]]))


def ref_transmission(d, b):
    if d == 0:
        return 0.0
    if b == 0:
        return math.inf
    return d / b


def ref_enhancement(phi, d, s):
    if s == 0:
        return math.inf
    return phi * d / s


def ref_device_latency(d, b, k, phi, s, overhead):
    # transmission plus overhead first, as the model specifies, so a gene's
    # latency is its no-enhancement latency plus the enhancement time exactly
    lt = ref_transmission(d, b)
    le = 0.0 if k == 0 else ref_enhancement(phi, d, s)
    return (lt + overhead) + le


def ref_gene_latency(slot, model, m, n, k):
    """ref_device_latency of device m on server n running algorithm k."""
    if k == 0:
        phi, s = 0.0, 1.0
    else:
        profile = model.profiles[k - 1]
        phi = float(profile.demand_per_bit[n])
        s = float(profile.service_rate[n])
    return ref_device_latency(float(slot.datasize_bits[m]), float(slot.bandwidth_bps[m, n]),
                              k, phi, s, model.constants.overhead_latency_s)


def ref_utility(q, latency, weight):
    if math.isinf(latency):
        return -math.inf
    return q - weight * latency


def ref_server_loads(genes, model):
    """(server, pool) -> reserved service, summed gene by gene."""
    loads = {}
    for n, k in genes:
        if k == 0:
            continue
        profile = model.profiles[k - 1]
        pool = 0 if profile.kind == "gpu" else 1
        key = (n, pool)
        loads[key] = loads.get(key, 0.0) + float(profile.service_rate[n])
    return loads


def ref_capacity_ok(genes, model):
    loads = ref_server_loads(genes, model)
    for (n, pool), load in loads.items():
        srv = model.servers[n]
        cap = srv.gpu_capacity if pool == 0 else srv.cpu_capacity
        if load > cap:
            return False
    return True


def ref_latency_ok(genes, slot, model):
    for m, (n, k) in enumerate(genes):
        if ref_gene_latency(slot, model, m, n, k) > model.constants.max_latency_s:
            return False
    return True


def ref_feasible(genes, slot, model):
    return ref_capacity_ok(genes, model) and ref_latency_ok(genes, slot, model)


def ref_objective(genes, slot, model):
    total = 0.0
    for m, (n, k) in enumerate(genes):
        lat = ref_gene_latency(slot, model, m, n, k)
        u = ref_utility(float(slot.quality[m, k]), lat, model.constants.latency_weight)
        if u == -math.inf:
            return -math.inf
        total += u
    return total


# ------------------------------------------------------- list-based GA
#
# The genetic search scored genome by genome: one Python loop per genome
# over per-device lists, and an untouched copy of a parent reusing that
# parent's cached fitness. It shares the slot's latency
# table and code flattening with the package (both have their own tests)
# and is otherwise self-contained, so sched.evolve must match it bit for bit.

_REF_CAPACITY_EPS = 1e-9
_REF_SELECTION_SHIFT = 1e-9


def _ref_selection_weights(fitnesses):
    finite = [f for f in fitnesses if not math.isinf(f)]
    if not finite:
        return None
    lowest = min(finite)
    shift = _REF_SELECTION_SHIFT * (1.0 + abs(lowest))
    return [0.0 if math.isinf(f) else f - lowest + shift for f in fitnesses]


def _ref_spin(cum, total, size, rng):
    if cum is None or total <= 0.0:
        return rng.randrange(size)
    idx = bisect.bisect_right(cum, rng.random() * total)
    return min(idx, size - 1)


class _RefSlotTables:
    def __init__(self, slot, model, ga):
        load_slot, service = model.code_loads
        self.num_devices = model.num_devices
        self.num_codes = len(load_slot)

        lat = latency_table(slot, model)
        util = np.where(np.isinf(lat), -np.inf,
                        slot.quality[:, None, :] - model.constants.latency_weight * lat)
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
        self.inv_caps = [1.0 / max(c, _REF_CAPACITY_EPS) for c in self.caps]
        self.lam_cap = ga.penalty_capacity

    def fitness(self, genome):
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


def _ref_next_generation(pop, fits, ga, rng, num_codes, fitness):
    """The next list population (one genome per individual) and its
    fitnesses. A child that copies a parent untouched reuses the parent's
    fitness; every other child is scored by `fitness`."""
    size = len(pop)
    m_devices = len(pop[0])
    best_idx = max(range(size), key=fits.__getitem__)
    weights = _ref_selection_weights(fits)
    if weights is None:
        cum, total = None, 0.0
    else:
        cum = list(itertools.accumulate(weights))
        total = cum[-1]
    next_pop = [pop[best_idx]]
    next_fits = [fits[best_idx]]
    for _ in range(size - 1):
        i1 = _ref_spin(cum, total, size, rng)
        i2 = _ref_spin(cum, total, size, rng)
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
            next_fits.append(fitness(child))
        else:
            next_pop.append(pop[i1])
            next_fits.append(fits[i1])
    return next_pop, next_fits


def ref_evolve(slot, model, ga):
    """(decision, fitness, raw utility, feasible, history) of the list GA."""
    rng = random.Random(ga.rng_seed)
    tables = _RefSlotTables(slot, model, ga)
    m_devices = tables.num_devices
    num_codes = tables.num_codes

    pop = [
        [rng.randrange(num_codes) for _ in range(m_devices)]
        for _ in range(ga.population_size)
    ]
    fits = [tables.fitness(g) for g in pop]
    history = []

    for _ in range(ga.generations):
        history.append(max(fits))
        pop, fits = _ref_next_generation(pop, fits, ga, rng, num_codes, tables.fitness)

    best_idx = max(range(len(fits)), key=fits.__getitem__)
    decision = model.decode(pop[best_idx])
    raw = objective(decision, slot, model)
    feasible = check_feasibility(decision, slot, model).feasible
    return decision, fits[best_idx], raw, feasible, history


def ref_row_sum(rows):
    """Column totals of a list of equal-length rows: each column starts
    from 0.0 and adds its rows one after the next."""
    totals = [0.0] * len(rows[0])
    for row in rows:
        for j, value in enumerate(row):
            totals[j] += value
    return totals
