"""Genetic search against the exhaustive optimum on one small slot.

M=4 devices, N=2 servers, K=2 algorithms: 1296 candidate assignments, so
brute force is instant and the GA's convergence can be judged against the
true optimum.
"""

import numpy as np

from camsched.sched import (
    GaConfig,
    baseline_capacity,
    baseline_no_enhancement,
    brute_force,
    evolve,
    objective,
)
from camsched.sysmodel import (
    EdgeServer,
    EnhancementProfile,
    KIND_CPU,
    KIND_GPU,
    ModelConstants,
    SlotInput,
    SystemModel,
)

rng = np.random.default_rng(17)
servers = (EdgeServer(10.0, 9.0), EdgeServer(9.5, 11.0))
profiles = (
    EnhancementProfile(KIND_GPU, rng.uniform(0.5e-6, 5e-6, 2), rng.uniform(2.3, 3.8, 2)),
    EnhancementProfile(KIND_CPU, rng.uniform(0.5e-6, 5e-6, 2), rng.uniform(2.3, 3.8, 2)),
)
model = SystemModel(servers, profiles, ModelConstants(num_devices=4))

quality = np.abs(rng.normal(0.8, 0.5, (4, 3))) + 0.3
quality[:, 0] = 0.0
slot = SlotInput(
    datasize_bits=rng.uniform(0.8e6, 2e6, 4),
    bandwidth_bps=rng.uniform(4e6, 2e7, (4, 2)),
    quality=quality,
)

oracle = brute_force(slot, model)
print(f"oracle: enumerated {oracle.enumerated} assignments, "
      f"{oracle.feasible_count} feasible, optimum {oracle.objective:.6f}")
print(f"oracle decision: servers {oracle.decision.servers} "
      f"algorithms {oracle.decision.algorithms}")

best, history = evolve(slot, model, GaConfig(rng_seed=17))
print(f"\nGA best: fitness {best.fitness:.6f} feasible {best.feasible}")
print(f"GA decision:     servers {best.decision.servers} "
      f"algorithms {best.decision.algorithms}")
gap = oracle.objective - best.raw_utility
print(f"gap to optimum: {gap:.2e}")

print("\nconvergence (generation: best fitness so far):")
for g in (0, 1, 2, 4, 8, 16, 32, 64, 99):
    print(f"  {g:>3}: {history[g]:.6f}")

# The baselines bracket the GA from below.
cap = baseline_capacity(slot, model)
none = baseline_no_enhancement(slot, model)
print(f"\ncapacity baseline objective:       {objective(cap.decision, slot, model):.6f}"
      f" (rejected {sorted(cap.rejected) or 'none'})")
print(f"no-enhancement baseline objective: {objective(none, slot, model):.6f}")
