"""End-to-end runs on one synthetic trace, all four schedulers compared.

Generates a 20-slot CAM trace for 5 devices, runs the GA, the exhaustive
oracle, the capacity heuristic and the no-enhancement fallback over it,
and prints the summary table plus a few per-slot rows.
"""

import numpy as np

from camsched.sim import SynthSpec, generate_synthetic, run
from camsched.sysmodel import (
    EdgeServer,
    EnhancementProfile,
    KIND_CPU,
    KIND_GPU,
    ModelConstants,
    SystemModel,
)

rng = np.random.default_rng(21)
servers = tuple(
    EdgeServer(float(rng.uniform(8, 14)), float(rng.uniform(8, 14)))
    for _ in range(3)
)
profiles = tuple(
    EnhancementProfile(kind, rng.uniform(5e-8, 4e-7, 3), rng.uniform(2.5, 4.0, 3))
    for kind in (KIND_GPU, KIND_CPU, KIND_GPU)
)
model = SystemModel(servers, profiles, ModelConstants(num_devices=5))

spec = SynthSpec(num_devices=5, num_servers=3, num_algorithms=3,
                 horizon=20, offsets=(0.3, 0.2, 0.1), seed=21)
trace = generate_synthetic(spec)
print(f"trace: {len(trace.slots)} slots, {trace.num_devices} devices, "
      f"{trace.num_servers} servers, {trace.num_algorithms} algorithms")

results = {}
for name in ("oracle", "ga", "capacity", "none"):
    metrics, summary = run(trace, model, scheduler=name)
    results[name] = (metrics, summary)

print(f"\n{'scheduler':>10} {'mean utility':>13} {'p95 latency':>12} "
      f"{'feasible':>9} {'ms/slot':>8}")
for name, (metrics, summary) in results.items():
    print(f"{name:>10} {summary.mean_total_utility:>13.4f} "
          f"{summary.p95_latency_s:>12.3f} {summary.feasible_rate:>9.2f} "
          f"{summary.mean_scheduler_seconds * 1e3:>8.2f}")

print("\nfirst slots, GA vs oracle total utility:")
ga_metrics = results["ga"][0]
oracle_metrics = results["oracle"][0]
for t in range(5):
    g = ga_metrics[t]
    o = oracle_metrics[t]
    mark = "match" if abs(g.total_utility - o.total_utility) < 1e-9 else "below"
    print(f"  slot {t}: ga {g.total_utility:.4f}  oracle {o.total_utility:.4f}  {mark}")

# The accuracy feedback in the trace nudges the assessment over time, so
# per-device quality drifts between slots even for a fixed algorithm.
q0 = [m.qualities[0] for m in ga_metrics[:8]]
print("\ndevice 0 assessed quality over the first 8 slots:")
print("  " + "  ".join(f"{q:.3f}" for q in q0))
