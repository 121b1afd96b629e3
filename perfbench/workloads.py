"""Benchmark workloads: a config document and a trace generator per name.

Every input is a function of the workload seed. The program receives only
the generated config text and trace; the seed never reaches it any other way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from camsched import sim


GA_SEED = 1   # camsched's default


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str               # the layer that carries most of each slot
    devices: int
    scheduler: str
    synth: dict = field(default_factory=dict)
    cam_trace: bool = True   # False: the benchmark draws a quality-matrix trace

    def config_text(self, seed: int) -> str:
        # the seed makes the inputs; the GA keeps its default seed, like any
        # other solver setting, so runs differ in what they solve, not how
        doc = {"devices": self.devices, "seed": seed, "scheduler": self.scheduler,
               "ga": {"seed": GA_SEED}}
        if self.synth:
            doc["synth"] = self.synth
        return json.dumps(doc, sort_keys=True)

    def generate(self, cfg, seed: int) -> sim.Trace:
        # looked up through the module at call time so a traced run sees it
        if self.cam_trace:
            return sim.generate_synthetic(cfg.synth)
        return quality_trace(cfg, seed)


def quality_trace(cfg, seed: int) -> sim.Trace:
    """Quality-matrix trace: no CAMs, so camq does nothing on it.

    Each device's chunk has a scene difficulty drawn afresh every slot;
    algorithm k scores in proportion to its configured brightness offset,
    with +/-10% noise, so stronger enhancement is worth more but costs more
    latency.
    """
    rng = np.random.default_rng([seed, 0x5157])
    m, n, k = cfg.num_devices, len(cfg.servers), len(cfg.algorithms)
    offsets = np.asarray(cfg.synth.offsets, dtype=np.float64)
    ratio = (offsets / offsets.max())[None, :]
    slots = []
    for _ in range(cfg.synth.horizon):
        quality = np.zeros((m, k + 1))
        scene = rng.uniform(1.0, 3.0, size=(m, 1))
        quality[:, 1:] = scene * ratio * rng.uniform(0.9, 1.1, size=(m, k))
        slots.append(
            sim.SlotData(
                datasize_bits=rng.uniform(*cfg.synth.datasize_bits, size=m),
                bandwidth_bps=rng.uniform(*cfg.synth.bandwidth_bps, size=(m, n)),
                quality=quality,
            )
        )
    return sim.Trace(m, n, k, tuple(slots))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-m10",
            why="the paper's default setting (M=10, 16x16 CAMs, GA 50x100): GA evolve "
            "carries each slot, camq runs on many small maps",
            loads="sched",
            devices=10,
            scheduler="ga",
        ),
        Workload(
            name="fleet-m300",
            why="M=300 quality-matrix trace, default GA: evolve plus O(M^2) sysmodel "
            "accounting carry each slot, no CAMs; the GA fails most device-slots here",
            loads="sched+sysmodel",
            devices=300,
            scheduler="ga",
            synth={"horizon": 5},
            cam_trace=False,
        ),
        Workload(
            name="cam-assess",
            why="4 devices with 64x64 CAMs and scheduler none: camq carries each slot, "
            "CAM file writes and reads carry the pipeline and set-up",
            loads="camq+fileio",
            devices=4,
            scheduler="none",
            synth={"cam_rows": 64, "cam_cols": 64, "horizon": 10},
        ),
        Workload(
            name="oracle-m4",
            why="M=4 quality-matrix trace, oracle scheduler (20^4 decisions a slot): "
            "the only workload that runs brute_force",
            loads="sched.brute_force",
            devices=4,
            scheduler="oracle",
            synth={"horizon": 20},
            cam_trace=False,
        ),
    )
}
