"""One benchmark run of one workload: closed-loop pipeline passes, the
correctness gate, and the end-to-end or per-layer metrics.

A pass is the whole user pipeline for one trace: generate -> save_trace ->
load_trace -> run_slot for every slot -> summarize -> emit_metrics. One
process, one thread: each slot starts only after run_slot returned for the
previous one, and passes follow each other back to back until the time is up.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from camsched import cli, config, fileio, sched, sim
from camsched.sysmodel import SlotInput

import tracing
from workloads import Workload

MIN_PASSES = 2   # repeats the byte-identity check can compare

# (metric, unit, better) of the end-to-end metrics, in the order printed.
# On a shared 2-vCPU virtual machine the CPU speed switches between regimes
# about 1.7x apart, each lasting seconds to minutes, so the median of a 25 s
# run lands in whichever regime held most of it and moved 25-50% from run to
# run; the 90th percentile sits in the slow regime, which nearly every run
# visits, and moved about 10%. Timings are therefore gated as p90; the
# medians go to the result document and the table. setup_s is a median by
# definition.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_p90_s", "s", "lower"),
    ("slot_p90_ms", "ms", "lower"),
    ("success_rate", "ratio", "higher"),
    ("utility_above_floor", "utility", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class PassResult:
    pipeline_s: float
    setup_s: float
    slot_s: list[float]
    device_slots: int
    failed_device_slots: int
    served_utility: float       # summed over device-slots that did not fail
    reasons: list[int]          # device-slots per FAIL_REASONS entry
    gate_failures: list[str]
    trace_bytes: int
    traced: bool


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


FAIL_REASONS = ("unreachable", "late", "rejected", "overloaded")


def _account(metrics: sim.SlotMetrics, model) -> list[tuple[bool, ...]]:
    """Per device, which failure reasons hold, by the benchmark's own rules:
    unreachable route, over the deadline, rejected, or placed on a (server,
    pool) the decision overloads. A device-slot fails if any holds."""
    service, pools, caps = model.service_matrix, model.pool_index, model.capacity_matrix
    genes = metrics.decision.genes()
    loads = np.zeros_like(caps)
    for n, k in genes:   # device order, as sysmodel.server_loads adds them
        if k:
            loads[n, pools[k]] += service[n, k]
    lmax = model.constants.max_latency_s
    return [
        (
            math.isinf(lat),
            math.isfinite(lat) and lat > lmax,
            m in metrics.rejected,
            k != 0 and loads[n, pools[k]] > caps[n, pools[k]],
        )
        for m, ((n, k), lat) in enumerate(zip(genes, metrics.latencies))
    ]


def _check_oracle(metrics: sim.SlotMetrics, slot: sim.SlotData, model) -> str | None:
    inp = SlotInput(slot.datasize_bits, slot.bandwidth_bps, slot.quality)
    best = sched.objective(metrics.decision, inp, model)
    raw = sched.objective(sched.baseline_no_enhancement(inp, model), inp, model)
    if metrics.total_utility != best:
        return f"slot {metrics.slot}: stored utility {metrics.total_utility} != objective {best}"
    if best < raw:
        return f"slot {metrics.slot}: oracle objective {best} below raw shipping {raw}"
    return None


def run_pass(wl: Workload, cfg_text: str, seed: int, work: Path, ref: bytes,
             tracer: tracing.Tracer | None = None, slot_base: int = 0) -> PassResult:
    trace_dir, out = work / "trace", work / "metrics.jsonl"
    shutil.rmtree(trace_dir, ignore_errors=True)
    started = perf_counter()
    trace = wl.generate(config.parse_config(cfg_text), seed)
    manifest = fileio.save_trace(trace, str(trace_dir))
    del trace
    setup_started = perf_counter()
    cfg = config.parse_config(cfg_text)
    model = config.build_model(cfg)
    state = config.build_quality_state(cfg)
    loaded = fileio.load_trace(manifest)
    setup_s = perf_counter() - setup_started
    slot_s, metrics = [], []
    for t in range(loaded.horizon):
        if tracer is not None:
            tracer.slot = slot_base + t
        t0 = perf_counter()
        metrics.append(sim.run_slot(t, loaded, state, model, cfg.scheduler, cfg.ga,
                                    cfg.cam_threshold, cfg.oracle_limit))
        slot_s.append(perf_counter() - t0)
    if tracer is not None:
        tracer.slot = -1
    fileio.emit_metrics(metrics, str(out), sim.summarize(metrics))
    pipeline_s = perf_counter() - started

    # correctness gate, outside every timed region and every span
    if tracer is not None:
        tracer.active = False
    result = PassResult(pipeline_s, setup_s, slot_s, 0, 0, 0.0, [0] * len(FAIL_REASONS),
                        [], _dir_bytes(trace_dir), tracer is not None)
    if out.read_bytes() != ref:
        result.gate_failures.append("metrics bytes differ from the in-process cli simulate")
    for sm, slot in zip(metrics, loaded.slots):
        per_device = _account(sm, model)
        flags = [any(r) for r in per_device]
        result.device_slots += len(flags)
        result.failed_device_slots += sum(flags)
        result.served_utility += sum(u for u, bad in zip(sm.utilities, flags) if not bad)
        result.reasons = [a + sum(col) for a, col in zip(result.reasons, zip(*per_device))]
        if sm.feasible == any(flags):
            result.gate_failures.append(f"slot {sm.slot}: feasible={sm.feasible} but "
                                        f"{sum(flags)} device(s) failed")
        if cfg.scheduler == "oracle":
            problem = _check_oracle(sm, slot, model)
            if problem:
                result.gate_failures.append(problem)
    if tracer is not None:
        tracer.active = True
    return result


def reference_bytes(wl: Workload, cfg_text: str, seed: int, work: Path) -> bytes:
    """Metrics bytes from `camsched simulate`, run in-process on the same
    trace and config; it also warms the process up before timing starts."""
    cfg_path, ref_dir, out = work / "config.json", work / "ref-trace", work / "ref.jsonl"
    cfg_path.write_text(cfg_text, encoding="ascii")
    manifest = fileio.save_trace(wl.generate(config.parse_config(cfg_text), seed),
                                 str(ref_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(cfg_path), "--trace", manifest,
                         "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"camsched simulate exited with {code}")
    shutil.rmtree(ref_dir)
    return out.read_bytes()


def measure(wl, cfg_text, seed, work, ref, seconds, tracer=None) -> list[PassResult]:
    """Passes back to back until `seconds` are used; a pass starts only if the
    previous one would still fit, so a run overshoots by less than one pass.

    With a tracer, every second pass runs traced, so traced and untraced
    passes see the same drift in machine load."""
    passes: list[PassResult] = []
    traced_slots = 0
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() + passes[-1].pipeline_s < deadline:
        if tracer is None or len(passes) % 2 == 0:
            passes.append(run_pass(wl, cfg_text, seed, work, ref))
            continue
        tracer.install()
        try:
            passes.append(run_pass(wl, cfg_text, seed, work, ref, tracer, traced_slots))
        finally:
            tracer.uninstall()
        traced_slots += len(passes[-1].slot_s)
    return passes


def decision_quality(passes: list[PassResult]) -> dict:
    device_slots = sum(p.device_slots for p in passes)
    served = device_slots - sum(p.failed_device_slots for p in passes)
    return {
        "fail_rate": 1.0 - served / device_slots,
        "utility_per_device": sum(p.served_utility for p in passes) / served,
        "device_slots": device_slots,
        # a device-slot can fail for more than one reason
        "fail_reasons": {reason: sum(p.reasons[i] for p in passes) / device_slots
                         for i, reason in enumerate(FAIL_REASONS)},
    }


def end_to_end(passes: list[PassResult], quality: dict, floor: float) -> dict[str, float]:
    slots = [s for p in passes for s in p.slot_s]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "pipeline_p90_s": float(np.percentile([p.pipeline_s for p in passes], 90)),
        "slot_p90_ms": float(np.percentile(slots, 90)) * 1e3,
        "success_rate": 1.0 - quality["fail_rate"],
        # a served device-slot has latency <= deadline, so its utility is above
        # -weight * deadline; measuring from that floor keeps the value positive
        "utility_above_floor": quality["utility_per_device"] + floor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timing_medians(passes: list[PassResult]) -> dict[str, float]:
    return {
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "slot_p50_ms": statistics.median(s for p in passes for s in p.slot_s) * 1e3,
    }


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool,
                 work: Path, spans_path: Path) -> dict:
    """Run one workload and return the result document; a traced run also
    writes its spans to `spans_path`."""
    cfg_text = wl.config_text(seed)
    cfg = config.parse_config(cfg_text)
    floor = cfg.latency_weight * cfg.max_latency_s
    ref = reference_bytes(wl, cfg_text, seed, work)
    doc: dict = {"workload": wl.name, "seed": seed, "seconds": seconds,
                 "traced": traced, "config": cfg_text}
    tracer = tracing.Tracer() if traced else None
    passes = measure(wl, cfg_text, seed, work, ref, seconds, tracer)
    doc["quality"] = decision_quality(passes)
    doc["timing_medians"] = timing_medians(passes)
    if tracer is None:
        doc["metrics"] = end_to_end(passes, doc["quality"], floor)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        traced_passes = [p for p in passes if p.traced]
        traced_slots = [s for p in traced_passes for s in p.slot_s]
        doc["metrics"] = tracing.layer_metrics(
            tracer, len(traced_passes), len(traced_slots), traced_passes[0].trace_bytes,
            statistics.median(traced_slots),
            statistics.median(s for p in passes if not p.traced for s in p.slot_s))
        doc["slot_attribution"] = tracing.slot_attribution(tracer)
        doc["spans"] = {"count": len(tracer), "file": spans_path.name}
        tracer.write(spans_path)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    doc["units"] = units
    doc["samples"] = {
        "passes": len(passes),
        "slots": sum(len(p.slot_s) for p in passes),
        "slots_per_pass": len(passes[0].slot_s),
    }
    doc["samples_raw"] = {
        "slot_ms": [round(s * 1e3, 4) for p in passes for s in p.slot_s],
        "pipeline_s": [round(p.pipeline_s, 6) for p in passes],
        "setup_s": [round(p.setup_s, 6) for p in passes],
    }
    doc["gate"] = [f for p in passes for f in p.gate_failures]
    # an operation is one slot decision; a pass whose checks fail counts all
    # of its slots as failed
    doc["attempted"] = doc["samples"]["slots"]
    doc["failed"] = sum(len(p.slot_s) for p in passes if p.gate_failures)
    return doc


def print_table(doc: dict) -> None:
    s = doc["samples"]
    print(f"# {doc['workload']} seed={doc['seed']} traced={int(doc['traced'])} "
          f"passes={s['passes']} slots={s['slots']}")
    for name, value in doc["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {doc['units'][name]}")
    print("# not gated:")
    for name, value in doc["timing_medians"].items():
        print(f"{name:40s} {value:>16.6g} {name.rsplit('_', 1)[1]}")
    q = doc["quality"]
    print(f"{'fail_rate':40s} {q['fail_rate']:>16.6g} ratio")
    print(f"{'utility_per_device':40s} {q['utility_per_device']:>16.6g} utility")
    for reason, share in q["fail_reasons"].items():
        print(f"{'fail_rate.' + reason:40s} {share:>16.6g} ratio")
    for problem in doc["gate"]:
        print(f"GATE FAILURE: {problem}")
