"""Span tracing from outside the program, for the traced benchmark run.

Each layer function is replaced, at every module attribute its callers look
it up through, by a wrapper that records a span (name, start, end, parent
span, slot id) and a call count. Spans stay in memory until the run ends.
Nothing is installed unless a traced run asks for it, and `uninstall`
puts every original back.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from camsched import camq, config, fileio, sched, sim, sysmodel

# (span name, function, modules whose attribute of that name is looked up
# at call time). sim and sched import some sysmodel functions by name, so
# those are patched in every namespace that calls them.
LAYER_FUNCTIONS = (
    ("sim.run_slot", "run_slot", (sim,)),
    ("sim.generate_synthetic", "generate_synthetic", (sim,)),
    ("camq.enhancement_quality", "enhancement_quality", (camq,)),
    ("camq.filter_cam", "filter_cam", (camq,)),
    ("camq.commit_slot", "commit_slot", (camq,)),
    ("sysmodel.latency_table", "latency_table", (sysmodel, sched)),
    ("sysmodel.check_feasibility", "check_feasibility", (sysmodel, sched, sim)),
    ("sysmodel.device_latency", "device_latency", (sysmodel, sim)),
    ("sched.evolve", "evolve", (sched,)),
    ("sched.brute_force", "brute_force", (sched,)),
    ("sched.baseline", "baseline_capacity", (sched,)),
    ("sched.baseline", "baseline_no_enhancement", (sched,)),
    ("fileio.save_trace", "save_trace", (fileio,)),
    ("fileio.load_trace", "load_trace", (fileio,)),
    ("fileio.emit_metrics", "emit_metrics", (fileio,)),
    ("fileio.save_cam", "save_cam", (fileio,)),
    ("fileio.load_cam", "load_cam", (fileio,)),
    ("config.build", "parse_config", (config,)),
    ("config.build", "build_model", (config,)),
    ("config.build", "build_quality_state", (config,)),
)


def _observe_evolve(args, kwargs, result):
    model = args[1]
    ga = args[2] if len(args) > 2 else kwargs.get("ga")
    if ga is None:
        ga = sched.GaConfig()
    best, history = result
    last = 0
    for gen in range(1, len(history)):
        if history[gen] > history[gen - 1]:
            last = gen
    genes = ga.population_size * ga.generations * model.num_devices
    return {"feasible": best.feasible, "last_improvement": last, "genes": genes}


def _observe_brute_force(args, kwargs, result):
    return {"enumerated": result.enumerated, "feasible": result.feasible_count}


OBSERVERS = {"sched.evolve": _observe_evolve, "sched.brute_force": _observe_brute_force}


class Tracer:
    def __init__(self):
        # spans as columns of flat arrays: the collector never scans them, so
        # a long run does not slow down the garbage collections it triggers
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")       # index of the enclosing span, -1 for none
        self.slot_id = array("i")      # slot the span ran in, -1 outside slots
        self.calls: Counter = Counter()
        self.observations: dict[str, list[dict]] = defaultdict(list)
        self.slot = -1                 # slot id stamped on new spans
        self.active = True             # off while the benchmark checks outputs
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.slot_id.append(self.slot)
            self.end.append(0.0)
            self.calls[name] += 1
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self.observations[name].append(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, attr, modules in LAYER_FUNCTIONS:
            original = getattr(modules[0], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def times(self, slots_only: bool = False) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, inclusive time) summed per span name.

        A span's self time is its duration minus the durations of the spans
        whose parent it is. `slots_only` keeps spans made inside a slot.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                children[parent] += duration
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for i, duration in enumerate(durations):
            if slots_only and self.slot_id[i] < 0:
                continue
            name = self.names[self.name_id[i]]
            inclusive[name] += duration
            own[name] += duration - children[i]
        return own, inclusive

    def write(self, path) -> None:
        """One JSON line per span, then one line with the call counts."""
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "name": self.names[self.name_id[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "slot": self.slot_id[i]}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls)}) + "\n")


# (metric, unit, better) for every per-layer metric the traced run reports.
# `_s` is self time per pipeline pass (one whole trace), `_calls` is calls
# per slot, `_us` is self time per call.
PER_LAYER = (
    ("fileio.save_trace_s", "s", "lower"),
    ("fileio.load_trace_s", "s", "lower"),
    ("fileio.emit_metrics_s", "s", "lower"),
    ("fileio.cam_files", "count", "lower"),
    ("fileio.trace_bytes", "bytes", "lower"),
    ("fileio.save_cam_us", "us", "lower"),
    ("fileio.load_cam_us", "us", "lower"),
    ("config.build_s", "s", "lower"),
    ("camq.enhancement_quality_calls", "calls/slot", "lower"),
    ("camq.enhancement_quality_s", "s", "lower"),
    ("camq.filter_cam_calls", "calls/slot", "lower"),
    ("camq.filter_cam_s", "s", "lower"),
    ("camq.commit_slot_calls", "calls/slot", "lower"),
    ("camq.commit_slot_s", "s", "lower"),
    ("sysmodel.latency_table_calls", "calls/slot", "lower"),
    ("sysmodel.latency_table_s", "s", "lower"),
    ("sysmodel.check_feasibility_calls", "calls/slot", "lower"),
    ("sysmodel.check_feasibility_s", "s", "lower"),
    ("sysmodel.device_latency_calls", "calls/slot", "lower"),
    ("sysmodel.device_latency_s", "s", "lower"),
    ("sched.evolve_s", "s", "lower"),
    ("sched.evolve_ns_per_gene", "ns", "lower"),
    ("sched.ga_feasible_rate", "ratio", "higher"),
    ("sched.ga_last_improvement_gen", "generation", "higher"),
    ("sched.brute_force_s", "s", "lower"),
    ("sched.oracle_ns_per_decision", "ns", "lower"),
    ("sched.oracle_feasible_share", "ratio", "higher"),
    ("sched.baseline_s", "s", "lower"),
    ("sim.generate_synthetic_s", "s", "lower"),
    ("sim.run_slot_s", "s", "lower"),
    ("sim.account_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, slots: int, trace_bytes: int,
                  traced_slot_p50: float, untraced_slot_p50: float) -> dict[str, float]:
    own, inclusive = tracer.times()
    calls = tracer.calls
    out: dict[str, float] = {}
    for name in ("fileio.save_trace", "fileio.load_trace", "fileio.emit_metrics",
                 "config.build", "camq.enhancement_quality", "camq.filter_cam",
                 "camq.commit_slot", "sysmodel.latency_table",
                 "sysmodel.check_feasibility", "sysmodel.device_latency",
                 "sched.evolve", "sched.brute_force", "sched.baseline",
                 "sim.generate_synthetic"):
        out[name + "_s"] = own[name] / passes
    for name in ("camq.enhancement_quality", "camq.filter_cam", "camq.commit_slot",
                 "sysmodel.latency_table", "sysmodel.check_feasibility",
                 "sysmodel.device_latency"):
        out[name + "_calls"] = calls[name] / slots
    out["fileio.cam_files"] = calls["fileio.save_cam"] / passes
    out["fileio.trace_bytes"] = float(trace_bytes)
    out["fileio.save_cam_us"] = _ratio(own["fileio.save_cam"] * 1e6, calls["fileio.save_cam"])
    out["fileio.load_cam_us"] = _ratio(own["fileio.load_cam"] * 1e6, calls["fileio.load_cam"])

    evolves = tracer.observations["sched.evolve"]
    out["sched.evolve_ns_per_gene"] = _ratio(
        own["sched.evolve"] * 1e9, sum(o["genes"] for o in evolves))
    out["sched.ga_feasible_rate"] = _ratio(sum(o["feasible"] for o in evolves), len(evolves))
    out["sched.ga_last_improvement_gen"] = _ratio(
        sum(o["last_improvement"] for o in evolves), len(evolves))
    oracles = tracer.observations["sched.brute_force"]
    enumerated = sum(o["enumerated"] for o in oracles)
    out["sched.oracle_ns_per_decision"] = _ratio(own["sched.brute_force"] * 1e9, enumerated)
    out["sched.oracle_feasible_share"] = _ratio(sum(o["feasible"] for o in oracles), enumerated)

    out["sim.run_slot_s"] = inclusive["sim.run_slot"] / passes
    out["sim.account_s"] = own["sim.run_slot"] / passes
    out["trace.overhead_pct"] = (traced_slot_p50 / untraced_slot_p50 - 1.0) * 100.0
    return {name: out[name] for name, _unit, _better in PER_LAYER}


def slot_attribution(tracer: Tracer) -> dict[str, float]:
    """Share of run_slot's inclusive time spent in each layer's own spans."""
    own, inclusive = tracer.times(slots_only=True)
    shares: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        layer = name.split(".")[0]
        if layer in ("camq", "sysmodel", "sched"):
            shares[layer] += seconds
    shares["sched.evolve"] = own["sched.evolve"]
    shares["sched.brute_force"] = own["sched.brute_force"]
    shares["sim.account"] = own["sim.run_slot"]
    return {k: _ratio(v, inclusive["sim.run_slot"]) for k, v in sorted(shares.items())}
