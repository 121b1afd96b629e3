"""Run configuration: JSON key-value documents with strict validation.

An empty document resolves to the default deployment: 10 devices, the
four-server roster (one strong GPU box, one weak GPU box, two CPU-only
boxes), four enhancement algorithms (two GPU-bound, two CPU-bound), quality
window of 5, latency weight 0.5 and a 4 second deadline. Unknown keys are
rejected by name; emit_config renders the fully resolved form canonically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import camq, sched, sysmodel
from .camq import QualityState
from .errors import ConfigError
from .sched import GaConfig
from .sim import SCHEDULER_CHOICES, SynthSpec
from .sysmodel import (
    KIND_CPU,
    KIND_GPU,
    EdgeServer,
    EnhancementProfile,
    ModelConstants,
    SystemModel,
)

DEFAULT_DEVICES = 10
DEFAULT_SCHEDULER = "ga"

# roster: [gpu_capacity, cpu_capacity] per server (units/s)
DEFAULT_SERVERS = (
    (34.1e12, 3.5e9),
    (1.5e12, 854e6),
    (0.0, 2.0e9),
    (0.0, 1.0e9),
)

# each algorithm reserves a quarter of the pool it draws from; demand is the
# per-bit compute cost, so heavier algorithms trade latency for quality
_GPU_QUARTER = [cap[0] / 4.0 for cap in DEFAULT_SERVERS]
_CPU_QUARTER = [cap[1] / 4.0 for cap in DEFAULT_SERVERS]
DEFAULT_ALGORITHMS = (
    {"kind": KIND_GPU, "demand_per_bit": [2.0e5] * 4, "service_rate": _GPU_QUARTER},
    {"kind": KIND_GPU, "demand_per_bit": [6.0e4] * 4, "service_rate": _GPU_QUARTER},
    {"kind": KIND_CPU, "demand_per_bit": [15.0] * 4, "service_rate": _CPU_QUARTER},
    {"kind": KIND_CPU, "demand_per_bit": [40.0] * 4, "service_rate": _CPU_QUARTER},
)

_TOP_KEYS = {
    "devices",
    "seed",
    "scheduler",
    "oracle_limit",
    "latency_weight",
    "max_latency_s",
    "overhead_latency_s",
    "window_depth",
    "cam_threshold",
    "denominator_floor",
    "quality_cap",
    "default_accuracy",
    "servers",
    "algorithms",
    "ga",
    "synth",
    "trace_path",
    "metrics_path",
}
_SERVER_KEYS = {"gpu_capacity", "cpu_capacity"}
_ALGORITHM_KEYS = {"kind", "demand_per_bit", "service_rate"}
_GA_KEYS = {
    "population_size",
    "generations",
    "crossover_prob",
    "mutation_prob",
    "penalty_capacity",
    "penalty_latency",
    "seed",
}
_SYNTH_KEYS = {
    "horizon",
    "cam_rows",
    "cam_cols",
    "smoothness",
    "drift",
    "offsets",
    "cam_noise",
    "datasize_bits",
    "bandwidth_bps",
    "accuracy_floor",
    "accuracy_gain",
    "accuracy_noise",
    "seed",
}


@dataclass(frozen=True)
class RunConfig:
    num_devices: int
    seed: int
    scheduler: str
    oracle_limit: int
    latency_weight: float
    max_latency_s: float
    overhead_latency_s: float
    window_depth: int
    cam_threshold: float
    denominator_floor: float
    quality_cap: float
    default_accuracy: float
    servers: tuple[EdgeServer, ...]
    algorithms: tuple[EnhancementProfile, ...]
    ga: GaConfig
    synth: SynthSpec
    trace_path: str | None
    metrics_path: str | None


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _number(doc: dict, key: str, default, low=None, high=None, where="config"):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} key {key!r} must be a number")
    val = float(val)
    if low is not None and val < low:
        raise ConfigError(f"{where} key {key!r} must be >= {low}, got {val}")
    if high is not None and val > high:
        raise ConfigError(f"{where} key {key!r} must be <= {high}, got {val}")
    return val


def _integer(doc: dict, key: str, default, low=None, where="config") -> int:
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where} key {key!r} must be an integer")
    if low is not None and val < low:
        raise ConfigError(f"{where} key {key!r} must be >= {low}, got {val}")
    return val


def _per_server(value, num_servers: int, key: str) -> list[float]:
    """Scalar values broadcast across the roster; lists must match its length."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)] * num_servers
    if isinstance(value, list):
        if len(value) != num_servers:
            raise ConfigError(
                f"algorithm key {key!r} must list one value per server "
                f"({num_servers}), got {len(value)}"
            )
        out = []
        for v in value:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"algorithm key {key!r} must hold numbers")
            out.append(float(v))
        return out
    raise ConfigError(f"algorithm key {key!r} must be a number or per-server list")


def _parse_servers(entries) -> tuple[EdgeServer, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config key 'servers' must be a non-empty list")
    servers = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"server {i} must be an object")
        _reject_unknown(entry, _SERVER_KEYS, f"server {i}")
        gpu = _number(entry, "gpu_capacity", 0.0, low=0.0, where=f"server {i}")
        cpu = _number(entry, "cpu_capacity", 0.0, low=0.0, where=f"server {i}")
        try:
            servers.append(EdgeServer(gpu, cpu))
        except Exception as exc:
            raise ConfigError(f"server {i}: {exc}") from exc
    return tuple(servers)


def _parse_algorithms(entries, servers: tuple[EdgeServer, ...]):
    if not isinstance(entries, list):
        raise ConfigError("config key 'algorithms' must be a list")
    n = len(servers)
    profiles = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"algorithm {i} must be an object")
        _reject_unknown(entry, _ALGORITHM_KEYS, f"algorithm {i + 1}")
        kind = entry.get("kind")
        if kind not in (KIND_GPU, KIND_CPU):
            raise ConfigError(
                f"algorithm {i + 1} key 'kind' must be 'gpu' or 'cpu', got {kind!r}"
            )
        if "demand_per_bit" not in entry or "service_rate" not in entry:
            raise ConfigError(
                f"algorithm {i + 1} needs both 'demand_per_bit' and 'service_rate'"
            )
        demand = _per_server(entry["demand_per_bit"], n, "demand_per_bit")
        was_scalar = isinstance(entry["service_rate"], (int, float)) and not isinstance(
            entry["service_rate"], bool
        )
        service = _per_server(entry["service_rate"], n, "service_rate")
        if was_scalar:
            # a broadcast rate cannot grant a server a pool it does not have
            for s in range(n):
                pool_cap = (
                    servers[s].gpu_capacity if kind == KIND_GPU else servers[s].cpu_capacity
                )
                if pool_cap == 0.0:
                    service[s] = 0.0
        try:
            profiles.append(
                EnhancementProfile(
                    algorithm_id=i + 1,
                    kind=kind,
                    demand_per_bit=np.array(demand),
                    service_rate=np.array(service),
                )
            )
        except Exception as exc:
            raise ConfigError(f"algorithm {i + 1}: {exc}") from exc
    return tuple(profiles)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; missing keys take defaults."""
    text = text.strip()
    if not text:
        doc = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    num_devices = _integer(doc, "devices", DEFAULT_DEVICES, low=1)
    seed = _integer(doc, "seed", sched.DEFAULT_SEED)
    scheduler = doc.get("scheduler", DEFAULT_SCHEDULER)
    if scheduler not in SCHEDULER_CHOICES:
        raise ConfigError(
            f"config key 'scheduler' must be one of {'|'.join(SCHEDULER_CHOICES)}, "
            f"got {scheduler!r}"
        )
    oracle_limit = _integer(doc, "oracle_limit", sched.DEFAULT_ORACLE_LIMIT, low=1)
    latency_weight = _number(doc, "latency_weight", sysmodel.DEFAULT_LATENCY_WEIGHT, low=0.0)
    max_latency_s = _number(doc, "max_latency_s", sysmodel.DEFAULT_MAX_LATENCY_S)
    if max_latency_s <= 0:
        raise ConfigError(f"config key 'max_latency_s' must be > 0, got {max_latency_s}")
    overhead = _number(doc, "overhead_latency_s", sysmodel.DEFAULT_OVERHEAD_S, low=0.0)
    window_depth = _integer(doc, "window_depth", camq.DEFAULT_WINDOW_DEPTH, low=1)
    cam_threshold = _number(doc, "cam_threshold", camq.DEFAULT_THRESHOLD)
    denom_floor = _number(doc, "denominator_floor", camq.DEFAULT_DENOM_FLOOR)
    if denom_floor <= 0:
        raise ConfigError(
            f"config key 'denominator_floor' must be > 0, got {denom_floor}"
        )
    quality_cap = _number(doc, "quality_cap", camq.DEFAULT_QUALITY_CAP)
    if quality_cap <= 0:
        raise ConfigError(f"config key 'quality_cap' must be > 0, got {quality_cap}")
    default_accuracy = _number(doc, "default_accuracy", camq.DEFAULT_ACCURACY, 0.0, 1.0)

    servers = _parse_servers(
        doc.get(
            "servers",
            [{"gpu_capacity": g, "cpu_capacity": c} for g, c in DEFAULT_SERVERS],
        )
    )
    algo_entries = doc.get("algorithms")
    if algo_entries is None:
        if len(servers) == len(DEFAULT_SERVERS):
            algo_entries = [dict(a) for a in DEFAULT_ALGORITHMS]
        else:
            raise ConfigError(
                "config key 'algorithms' is required when 'servers' does not "
                "have the default length"
            )
    algorithms = _parse_algorithms(algo_entries, servers)

    ga_doc = doc.get("ga", {})
    if not isinstance(ga_doc, dict):
        raise ConfigError("config key 'ga' must be an object")
    _reject_unknown(ga_doc, _GA_KEYS, "ga")
    try:
        ga = GaConfig(
            population_size=_integer(
                ga_doc, "population_size", sched.DEFAULT_POPULATION, low=1, where="ga"
            ),
            generations=_integer(
                ga_doc, "generations", sched.DEFAULT_GENERATIONS, low=1, where="ga"
            ),
            crossover_prob=_number(
                ga_doc, "crossover_prob", sched.DEFAULT_CROSSOVER_PROB, 0.0, 1.0, where="ga"
            ),
            mutation_prob=_number(
                ga_doc, "mutation_prob", sched.DEFAULT_MUTATION_PROB, 0.0, 1.0, where="ga"
            ),
            penalty_capacity=_number(
                ga_doc, "penalty_capacity", sched.DEFAULT_PENALTY, 0.0, where="ga"
            ),
            penalty_latency=_number(
                ga_doc, "penalty_latency", sched.DEFAULT_PENALTY, 0.0, where="ga"
            ),
            rng_seed=_integer(ga_doc, "seed", seed, where="ga"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"ga: {exc}") from exc

    synth_doc = doc.get("synth", {})
    if not isinstance(synth_doc, dict):
        raise ConfigError("config key 'synth' must be an object")
    _reject_unknown(synth_doc, _SYNTH_KEYS, "synth")
    k = len(algorithms)
    if "offsets" in synth_doc:
        offsets = synth_doc["offsets"]
        if not isinstance(offsets, list) or len(offsets) != k:
            raise ConfigError(
                f"synth key 'offsets' must list one value per algorithm ({k})"
            )
        offsets = tuple(float(v) for v in offsets)
    else:
        offsets = _default_offsets(k)
    try:
        synth = SynthSpec(
            num_devices=num_devices,
            num_servers=len(servers),
            num_algorithms=k,
            horizon=_integer(synth_doc, "horizon", 30, low=0, where="synth"),
            cam_rows=_integer(synth_doc, "cam_rows", 16, low=1, where="synth"),
            cam_cols=_integer(synth_doc, "cam_cols", 16, low=1, where="synth"),
            smoothness=_number(synth_doc, "smoothness", 0.25, where="synth"),
            drift=_number(synth_doc, "drift", 0.05, low=0.0, where="synth"),
            offsets=offsets,
            cam_noise=_number(synth_doc, "cam_noise", 0.02, low=0.0, where="synth"),
            datasize_bits=_range_pair(synth_doc, "datasize_bits", (15e6, 25e6)),
            bandwidth_bps=_range_pair(synth_doc, "bandwidth_bps", (20e6, 20e6)),
            accuracy_floor=_number(
                synth_doc, "accuracy_floor", 0.6, 0.0, 1.0, where="synth"
            ),
            accuracy_gain=_number(synth_doc, "accuracy_gain", 0.8, where="synth"),
            accuracy_noise=_number(
                synth_doc, "accuracy_noise", 0.05, low=0.0, where="synth"
            ),
            seed=_integer(synth_doc, "seed", seed, where="synth"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"synth: {exc}") from exc

    for key in ("trace_path", "metrics_path"):
        if key in doc and doc[key] is not None and not isinstance(doc[key], str):
            raise ConfigError(f"config key {key!r} must be a string path")

    return RunConfig(
        num_devices=num_devices,
        seed=seed,
        scheduler=scheduler,
        oracle_limit=oracle_limit,
        latency_weight=latency_weight,
        max_latency_s=max_latency_s,
        overhead_latency_s=overhead,
        window_depth=window_depth,
        cam_threshold=cam_threshold,
        denominator_floor=denom_floor,
        quality_cap=quality_cap,
        default_accuracy=default_accuracy,
        servers=servers,
        algorithms=algorithms,
        ga=ga,
        synth=synth,
        trace_path=doc.get("trace_path"),
        metrics_path=doc.get("metrics_path"),
    )


def _default_offsets(k: int) -> tuple[float, ...]:
    if k == 0:
        return ()
    if k == 1:
        return (0.30,)
    return tuple(round(v, 6) for v in np.linspace(0.30, 0.08, k))


def _range_pair(doc: dict, key: str, default) -> tuple[float, float]:
    val = doc.get(key)
    if val is None:
        return default
    if not isinstance(val, list) or len(val) != 2:
        raise ConfigError(f"synth key {key!r} must be a [low, high] pair")
    lo, hi = float(val[0]), float(val[1])
    if lo < 0 or hi < lo:
        raise ConfigError(f"synth key {key!r} must satisfy 0 <= low <= high")
    return lo, hi


def parse_config_file(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def emit_config(config: RunConfig) -> str:
    """Canonical fully-resolved rendering: emitting, parsing and emitting
    again reproduces the same bytes."""
    doc = {
        "devices": config.num_devices,
        "seed": config.seed,
        "scheduler": config.scheduler,
        "oracle_limit": config.oracle_limit,
        "latency_weight": config.latency_weight,
        "max_latency_s": config.max_latency_s,
        "overhead_latency_s": config.overhead_latency_s,
        "window_depth": config.window_depth,
        "cam_threshold": config.cam_threshold,
        "denominator_floor": config.denominator_floor,
        "quality_cap": config.quality_cap,
        "default_accuracy": config.default_accuracy,
        "servers": [
            {"gpu_capacity": s.gpu_capacity, "cpu_capacity": s.cpu_capacity}
            for s in config.servers
        ],
        "algorithms": [
            {
                "kind": p.kind,
                "demand_per_bit": p.demand_per_bit.tolist(),
                "service_rate": p.service_rate.tolist(),
            }
            for p in config.algorithms
        ],
        "ga": {
            "population_size": config.ga.population_size,
            "generations": config.ga.generations,
            "crossover_prob": config.ga.crossover_prob,
            "mutation_prob": config.ga.mutation_prob,
            "penalty_capacity": config.ga.penalty_capacity,
            "penalty_latency": config.ga.penalty_latency,
            "seed": config.ga.rng_seed,
        },
        "synth": {
            "horizon": config.synth.horizon,
            "cam_rows": config.synth.cam_rows,
            "cam_cols": config.synth.cam_cols,
            "smoothness": config.synth.smoothness,
            "drift": config.synth.drift,
            "offsets": list(config.synth.offsets),
            "cam_noise": config.synth.cam_noise,
            "datasize_bits": list(config.synth.datasize_bits),
            "bandwidth_bps": list(config.synth.bandwidth_bps),
            "accuracy_floor": config.synth.accuracy_floor,
            "accuracy_gain": config.synth.accuracy_gain,
            "accuracy_noise": config.synth.accuracy_noise,
            "seed": config.synth.seed,
        },
        "trace_path": config.trace_path,
        "metrics_path": config.metrics_path,
    }
    return json.dumps(doc, indent=2) + "\n"


def build_constants(config: RunConfig) -> ModelConstants:
    return ModelConstants(
        num_devices=config.num_devices,
        overhead_latency_s=config.overhead_latency_s,
        latency_weight=config.latency_weight,
        max_latency_s=config.max_latency_s,
    )


def build_model(config: RunConfig) -> SystemModel:
    return SystemModel(
        servers=config.servers,
        profiles=config.algorithms,
        constants=build_constants(config),
    )


def build_quality_state(config: RunConfig) -> QualityState:
    return QualityState(
        num_devices=config.num_devices,
        num_algorithms=len(config.algorithms),
        window_depth=config.window_depth,
        default_accuracy=config.default_accuracy,
        denom_floor=config.denominator_floor,
        quality_cap=config.quality_cap,
    )
