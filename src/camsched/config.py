"""Run configuration: JSON key-value documents with strict validation.

An empty document resolves to the default deployment: 10 devices, the
four-server roster (one strong GPU box, one weak GPU box, two CPU-only
boxes), four enhancement algorithms (two GPU-bound, two CPU-bound), quality
window of 5, latency weight 0.5 and a 4 second deadline. Each key is declared
once, with its type, default and bounds. A servers, algorithms, ga or synth
key is declared on its EdgeServer, EnhancementProfile, GaConfig or SynthSpec
field, which the class checks itself. A top-level key is declared on its
RunConfig field, or where other code checks a value through it, and the
RunConfig field reuses it: `devices` is keys.DEVICES, the three latency keys
are on ModelConstants' fields and the four quality-window keys are in camq.
The algorithm section reader adds only what the roster supplies: the length
of its lists, and the broadcast of a scalar over it. Parsing, the unknown-key
check and emit_config all read those declarations. Numbers must be finite
and bools are not numbers. Unknown keys are rejected by name; emit_config
renders the fully resolved form canonically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import camq, sched
from .camq import QualityState
from .errors import ConfigError, ValidationError
from .keys import DEVICES, Key, key_of, keys_of
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

_ALGORITHM = keys_of(EnhancementProfile)


def _key(*args, **kwargs):
    """A RunConfig field declared by its config Key."""
    return field(metadata={"key": Key(*args, **kwargs)})


def _shared(key: Key):
    """A RunConfig field declared by a key that other code checks through."""
    return field(metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """The resolved run configuration. Each field carries the top-level key
    that fills it; the field order is the order show-config prints."""

    num_devices: int = _shared(DEVICES)
    seed: int = _key("seed", int, sched.DEFAULT_SEED)
    scheduler: str = _key("scheduler", str, "ga", choices=SCHEDULER_CHOICES)
    oracle_limit: int = _key("oracle_limit", int, sched.DEFAULT_ORACLE_LIMIT, low=1)
    latency_weight: float = _shared(key_of(ModelConstants, "latency_weight"))
    max_latency_s: float = _shared(key_of(ModelConstants, "max_latency_s"))
    overhead_latency_s: float = _shared(key_of(ModelConstants, "overhead_latency_s"))
    window_depth: int = _shared(camq.WINDOW_DEPTH)
    cam_threshold: float = _key("cam_threshold", float, camq.DEFAULT_THRESHOLD)
    denominator_floor: float = _shared(camq.DENOMINATOR_FLOOR)
    quality_cap: float = _shared(camq.QUALITY_CAP)
    default_accuracy: float = _shared(camq.DEFAULT_ACCURACY)
    servers: tuple[EdgeServer, ...] = _key("servers", table=keys_of(EdgeServer))
    algorithms: tuple[EnhancementProfile, ...] = _key("algorithms", table=_ALGORITHM)
    ga: GaConfig = _key("ga", table=keys_of(GaConfig))
    synth: SynthSpec = _key("synth", table=keys_of(SynthSpec))
    trace_path: str | None = _key("trace_path", str)
    metrics_path: str | None = _key("metrics_path", str)


_TOP = keys_of(RunConfig)


def _reject_unknown(doc: dict, table: tuple[Key, ...], where: str) -> None:
    unknown = sorted(set(doc) - {key.name for key in table})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _build(cls, where: str, doc, defaults=None, **fixed):
    """`cls` from one config object whose keys are `cls`'s keyed fields; `cls`
    checks the values, and an absent key takes `defaults` or the field's default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    table = keys_of(cls)
    _reject_unknown(doc, table, where)
    values = dict(defaults or {})
    values.update((key.field, doc[key.name]) for key in table if key.name in doc)
    try:
        return cls(**values, **fixed)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_algorithm(i: int, entry, servers: tuple[EdgeServer, ...]) -> EnhancementProfile:
    """Algorithm entry `i`, whose per-server values are lists of the roster's
    length or scalars broadcast over it; EnhancementProfile checks them."""
    where = f"algorithm {i + 1}"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(entry, _ALGORITHM, where)
    values = {key.field: entry.get(key.name) for key in _ALGORITHM}
    for name in ("demand_per_bit", "service_rate"):
        if not isinstance(values[name], list):
            values[name] = [values[name]] * len(servers)
        elif len(values[name]) != len(servers):
            raise ConfigError(f"{where}: key {name!r} must list {len(servers)} numbers")
    try:
        profile = EnhancementProfile(**values)
        if not isinstance(entry.get("service_rate"), list):
            # a broadcast rate cannot grant a server a pool it does not have
            profile = replace(profile, service_rate=tuple(
                rate if (server.gpu_capacity, server.cpu_capacity)[profile.pool] else 0.0
                for rate, server in zip(profile.service_rate, servers)
            ))
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return profile


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; missing keys take defaults."""
    text = text.strip()
    if not text:
        doc = {}
    else:
        try:
            doc = json.loads(text)
        # the json module raises RecursionError for deeply nested JSON
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP, "config")
    top = {key.field: key.read(doc, "config") for key in _TOP if not key.table}

    entries = doc.get(
        "servers", [{"gpu_capacity": g, "cpu_capacity": c} for g, c in DEFAULT_SERVERS]
    )
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config key 'servers' must be a non-empty list")
    servers = tuple(
        _build(EdgeServer, f"server {i}", entry) for i, entry in enumerate(entries)
    )
    entries = doc.get("algorithms")
    if entries is None:
        if len(servers) != len(DEFAULT_SERVERS):
            raise ConfigError(
                "config key 'algorithms' is required when 'servers' does not "
                "have the default length"
            )
        entries = list(DEFAULT_ALGORITHMS)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config key 'algorithms' must be a non-empty list")
    algorithms = tuple(_parse_algorithm(i, e, servers) for i, e in enumerate(entries))

    seed = top["seed"]
    ga = _build(GaConfig, "ga", doc.get("ga", {}), {"rng_seed": seed})
    synth = _build(
        SynthSpec, "synth", doc.get("synth", {}), {"seed": seed},
        num_devices=top["num_devices"],
        num_servers=len(servers),
        num_algorithms=len(algorithms),
    )
    return RunConfig(servers=servers, algorithms=algorithms, ga=ga, synth=synth, **top)


def parse_config_file(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _emit(table: tuple[Key, ...], obj) -> dict:
    doc = {}
    for key in table:
        val = getattr(obj, key.field)
        if key.table:
            val = (
                [_emit(key.table, v) for v in val]
                if isinstance(val, tuple)
                else _emit(key.table, val)
            )
        elif key.kind is list:
            val = [float(v) for v in val]
        doc[key.name] = val
    return doc


def emit_config(config: RunConfig) -> str:
    """Canonical fully-resolved rendering: emitting, parsing and emitting
    again reproduces the same bytes."""
    return json.dumps(_emit(_TOP, config), indent=2) + "\n"


def build_model(config: RunConfig) -> SystemModel:
    return SystemModel(
        servers=config.servers,
        profiles=config.algorithms,
        constants=ModelConstants(
            num_devices=config.num_devices,
            overhead_latency_s=config.overhead_latency_s,
            latency_weight=config.latency_weight,
            max_latency_s=config.max_latency_s,
        ),
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
