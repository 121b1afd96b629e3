"""The classes a config section builds check each keyed field through its
key, and the model constants, the trace generator and the quality state check
their device count and quality-window settings through the keys the config
reads: direct construction rejects what the config rejects, naming the key."""

import math
import re

import numpy as np
import pytest

from camsched import camq
from camsched.camq import QualityState
from camsched.errors import ValidationError
from camsched.keys import DEVICES, keys_of
from camsched.sched import GaConfig
from camsched.sim import SynthSpec
from camsched.sysmodel import EdgeServer, EnhancementProfile, ModelConstants

from test_config import SCALAR_KEYS

# each class with the prefix of its keys in SCALAR_KEYS and the keys it checks
# its values through: its keyed fields, and the devices and quality-window
# keys where it takes those values as plain parameters
CLASSES = (
    (GaConfig, "ga.", keys_of(GaConfig)),
    (SynthSpec, "synth.", keys_of(SynthSpec) + (DEVICES,)),
    (EdgeServer, "", keys_of(EdgeServer)),
    (ModelConstants, "", keys_of(ModelConstants)),
    (EnhancementProfile, "", keys_of(EnhancementProfile)),
    (QualityState, "", (DEVICES, camq.WINDOW_DEPTH, camq.DEFAULT_ACCURACY,
                        camq.DENOMINATOR_FLOOR, camq.QUALITY_CAP)),
)

# the fields each class needs besides the one under test
BASE = {ModelConstants: {"num_devices": 1},
        EdgeServer: {"gpu_capacity": 1.0, "cpu_capacity": 1.0},
        EnhancementProfile: {"kind": "gpu", "demand_per_bit": [1.0, 1.0],
                             "service_rate": [1.0, 1.0]},
        QualityState: {"num_devices": 1, "num_algorithms": 1}}


def build(cls, field, value):
    """`cls` with `field` set to `value` and every other field valid."""
    return cls(**dict(BASE.get(cls, {}), **{field: value}))


# values the config rejects for keys that SCALAR_KEYS does not list, and the
# values each class accepted before it checked through its keys
# None: a required field is checked, not skipped as a key's absent default
PER_SERVER = [[True, 1.0], ["1e5", "2"], [-1.0, 1.0], None]
EXTRA = {
    SynthSpec: {"offsets": [(0.3, "x", 0.2, 0.1), (0.3, math.nan, 0.2, 0.1)],
                "datasize_bits": [(1.0, math.inf), "ab", (1.0,)],
                "bandwidth_bps": [[1.0, 2.0, 3.0], (True, 2.0)],
                "drift": [math.inf], "accuracy_gain": [math.nan], "horizon": [2.5],
                "devices": [2.5, True, 0]},
    GaConfig: {"population_size": [True]},
    EdgeServer: {"gpu_capacity": [True]},
    ModelConstants: {"overhead_latency_s": [math.inf], "devices": [True]},
    EnhancementProfile: {"kind": [None], "demand_per_bit": PER_SERVER,
                         "service_rate": PER_SERVER},
    QualityState: {"devices": [2.5, True], "window_depth": [2.5, True],
                   "denominator_floor": [math.nan], "quality_cap": [math.inf],
                   "default_accuracy": [True]},
}


def rejected_values(cls, prefix, key):
    values = []
    if prefix + key.name in SCALAR_KEYS:
        _, wrong, bound = SCALAR_KEYS[prefix + key.name]
        values = [wrong] if bound is None else [wrong, bound]
    return values + EXTRA.get(cls, {}).get(key.name, [])


CASES = [
    pytest.param(cls, key, value, id=f"{cls.__name__}.{key.field}={value!r}")
    for cls, prefix, keys in CLASSES
    for key in keys
    for value in rejected_values(cls, prefix, key)
]


def test_every_keyed_field_has_a_rejected_value():
    covered = {(cls, key.field) for cls, key, _ in (case.values for case in CASES)}
    keyed = {(cls, key.field) for cls, _, keys in CLASSES for key in keys}
    assert len(keyed) == 7 + 14 + 2 + 4 + 3 + 5
    assert covered == keyed


@pytest.mark.parametrize("cls,key,value", CASES)
def test_a_class_rejects_what_its_key_rejects(cls, key, value):
    with pytest.raises(ValidationError, match=re.escape(repr(key.name))):
        build(cls, key.field, value)


SCALARS = [
    pytest.param(cls, key, id=f"{cls.__name__}.{key.field}")
    for cls, _, keys in CLASSES
    for key in keys
    if key.kind in (int, float)
]


@pytest.mark.parametrize("cls,key", SCALARS)
def test_a_class_takes_numpy_scalars(cls, key):
    # JSON never yields a numpy scalar, but a caller building the class may
    # stored as the Python number: random.Random takes no numpy integer seed
    kinds = (np.int32, np.int64) if key.kind is int else (np.float32, np.float64)
    for kind in kinds:
        value = getattr(build(cls, key.field, kind(key.default)), key.field)
        assert type(value) is key.kind
        assert value == pytest.approx(key.default, rel=1e-6)



def test_a_profile_stores_a_1d_numpy_array_as_a_tuple_of_floats():
    prof = EnhancementProfile("cpu", np.array([1, 2]), np.array([0.5, 0.25], np.float32))
    assert prof.demand_per_bit == (1.0, 2.0) and prof.service_rate == (0.5, 0.25)
    assert all(type(v) is float for v in prof.demand_per_bit + prof.service_rate)
    for value in (np.ones((2, 1)), np.float64(1.0)):
        with pytest.raises(ValidationError, match="'demand_per_bit' must list some numbers"):
            EnhancementProfile("cpu", value, [1.0, 1.0])


@pytest.mark.parametrize("build,message", [
    (lambda: QualityState(2, 2.5), "'num_algorithms' must be an integer"),
    (lambda: QualityState(2, True), "'num_algorithms' must be an integer"),
    (lambda: QualityState(2, -1), "'num_algorithms' must be >= 0, got -1"),
    (lambda: SynthSpec(num_servers=2.5), "'num_servers' must be an integer"),
    (lambda: SynthSpec(num_algorithms=True), "'num_algorithms' must be an integer"),
    (lambda: SynthSpec(num_servers=0), "'num_servers' must be >= 1, got 0"),
    (lambda: SynthSpec(num_algorithms=0), "'num_algorithms' must be >= 1, got 0"),
], ids=["state-algorithms-2.5", "state-algorithms-True", "state-algorithms-negative",
        "synth-servers-2.5", "synth-algorithms-True", "synth-servers-0", "synth-algorithms-0"])
def test_a_roster_count_is_checked_through_its_key(build, message):
    # a state may track no algorithm, where the generator needs one
    with pytest.raises(ValidationError, match=f"^key {re.escape(message)}$"):
        build()


def test_a_roster_count_takes_numpy_integers():
    state = QualityState(np.int64(2), np.int32(0))
    spec = SynthSpec(num_servers=np.int32(2), num_algorithms=np.int64(1))
    assert type(state.num_algorithms) is type(spec.num_servers) is type(spec.num_algorithms) is int
    assert (state.num_algorithms, spec.num_servers, spec.num_algorithms) == (0, 2, 1)
