"""The classes a config section builds check each keyed field through its
key: direct construction rejects what the config rejects, naming the key."""

import math
import re

import numpy as np
import pytest

from camsched.errors import ValidationError
from camsched.keys import keys_of
from camsched.sched import GaConfig
from camsched.sim import SynthSpec
from camsched.sysmodel import EdgeServer, ModelConstants

from test_config import SCALAR_KEYS

# each class with the prefix of its keys in SCALAR_KEYS
CLASSES = ((GaConfig, "ga."), (SynthSpec, "synth."), (EdgeServer, ""), (ModelConstants, ""))

# the fields each class needs besides the one under test
BASE = {ModelConstants: {"num_devices": 1},
        EdgeServer: {"gpu_capacity": 1.0, "cpu_capacity": 1.0}}


def build(cls, field, value):
    """`cls` with `field` set to `value` and every other field valid."""
    return cls(**dict(BASE.get(cls, {}), **{field: value}))


# values the config rejects for keys that SCALAR_KEYS does not list, and the
# values each class accepted before it checked through its keys
EXTRA = {
    SynthSpec: {"offsets": [(0.3, "x", 0.2, 0.1), (0.3, math.nan, 0.2, 0.1)],
                "datasize_bits": [(1.0, math.inf), "ab", (1.0,)],
                "bandwidth_bps": [[1.0, 2.0, 3.0], (True, 2.0)],
                "drift": [math.inf], "accuracy_gain": [math.nan], "horizon": [2.5]},
    GaConfig: {"population_size": [True]},
    EdgeServer: {"gpu_capacity": [True]},
    ModelConstants: {"overhead_latency_s": [math.inf]},
}


def rejected_values(cls, prefix, key):
    values = []
    if prefix + key.name in SCALAR_KEYS:
        _, wrong, bound = SCALAR_KEYS[prefix + key.name]
        values = [wrong] if bound is None else [wrong, bound]
    return values + EXTRA.get(cls, {}).get(key.name, [])


CASES = [
    pytest.param(cls, key, value, id=f"{cls.__name__}.{key.field}={value!r}")
    for cls, prefix in CLASSES
    for key in keys_of(cls)
    for value in rejected_values(cls, prefix, key)
]


def test_every_keyed_field_has_a_rejected_value():
    covered = {(cls, key.field) for cls, key, _ in (case.values for case in CASES)}
    keyed = {(cls, key.field) for cls, _ in CLASSES for key in keys_of(cls)}
    assert len(keyed) == 7 + 13 + 2 + 3
    assert covered == keyed


@pytest.mark.parametrize("cls,key,value", CASES)
def test_a_class_rejects_what_its_key_rejects(cls, key, value):
    with pytest.raises(ValidationError, match=re.escape(repr(key.name))):
        build(cls, key.field, value)


SCALARS = [
    pytest.param(cls, key, id=f"{cls.__name__}.{key.field}")
    for cls, _ in CLASSES
    for key in keys_of(cls)
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

