"""Config schema: pinned show-config bytes, every key's type and bound
checks, and a fuzz over mutated documents."""

import copy
import hashlib
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camsched import cli
from camsched.config import emit_config, parse_config
from camsched.errors import ConfigError, ValidationError
from camsched.sim import SynthSpec


def show_config(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["show-config", "--config", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------ pinned bytes

PINNED_DOCS = {
    "default": "",
    "scalar-service-roster": {
        "servers": [
            {"gpu_capacity": 1e9, "cpu_capacity": 1e9},
            {"gpu_capacity": 0.0, "cpu_capacity": 2e9},
            {"gpu_capacity": 3, "cpu_capacity": 0},
        ],
        "algorithms": [
            {"kind": "gpu", "demand_per_bit": 100.0, "service_rate": 5e8},
            {"kind": "cpu", "demand_per_bit": [1, 2.5, 3], "service_rate": 7},
            {"kind": "cpu", "demand_per_bit": 40, "service_rate": [1e8, 2e8, 0]},
        ],
    },
    "ga-synth-overrides": {
        "seed": 12,
        "ga": {"population_size": 20, "generations": 30, "crossover_prob": 0.5,
               "mutation_prob": 0.25, "penalty_capacity": 50, "penalty_latency": 0,
               "seed": 7},
        "synth": {"horizon": 5, "cam_rows": 8, "cam_cols": 4, "smoothness": 0.5,
                  "drift": 0.1, "offsets": [0.4, 0.3, 0.2, 1], "cam_noise": 0,
                  "datasize_bits": [1e6, 2e6], "bandwidth_bps": [10000000, 3e7],
                  "accuracy_floor": 0.5, "accuracy_gain": 0.6,
                  "accuracy_noise": 0.01, "seed": 11},
    },
    "paths-and-top-level": {
        "devices": 3, "scheduler": "oracle", "oracle_limit": 1000,
        "latency_weight": 1, "max_latency_s": 2.5, "overhead_latency_s": 0,
        "window_depth": 2, "cam_threshold": -0.5, "denominator_floor": 1e-3,
        "quality_cap": 4, "default_accuracy": 0.75,
        "trace_path": "runs/t/trace.json", "metrics_path": "runs/m.jsonl",
    },
    # one and three algorithms take the generated default offsets
    "one-algorithm": {
        "servers": [{"gpu_capacity": 8.0, "cpu_capacity": 8.0}],
        "algorithms": [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0}],
    },
    "three-algorithms": {
        "servers": [{"gpu_capacity": 8.0, "cpu_capacity": 0.0}],
        "algorithms": [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 2.0}] * 3,
        "trace_path": None,
    },
}

# sha256 of `camsched show-config` on each document
PINNED_SHA256 = {
    "default": "d68dd99aa56ced633c5d0ff6971932323deb2e46b00148783e0dd5a7630a815a",
    "scalar-service-roster": "a2d3e29eb10d37c26dde0e3b45081763169c8238d48b6bdd8a9a5312aa30f7c9",
    "ga-synth-overrides": "e68e5584a361bbb747900470b0425bc8156c70d8752ea8e0c236badaf28d023a",
    "paths-and-top-level": "572e7adc12a9de308f2b056618cee406f44f4420e3db1567b3a25a50abe78d76",
    "one-algorithm": "bb1561d793fae31d78c1cf8b453aa90151287e63dbe5328f1e9e58175761f5d2",
    "three-algorithms": "2bc58f964940a64d009d2135c5e07c3a89242cca3ac9a032866dfa1a9aebe28e",
}


@pytest.mark.parametrize("name", sorted(PINNED_DOCS))
def test_show_config_bytes_are_pinned(tmp_path, capsys, name):
    code, out, err = show_config(tmp_path, capsys, PINNED_DOCS[name])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[name], out
    assert emit_config(parse_config(out)) == out


# ------------------------------------------------------- per-key checks

def _set(doc, path, value):
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value


# a default-length roster, so the default algorithms still apply
FOUR_SERVERS = [{"gpu_capacity": 8.0, "cpu_capacity": 8.0} for _ in range(4)]
ONE_ALGORITHM = [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0}]

# every scalar key: (where it sits, a value of the wrong type, a value out of
# bounds or None for a key without bounds)
SCALAR_KEYS = {
    "devices": ((), 2.5, 0),
    "seed": ((), "7", -1),
    "scheduler": ((), 3, "bogus"),
    "oracle_limit": ((), 1.0, 0),
    "latency_weight": ((), "0.5", -0.1),
    "max_latency_s": ((), [4.0], 0.0),
    "overhead_latency_s": ((), True, -1.0),
    "window_depth": ((), 5.0, 0),
    "cam_threshold": ((), None, None),
    "denominator_floor": ((), "x", 0.0),
    "quality_cap": ((), {}, -1.0),
    "default_accuracy": ((), False, 1.5),
    "trace_path": ((), 3, None),
    "metrics_path": ((), [], None),
    "gpu_capacity": (("servers", 0), "8", -1.0),
    "cpu_capacity": (("servers", 0), None, -1.0),
    "kind": (("algorithms", 0), 1, "tpu"),
    "demand_per_bit": (("algorithms", 0), "1e-7", -1.0),
    "service_rate": (("algorithms", 0), True, -4.0),
    "ga.population_size": (("ga",), 1.5, 0),
    "ga.generations": (("ga",), "10", 0),
    "ga.crossover_prob": (("ga",), None, 1.5),
    "ga.mutation_prob": (("ga",), True, -0.1),
    "ga.penalty_capacity": (("ga",), "1", -1.0),
    "ga.penalty_latency": (("ga",), [], -1.0),
    "ga.seed": (("ga",), 1.0, None),
    "synth.horizon": (("synth",), 3.0, -1),
    "synth.cam_rows": (("synth",), "4", 0),
    "synth.cam_cols": (("synth",), True, 0),
    "synth.smoothness": (("synth",), "0.2", 0.0),
    "synth.drift": (("synth",), None, -0.1),
    "synth.cam_noise": (("synth",), {}, -0.1),
    "synth.accuracy_floor": (("synth",), "x", 1.5),
    "synth.accuracy_gain": (("synth",), False, None),
    "synth.accuracy_noise": (("synth",), [0.1], -0.1),
    "synth.seed": (("synth",), 2.0, -1),
}


def _doc_with(name, value):
    where, _, _ = SCALAR_KEYS[name]
    key = name.rsplit(".", 1)[-1]
    if where[:1] == ("algorithms",):
        doc = {"servers": [{"gpu_capacity": 8.0, "cpu_capacity": 8.0}],
               "algorithms": copy.deepcopy(ONE_ALGORITHM),
               "synth": {"offsets": [0.25]}}
    else:
        doc = {"servers": copy.deepcopy(FOUR_SERVERS), "ga": {}, "synth": {}}
    _set(doc, where + (key,), value)
    return doc, key


CASES = [
    pytest.param(name, kind, id=f"{name}-{kind}")
    for name, (_, wrong, bound) in sorted(SCALAR_KEYS.items())
    for kind, value in (("type", wrong), ("bound", bound))
    if not (kind == "bound" and value is None)
]


@pytest.mark.parametrize("name,kind", CASES)
def test_scalar_key_rejects_wrong_type_and_out_of_bound(name, kind):
    _, wrong, bound = SCALAR_KEYS[name]
    doc, key = _doc_with(name, wrong if kind == "type" else bound)
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(json.dumps(doc))


def test_every_scalar_key_is_in_the_matrix():
    resolved = json.loads(emit_config(parse_config("")))
    listed = set(SCALAR_KEYS)
    for key, value in resolved.items():
        if isinstance(value, dict):
            for sub, sub_value in value.items():
                if not isinstance(sub_value, list):
                    assert f"{key}.{sub}" in listed
        elif isinstance(value, list):
            for entry in value:
                assert set(entry) <= listed
        else:
            assert key in listed


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_synth_spec_and_config_default_to_the_same_offsets(tmp_path, capsys, k):
    doc = {"servers": [{"gpu_capacity": 8.0, "cpu_capacity": 8.0}],
           "algorithms": [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 2.0}] * k}
    synth = parse_config(json.dumps(doc)).synth
    spec = SynthSpec(num_servers=1, num_algorithms=k, seed=synth.seed)
    assert spec == synth and len(spec.offsets) == k
    assert all(type(v) is float for v in spec.offsets)
    # offsets of the wrong length are one error line, from the spec's own check
    doc["synth"] = {"offsets": [0.3] * (k + 1)}
    code, out, err = show_config(tmp_path, capsys, doc)
    assert (code, out) == (1, "")
    assert err == "error: synth: need one brightness offset per algorithm\n"


def test_negative_generator_seed_is_one_error_line(tmp_path, capsys):
    with pytest.raises(ValidationError, match="seed"):
        SynthSpec(seed=-1)
    # only the generator needs the bound: the GA takes any integer seed
    assert parse_config('{"seed": -1, "synth": {"seed": 0}}').ga.rng_seed == -1
    code, out, err = show_config(tmp_path, capsys, {"seed": -1})
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_deeply_nested_config_is_one_error_line(tmp_path, capsys):
    # deeper than the interpreter's recursion limit, at which json raises RecursionError
    text = '{"synth": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ConfigError, match="config is not valid JSON: "):
        parse_config(text)
    code, out, err = show_config(tmp_path, capsys, text)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ------------------------------------------------------------------ fuzz

SUBSTITUTES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2)),
             max_size=5),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every key and list position of a resolved config document."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


BASE_DOCS = [json.loads(emit_config(parse_config(""))),
             json.loads(emit_config(parse_config(json.dumps(
                 PINNED_DOCS["scalar-service-roster"]))))]
BASE_PATHS = [[p for p in _paths(doc) if p] for doc in BASE_DOCS]


@st.composite
def mutated_docs(draw):
    base = draw(st.integers(0, len(BASE_DOCS) - 1))
    doc = copy.deepcopy(BASE_DOCS[base])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(BASE_PATHS[base]))
        try:
            if draw(st.booleans()):
                _set(doc, path, draw(SUBSTITUTES))
            else:
                node = doc
                for part in path[:-1]:
                    node = node[part]
                del node[path[-1]]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the parent
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_docs())
def test_mutated_config_is_one_error_line_or_strict_json(tmp_path, capsys, doc):
    code, out, err = show_config(tmp_path, capsys, json.dumps(doc))
    if code == 0:
        resolved = json.loads(out, parse_constant=pytest.fail)
        assert emit_config(parse_config(out)) == out, resolved
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------- finite, numeric values

ONE_SERVER = ('"servers": [{"gpu_capacity": %s, "cpu_capacity": 1}], '
              '"algorithms": [{"kind": "cpu", "demand_per_bit": 1, "service_rate": 1}]')

NOT_FINITE_OR_NOT_NUMERIC = {
    "nan-deadline": ('{"max_latency_s": NaN}', "max_latency_s"),
    "infinite-weight": ('{"latency_weight": Infinity}', "latency_weight"),
    "overflowing-overhead": ('{"overhead_latency_s": 1e999}', "overhead_latency_s"),
    "huge-integer-cap": ('{"quality_cap": 1%s}' % ("0" * 400), "quality_cap"),
    "minus-infinite-threshold": ('{"cam_threshold": -Infinity}', "cam_threshold"),
    "infinite-gpu-capacity": ("{%s}" % (ONE_SERVER % "Infinity"), "gpu_capacity"),
    "infinite-penalty": ('{"ga": {"penalty_capacity": Infinity}}', "penalty_capacity"),
    "nan-accuracy-gain": ('{"synth": {"accuracy_gain": NaN}}', "accuracy_gain"),
    "infinite-bandwidth": ('{"synth": {"bandwidth_bps": [1, Infinity]}}', "bandwidth_bps"),
    "string-offset": ('{"synth": {"offsets": ["a", 1, 2, 3]}}', "offsets"),
    "bool-offset": ('{"synth": {"offsets": [true, 1, 2, 3]}}', "offsets"),
    "null-offset": ('{"synth": {"offsets": [null, 1, 2, 3]}}', "offsets"),
    "bool-datasize": ('{"synth": {"datasize_bits": [true, 2]}}', "datasize_bits"),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE_OR_NOT_NUMERIC))
def test_config_numbers_are_finite_and_numeric(tmp_path, capsys, case):
    text, key = NOT_FINITE_OR_NOT_NUMERIC[case]
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config(text)
    code, out, err = show_config(tmp_path, capsys, text)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
