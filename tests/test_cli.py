"""Config grammar, file formats, and end-to-end command-line runs."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camsched import cli
from camsched.config import (
    build_model,
    build_quality_state,
    emit_config,
    parse_config,
    parse_config_file,
)
from camsched.errors import CamSchedError, ConfigError, TraceError, ValidationError
from camsched.fileio import (
    format_metrics,
    load_cam,
    load_trace,
    round9,
    save_cam,
    save_trace,
)
from camsched.sim import SCHEDULER_CHOICES, SlotData, SynthSpec, Trace, generate_synthetic, run
from test_config import SUBSTITUTES, _paths, _set


def load_metrics(path):
    """Parse a metrics file back into (slot records, summary record)."""
    records = []
    summary = None
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "summary" in doc:
                summary = doc["summary"]
            else:
                records.append(doc)
    if summary is None:
        raise ValidationError(f"{path}: metrics stream has no summary record")
    return records, summary


# -------------------------------------------------------------------- config

def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.num_devices == 10
    assert cfg.latency_weight == 0.5
    assert cfg.max_latency_s == 4.0
    assert cfg.window_depth == 5
    assert cfg.cam_threshold == 0.4
    model = build_model(cfg)
    assert model.num_servers == 4
    assert model.num_algorithms == 4
    assert model.servers[0].gpu_capacity == 34.1e12
    assert model.servers[0].cpu_capacity == 3.5e9
    assert model.servers[1].gpu_capacity == 1.5e12
    assert model.servers[2].gpu_capacity == 0.0
    assert model.servers[3].cpu_capacity == 1e9
    state = build_quality_state(cfg)
    assert state.window_depth == 5


def test_empty_object_equals_empty_string():
    assert parse_config("") == parse_config("{}")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus_knob"):
        parse_config('{"bogus_knob": 3}')


def test_unknown_nested_key_is_named():
    with pytest.raises(ConfigError, match="elitism"):
        parse_config('{"ga": {"elitism": 2}}')


def test_range_error_names_field_and_bound():
    with pytest.raises(ConfigError, match=r"latency_weight.*(>=|non-negative|0)"):
        parse_config('{"latency_weight": -1}')
    with pytest.raises(ConfigError, match="devices"):
        parse_config('{"devices": 0}')
    with pytest.raises(ConfigError, match="crossover_prob"):
        parse_config('{"ga": {"crossover_prob": 1.5}}')


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError):
        parse_config('{"seed": true}')


def test_config_seed_flows_into_ga_and_synth():
    cfg = parse_config('{"seed": 99}')
    assert cfg.seed == 99
    assert cfg.ga.rng_seed == 99
    assert cfg.synth.seed == 99
    cfg2 = parse_config('{"seed": 99, "ga": {"seed": 7}}')
    assert cfg2.ga.rng_seed == 7
    assert cfg2.synth.seed == 99


def test_custom_roster_requires_algorithms():
    doc = '{"servers": [{"gpu_capacity": 1e9, "cpu_capacity": 1e9}]}'
    with pytest.raises(ConfigError, match="algorithms"):
        parse_config(doc)


def test_custom_roster_with_scalar_service():
    doc = json.dumps({
        "servers": [
            {"gpu_capacity": 1e9, "cpu_capacity": 1e9},
            {"gpu_capacity": 0.0, "cpu_capacity": 2e9},
        ],
        "algorithms": [
            {"kind": "gpu", "demand_per_bit": 100.0, "service_rate": 5e8},
        ],
    })
    model = build_model(parse_config(doc))
    assert model.num_algorithms == 1
    prof = model.profiles[0]
    # scalar service broadcasts, but a server without the pool stays at zero
    assert prof.service_rate[0] == 5e8
    assert prof.service_rate[1] == 0.0


def test_emit_parse_emit_is_byte_stable():
    for doc in ("", '{"seed": 5}', '{"devices": 3, "ga": {"generations": 20}}'):
        first = emit_config(parse_config(doc))
        second = emit_config(parse_config(first))
        assert first == second


# ------------------------------------------------------------------ CAM files

def test_cam_file_round_trip(tmp_path):
    maps = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5, 2.0], [1.0 / 3.0, 0.0]])]
    save_cam(maps, str(tmp_path / "dev00.npy"))
    back = load_cam(str(tmp_path / "dev00.npy"))
    assert back.dtype == np.float64 and not back.flags.writeable
    np.testing.assert_array_equal(back, maps)
    # the bytes np.save writes for the same stack
    with open(tmp_path / "np.npy", "wb") as fh:
        np.save(fh, np.stack(maps))
    assert (tmp_path / "dev00.npy").read_bytes() == (tmp_path / "np.npy").read_bytes()


def test_cam_file_negative_value(tmp_path):
    np.save(tmp_path / "neg.npy", np.array([[[-0.1, 0.5]]]))
    with pytest.raises(ValidationError, match="must be non-negative"):
        load_cam(str(tmp_path / "neg.npy"))


def test_cam_file_bad_header(tmp_path):
    # a text CAM, as versions before the .npy stacks wrote, and a cut magic
    for data in (b"2 2\n1 0 0 1\n", b"two by two\n1 0 0 1\n", b"\x93NUMP", b""):
        path = tmp_path / "h.cam"
        path.write_bytes(data)
        with pytest.raises(ValidationError) as raised:
            load_cam(str(path))
        assert str(raised.value) == f"{path}: not a .npy file"


def npy_file(header: str, data: bytes = b"", version: bytes = b"\x01\x00") -> bytes:
    """A .npy file with a literal header: a 2-byte length for 1.0, 4 for later."""
    length = len(header).to_bytes(2 if version == b"\x01\x00" else 4, "little")
    return b"\x93NUMPY" + version + length + header.encode("latin1") + data


def npy_header(descr, shape) -> str:
    return f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {shape!r}, }}"


F8_2X2X2 = npy_header("<f8", (2, 2, 2))
# the check each malformed file trips
HEADER, ARRAY, SIZE = "malformed .npy header", "int, uint or float array", "data bytes"
# .npy CAM files the loader must refuse, each as one ValidationError naming
# the file; the data is the size the header implies unless the data is at fault
MALFORMED_NPY = {
    "unterminated-header": (HEADER, npy_file(F8_2X2X2[:-3], bytes(64))),
    "object-dtype": (ARRAY, npy_file(npy_header("|O", (2, 2, 2)), bytes(64))),
    "bool-dtype": (ARRAY, npy_file(npy_header("|b1", (2, 2, 2)), bytes(8))),
    "complex-dtype": (ARRAY, npy_file(npy_header("<c16", (2, 2, 2)), bytes(128))),
    "structured-dtype": (ARRAY, npy_file(npy_header([("a", "<f8")], (2, 2, 2)), bytes(64))),
    "2d-shape": (ARRAY, npy_file(npy_header("<f8", (2, 2)), bytes(32))),
    "empty-shape": (ARRAY, npy_file(npy_header("<f8", (2, 0, 3)))),
    "huge-shape": (SIZE, npy_file(npy_header("<f8", (2, 2**32, 2**32)), bytes(16))),
    "truncated-data": (SIZE, npy_file(F8_2X2X2, bytes(56))),
    "trailing-bytes": (SIZE, npy_file(F8_2X2X2, bytes(72))),
    "version-3.0": (HEADER, npy_file(F8_2X2X2, bytes(64), version=b"\x03\x00")),
    "magic-only": (HEADER, b"\x93NUMPY"),
    "magic-and-version-only": (HEADER, b"\x93NUMPY\x01\x00"),
    # what numpy's header parse raises besides a ValueError
    "unhashable-header-key": (HEADER, npy_file("{[]: 1}", bytes(64))),
    "indented-header": (HEADER, npy_file("x\n  y\n z", bytes(64))),
    "python2-header": (HEADER, npy_file(F8_2X2X2.replace("2, 2, 2", "2L, 2L, 2L"), bytes(64))),
    # numpy's message for this one spans lines
    "long-header": (HEADER, npy_file(F8_2X2X2 + " " * 10000, bytes(64), version=b"\x02\x00")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_malformed_npy_cam_is_one_validation_error(tmp_path, case):
    reason, data = MALFORMED_NPY[case]
    path = tmp_path / "bad.npy"
    path.write_bytes(data)
    with pytest.raises(ValidationError) as raised:
        load_cam(str(path))
    message = str(raised.value)
    assert message.startswith(f"{path}: ") and reason in message, message
    assert "\n" not in message


@pytest.mark.parametrize("dtype,fortran", [
    ("<f4", False), (">f8", False), ("<f8", True), (">f4", True), ("<i4", False), (">u2", False),
])
def test_npy_cam_of_any_dtype_and_order_loads_as_float64(tmp_path, dtype, fortran):
    values = (np.arange(12).reshape(2, 2, 3) * 0.375 + 0.1).astype(dtype)
    if fortran:
        values = np.asfortranarray(values)
    with open(tmp_path / "c.npy", "wb") as fh:
        np.save(fh, values)
    back = load_cam(str(tmp_path / "c.npy"))
    assert back.dtype == np.float64 and back.flags.c_contiguous and not back.flags.writeable
    np.testing.assert_array_equal(back, values.astype(np.float64))


def test_cam_format_comes_from_content_not_name(tmp_path):
    maps = [np.array([[0.1, 0.2], [1.0 / 3.0, 7.0]])]
    save_cam(maps, str(tmp_path / "a.cam"))
    np.testing.assert_array_equal(load_cam(str(tmp_path / "a.cam")), maps)
    (tmp_path / "b.npy").write_text("2 2\n0.1 0.2\n0.3 7.0\n")
    with pytest.raises(ValidationError, match="not a .npy file"):
        load_cam(str(tmp_path / "b.npy"))


# ------------------------------------------------------------------- metrics

def test_metrics_record_schema_exact():
    spec = SynthSpec(num_devices=2, num_servers=2, num_algorithms=1,
                     horizon=2, offsets=(0.25,), seed=3)
    trace = generate_synthetic(spec)
    cfg = parse_config('{"devices": 2, "servers": [{"gpu_capacity": 8, "cpu_capacity": 8}, {"gpu_capacity": 8, "cpu_capacity": 8}], "algorithms": [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0}]}')
    model = build_model(cfg)
    metrics, summary = run(trace, model, scheduler="capacity",
                           state=build_quality_state(cfg))
    text = format_metrics(metrics, summary)
    lines = text.strip().split("\n")
    assert len(lines) == 3  # two slots + summary
    for line in lines[:-1]:
        record = json.loads(line)
        assert set(record) == {
            "slot", "decisions", "rejected", "quality",
            "latency_s", "utility", "total_utility", "feasible",
        }
        assert isinstance(record["decisions"], list)
        assert all(len(pair) == 2 for pair in record["decisions"])
    tail = json.loads(lines[-1])
    assert set(tail) == {"summary"}
    assert set(tail["summary"]) == {
        "slots", "mean_total_utility", "mean_latency_s",
        "p50_latency_s", "p95_latency_s", "feasible_rate",
    }


def test_metrics_infinities_survive_round_trip(tmp_path):
    # a rejected device produces -inf utility; the stream must carry it
    from camsched.sim import SlotData, Trace
    from camsched.sysmodel import (
        EdgeServer, EnhancementProfile, KIND_GPU, ModelConstants, SystemModel,
    )
    servers = (EdgeServer(5.0, 100.0),)
    profiles = (EnhancementProfile(1, KIND_GPU, np.array([0.0]), np.array([5.0])),)
    model = SystemModel(servers, profiles, ModelConstants(num_devices=2))
    data = SlotData(
        datasize_bits=np.full(2, 1e6),
        bandwidth_bps=np.full((2, 1), 1e7),
        quality=np.array([[0.0, 0.9], [0.0, 0.9]]),
    )
    trace = Trace(2, 1, 1, (data,))
    from camsched.camq import QualityState
    metrics, summary = run(trace, model, scheduler="capacity",
                           state=QualityState(2, 1))
    from camsched.fileio import emit_metrics
    path = str(tmp_path / "m.jsonl")
    emit_metrics(metrics, path, summary)
    records, tail = load_metrics(path)
    assert records[0]["utility"][1] == -math.inf
    assert records[0]["latency_s"][1] == math.inf
    assert records[0]["total_utility"] == -math.inf


def test_round9():
    assert round9(1.23456789123) == 1.23456789
    assert round9(math.inf) == math.inf
    assert round9(-0.0) == 0.0
    assert round9(1e-300) == 1e-300


# ------------------------------------------------------------------ trace io

def test_trace_round_trip_cam_payload(tmp_path):
    spec = SynthSpec(num_devices=2, num_servers=2, num_algorithms=2,
                     horizon=3, cam_rows=4, cam_cols=4,
                     offsets=(0.3, 0.1), seed=13)
    trace = generate_synthetic(spec)
    manifest = save_trace(trace, str(tmp_path / "t"))
    back = load_trace(manifest)
    assert back.num_devices == 2 and back.num_algorithms == 2
    assert back.horizon == 3
    for s1, s2 in zip(trace.slots, back.slots):
        np.testing.assert_allclose(s1.datasize_bits, s2.datasize_bits)
        np.testing.assert_allclose(s1.bandwidth_bps, s2.bandwidth_bps)
        np.testing.assert_allclose(s1.accuracy, s2.accuracy)
        for m in range(2):
            np.testing.assert_allclose(
                s1.lowlight[m].values, s2.lowlight[m].values
            )
            for k in range(2):
                np.testing.assert_allclose(
                    s1.enhanced[m][k].values, s2.enhanced[m][k].values
                )


def test_save_trace_writes_one_cam_stack_per_device(tmp_path):
    spec = SynthSpec(num_devices=3, num_servers=1, num_algorithms=2, horizon=3,
                     cam_rows=5, cam_cols=4, offsets=(0.3, 0.1), seed=21)
    cam_trace = generate_synthetic(spec)
    # a quality slot between CAM slots takes no room in the stacks
    quality = SlotData(np.full(3, 1e7), np.full((3, 1), 2e7), quality=np.zeros((3, 3)))
    slots = (cam_trace.slots[0], quality, *cam_trace.slots[1:])
    manifest = save_trace(Trace(3, 1, 2, slots), str(tmp_path / "t"))
    cams = tmp_path / "t" / "cams"
    assert sorted(p.name for p in cams.iterdir()) == ["dev00.npy", "dev01.npy", "dev02.npy"]
    for m in range(3):
        with open(cams / f"dev{m:02d}.npy", "rb") as fh:
            np.lib.format.read_magic(fh)
            assert np.lib.format.read_array_header_1_0(fh) == ((9, 5, 4), False, np.dtype("<f8"))
    hexes = lambda cam: [v.hex() for v in cam.values.ravel().tolist()]
    for saved, back in zip(slots, load_trace(manifest).slots):
        assert (saved.lowlight is None) == (back.lowlight is None)
        if saved.lowlight is None:
            continue
        for m in range(3):
            assert hexes(back.lowlight[m]) == hexes(saved.lowlight[m])
            assert [hexes(c) for c in back.enhanced[m]] == [hexes(c) for c in saved.enhanced[m]]
            assert not back.lowlight[m].values.flags.writeable


def test_load_trace_missing_file(tmp_path):
    with pytest.raises((CamSchedError, OSError)):
        load_trace(str(tmp_path / "nope" / "trace.json"))


# ---------------------------------------------------------------- CLI wiring

def run_cli(args):
    return cli.main(args)


def test_cli_gen_trace_and_simulate_byte_identical(tmp_path, capsys):
    trace_dir = str(tmp_path / "trace")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "devices": 2, "seed": 5,
        "synth": {"horizon": 4, "offsets": [0.3, 0.1],
                  "cam_rows": 8, "cam_cols": 8},
        "servers": [
            {"gpu_capacity": 8.0, "cpu_capacity": 8.0},
            {"gpu_capacity": 8.0, "cpu_capacity": 8.0},
        ],
        "algorithms": [
            {"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0},
            {"kind": "cpu", "demand_per_bit": 2e-7, "service_rate": 4.0},
        ],
    }))
    assert run_cli(["gen-trace", "--config", str(cfg_path), "--out", trace_dir]) == 0
    manifest = str(tmp_path / "trace" / "trace.json")

    out1 = str(tmp_path / "m1.jsonl")
    out2 = str(tmp_path / "m2.jsonl")
    for out in (out1, out2):
        code = run_cli([
            "simulate", "--config", str(cfg_path),
            "--trace", manifest, "--out", out, "--scheduler", "ga",
        ])
        assert code == 0
    capsys.readouterr()
    with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
        assert fh1.read() == fh2.read()


def test_cli_gen_trace_reruns_byte_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert run_cli(["gen-trace", "--out", out, "--seed", "3",
                        "--config", str(make_small_cfg(tmp_path))]) == 0
        paths.append(out)
    import filecmp
    cmp = filecmp.dircmp(paths[0], paths[1])
    assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
    sub = filecmp.dircmp(paths[0] + "/cams", paths[1] + "/cams")
    assert not sub.diff_files


def make_small_cfg(tmp_path):
    p = tmp_path / "small.json"
    if not p.exists():
        p.write_text(json.dumps({
            "devices": 2,
            "synth": {"horizon": 2, "offsets": [0.25],
                      "cam_rows": 4, "cam_cols": 4},
            "servers": [{"gpu_capacity": 8.0, "cpu_capacity": 8.0}],
            "algorithms": [
                {"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0},
            ],
        }))
    return p


@pytest.mark.parametrize("key", ["trace_path", "metrics_path"])
def test_nul_byte_in_config_path_is_one_error_line(tmp_path, capsys, key):
    small = make_small_cfg(tmp_path)
    doc = dict(json.loads(small.read_text()), **{key: "a\x00b"})
    with pytest.raises(ConfigError, match=key):
        parse_config(json.dumps(doc))
    assert run_cli(["gen-trace", "--config", str(small), "--out", str(tmp_path / "t")]) == 0
    cfg = tmp_path / "nul.json"
    cfg.write_text(json.dumps(doc))
    # the key gives the path the command line leaves out
    given = {"trace_path": ["--out", str(tmp_path / "m.jsonl")],
             "metrics_path": ["--trace", str(tmp_path / "t" / "trace.json")]}[key]
    capsys.readouterr()
    code = run_cli(["simulate", "--config", str(cfg)] + given)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err


def test_cli_schedule_and_oracle_agree(tmp_path, capsys):
    cfg = make_small_cfg(tmp_path)
    trace_dir = str(tmp_path / "t")
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", trace_dir,
                    "--seed", "11"]) == 0
    manifest = trace_dir + "/trace.json"
    assert run_cli(["schedule", "--config", str(cfg), "--trace", manifest,
                    "--slot", "1", "--scheduler", "oracle", "--seed", "11"]) == 0
    sched_out = capsys.readouterr().out
    assert run_cli(["oracle", "--config", str(cfg), "--trace", manifest,
                    "--slot", "1", "--seed", "11"]) == 0
    oracle_out = capsys.readouterr().out
    got = json.loads(sched_out.strip().split("\n")[-1])
    want = json.loads(oracle_out.strip().split("\n")[-1])
    assert got["decisions"] == want["decisions"]


ONE_GPU_SERVER = {
    "synth": {"horizon": 2, "offsets": [0.25], "cam_rows": 4, "cam_cols": 4},
    "servers": [{"gpu_capacity": 8.0, "cpu_capacity": 8.0}],
    "algorithms": [{"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0}],
}


@pytest.mark.parametrize("case", [
    # the 0.05 s overhead alone misses the deadline: no decision is feasible
    {"devices": 2, "max_latency_s": 0.01},
    # the 8-unit gpu pool holds two 4-unit reservations: capacity rejects one
    {"devices": 3},
], ids=["nothing-feasible", "one-rejected"])
def test_cli_schedule_prints_the_simulate_slot_record(tmp_path, capsys, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(ONE_GPU_SERVER, **case)))
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    manifest = str(tmp_path / "t" / "trace.json")
    out = str(tmp_path / "m.jsonl")
    records = {}
    for name in SCHEDULER_CHOICES:
        assert run_cli(["simulate", "--config", str(cfg), "--trace", manifest,
                        "--out", out, "--scheduler", name]) == 0
        capsys.readouterr()
        assert run_cli(["schedule", "--config", str(cfg), "--trace", manifest,
                        "--slot", "0", "--scheduler", name]) == 0
        got = json.loads(capsys.readouterr().out)
        records[name] = load_metrics(out)[0][0]
        assert got == dict(records[name], scheduler=name)
    if "max_latency_s" in case:
        assert not records["oracle"]["feasible"]
        assert all(k == 0 for _, k in records["oracle"]["decisions"])
    else:
        assert records["capacity"]["rejected"] == [2]


@pytest.mark.parametrize("args", [
    ["gen-trace", "--seed", "-1"],
    ["oracle", "--oracle-limit", "0"],
    ["schedule", "--scheduler", "oracle", "--oracle-limit", "-5"],
], ids=["negative-seed", "oracle-limit-0", "schedule-oracle-limit-negative"])
def test_cli_bad_override_is_one_error_line(tmp_path, capsys, args):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    target = ["--out", str(tmp_path / "again")]
    if args[0] != "gen-trace":
        target = ["--trace", str(tmp_path / "t" / "trace.json")]
    code = run_cli(args + ["--config", str(cfg)] + target)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("seed" if "--seed" in args else "--oracle-limit") in err


class Overwrite(NamedTuple):
    """A mutation that replaces one file of the trace directory with raw bytes."""

    path: str   # relative to the trace directory
    data: bytes


def set_lowlight_ref(ref, overwrite: Overwrite | None = None):
    """A mutation that makes `ref` the reference of slot 0's low-light map of
    device 1, and writes `overwrite` when one is given."""
    def mutate(doc):
        doc["slots"][0]["cams"]["lowlight"][1] = ref
        return overwrite
    return mutate


def set_last_enhanced_ref(overwrite: Overwrite):
    """A mutation that makes map 0 of the file `overwrite` writes the last
    slot's first enhanced map of device 1."""
    def mutate(doc):
        doc["slots"][-1]["cams"]["enhanced"][1][0] = [overwrite.path, 0]
        return overwrite
    return mutate


def set_lowlight_index(index):
    """A mutation that gives slot 0's low-light map of device 1 another stack index."""
    return lambda doc: doc["slots"][0]["cams"]["lowlight"][1].__setitem__(1, index)


class CamRefDefect(NamedTuple):
    """A broken CAM reference or CAM stack, and the error it gives: slot 0,
    `cams lowlight`, `path` and `reason`."""

    mutate: object   # applied to the manifest, as a TRACE_MUTATIONS entry
    path: str        # relative to the trace directory
    reason: str


STACK = "cams/dev01.npy"
F8_STACK = npy_header("<f8", (4, 4, 4))
NPY_MAP = npy_file(npy_header("<f8", (4, 4)), bytes(128))
TEXT_MAP = b"4 4\n" + b"0 " * 16
NOT_A_REF = "is not a [file, index] CAM reference"
# make_small_cfg's device 1 has one stack of 2 slots x 2 maps of 4x4, and
# slot 0 is the first slot that references it
CAM_REF_DEFECTS = {
    # a bare file name, as the retired single-map layout wrote, is refused
    # whatever the file holds, or if it is missing
    "missing-cam-file": CamRefDefect(
        set_lowlight_ref("cams/missing.npy"), "cams/missing.npy", NOT_A_REF),
    "stack-as-file-name": CamRefDefect(set_lowlight_ref(STACK), STACK, NOT_A_REF),
    "npy-map-file-name": CamRefDefect(
        set_lowlight_ref("cams/slot0000_dev01_low.npy",
                         Overwrite("cams/slot0000_dev01_low.npy", NPY_MAP)),
        "cams/slot0000_dev01_low.npy", NOT_A_REF),
    "text-map-file-name": CamRefDefect(
        set_lowlight_ref("cams/slot0000_dev01_low.cam",
                         Overwrite("cams/slot0000_dev01_low.cam", TEXT_MAP)),
        "cams/slot0000_dev01_low.cam", NOT_A_REF),
    "missing-cam-stack": CamRefDefect(
        set_lowlight_ref(["cams/missing.npy", 0]), "cams/missing.npy", "No such file"),
    "npy-map-as-stack": CamRefDefect(
        set_lowlight_ref(["cams/map.npy", 0], Overwrite("cams/map.npy", NPY_MAP)),
        "cams/map.npy", "non-empty 3-D int, uint or float array"),
    "text-map-as-stack": CamRefDefect(
        set_lowlight_ref(["cams/map.cam", 0], Overwrite("cams/map.cam", TEXT_MAP)),
        "cams/map.cam", "not a .npy file"),
    "stack-index-past-end": CamRefDefect(set_lowlight_index(4), STACK, "CAM index 4 "),
    "stack-index-negative": CamRefDefect(set_lowlight_index(-1), STACK, "CAM index -1 "),
    "stack-index-bool": CamRefDefect(set_lowlight_index(True), STACK, "CAM index True "),
    "stack-index-float": CamRefDefect(set_lowlight_index(1.0), STACK, "CAM index 1.0 "),
    "stack-index-string": CamRefDefect(set_lowlight_index("1"), STACK, "CAM index '1' "),
    "stack-index-null": CamRefDefect(set_lowlight_index(None), STACK, "CAM index None "),
    "stack-truncated-data": CamRefDefect(
        lambda doc: Overwrite(STACK, npy_file(F8_STACK, bytes(504))), STACK, "data bytes"),
    "stack-trailing-bytes": CamRefDefect(
        lambda doc: Overwrite(STACK, npy_file(F8_STACK, bytes(520))), STACK, "data bytes"),
    # np.prod of this shape wraps to 0, which would match the empty data
    "stack-huge-shape": CamRefDefect(
        lambda doc: Overwrite(STACK, npy_file(npy_header("<f8", (2**32,) * 3))),
        STACK, "data bytes"),
    "stack-unterminated-header": CamRefDefect(
        lambda doc: Overwrite(STACK, npy_file(F8_STACK[:-3], bytes(512))), STACK, HEADER),
    "stack-object-dtype": CamRefDefect(
        lambda doc: Overwrite(STACK, npy_file(npy_header("|O", (4, 4, 4)), bytes(512))),
        STACK, ARRAY),
}


TRACE_MUTATIONS = {
    "missing-datasize": lambda doc: doc["slots"][0].pop("datasize_bits"),
    "missing-lowlight": lambda doc: doc["slots"][0]["cams"].pop("lowlight"),
    "ragged-bandwidth": lambda doc: doc["slots"][0]["bandwidth_bps"][0].append(1.0),
    "devices-not-int": lambda doc: doc.update(devices="x"),
    "nan-accuracy": lambda doc: doc["slots"][0]["accuracy"][0].__setitem__(1, math.nan),
    "slots-not-list": lambda doc: doc.update(slots=5),
    "slot-not-object": lambda doc: doc.update(slots=[3]),
    "lowlight-not-list": lambda doc: doc["slots"][0]["cams"].update(lowlight=5),
    "enhanced-not-list": lambda doc: doc["slots"][0]["cams"].update(enhanced=5),
    "enhanced-device-not-list":
        lambda doc: doc["slots"][0]["cams"]["enhanced"].__setitem__(0, 5),
    "lowlight-ref-not-string":
        lambda doc: doc["slots"][0]["cams"]["lowlight"].__setitem__(0, 7),
    "manifest-trailing-0xff":
        lambda doc: Overwrite("trace.json", json.dumps(doc).encode() + b"\xff"),
    "cam-leading-0xff":
        lambda doc: Overwrite(doc["slots"][0]["cams"]["lowlight"][0][0], b"\xff" + TEXT_MAP),
    "devices-infinite": lambda doc: doc.update(devices=math.inf),
    "devices-fractional": lambda doc: doc.update(devices=2.5),
    "devices-string": lambda doc: doc.update(devices="2"),
    "nan-datasize-last-slot":
        lambda doc: doc["slots"][-1]["datasize_bits"].__setitem__(1, math.nan),
    "infinite-datasize-last-slot":
        lambda doc: doc["slots"][-1]["datasize_bits"].__setitem__(1, math.inf),
    "negative-datasize-last-slot":
        lambda doc: doc["slots"][-1]["datasize_bits"].__setitem__(1, -1.0),
    "nan-bandwidth-last-slot":
        lambda doc: doc["slots"][-1]["bandwidth_bps"][1].__setitem__(0, math.nan),
    "infinite-bandwidth-last-slot":
        lambda doc: doc["slots"][-1]["bandwidth_bps"][1].__setitem__(0, math.inf),
    "negative-bandwidth-last-slot":
        lambda doc: doc["slots"][-1]["bandwidth_bps"][1].__setitem__(0, -1.0),
    "string-datasize": lambda doc: doc["slots"][0].update(datasize_bits=["1e7", "1e7"]),
    "bool-bandwidth": lambda doc: doc["slots"][0].update(bandwidth_bps=[[True], [False]]),
    "null-accuracy": lambda doc: doc["slots"][0].update(accuracy=None),
    "null-datasize": lambda doc: doc["slots"][0].update(datasize_bits=None),
    "lowlight-ref-nul-byte":
        lambda doc: doc["slots"][0]["cams"]["lowlight"].__setitem__(0, ["a\x00b.npy", 0]),
    # a malformed .npy file holds the last slot's first enhanced map of device 1
    **{f"npy-{case}": set_last_enhanced_ref(Overwrite("cams/bad.npy", data))
       for case, (_, data) in MALFORMED_NPY.items()},
    **{case: defect.mutate for case, defect in CAM_REF_DEFECTS.items()},
}


@pytest.mark.parametrize("mutation", sorted(TRACE_MUTATIONS))
def test_cli_malformed_trace_is_one_error_line(tmp_path, capsys, mutation):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    manifest = tmp_path / "t" / "trace.json"
    doc = json.loads(manifest.read_text())
    change = TRACE_MUTATIONS[mutation](doc)
    manifest.write_text(json.dumps(doc))
    if isinstance(change, Overwrite):
        (tmp_path / "t" / change.path).write_bytes(change.data)
    with pytest.raises(TraceError):
        load_trace(str(manifest))
    capsys.readouterr()
    code = run_cli(["simulate", "--config", str(cfg), "--trace", str(manifest),
                    "--out", str(tmp_path / "m.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def write_quality_trace(tmp_path) -> str:
    """A two-slot quality-matrix trace that fits make_small_cfg."""
    slot = SlotData(np.full(2, 1e7), np.full((2, 1), 2e7),
                    quality=np.array([[0.0, 1.0], [0.0, 0.5]]))
    return save_trace(Trace(2, 1, 1, (slot, slot)), str(tmp_path / "q"))


QUALITY_MUTATIONS = {
    "nan-quality-last-slot": lambda doc: doc["slots"][-1]["quality"][1].__setitem__(1, math.nan),
    "quality-column-0-last-slot":
        lambda doc: doc["slots"][-1]["quality"][1].__setitem__(0, 0.5),
    "string-quality": lambda doc: doc["slots"][0].update(quality=[["0", "1"], ["0", "1"]]),
    "null-quality": lambda doc: doc["slots"][0].update(quality=None),
}

# defects that got past load_trace while it checked no values, and the slot
# their error names (None: a trace-wide count)
NAMED_DEFECTS = {
    "devices-infinite": None,
    "devices-fractional": None,
    "devices-string": None,
    "nan-datasize-last-slot": 1,
    "infinite-datasize-last-slot": 1,
    "negative-datasize-last-slot": 1,
    "nan-bandwidth-last-slot": 1,
    "infinite-bandwidth-last-slot": 1,
    "negative-bandwidth-last-slot": 1,
    "string-datasize": 0,
    "bool-bandwidth": 0,
    "nan-quality-last-slot": 1,
    "quality-column-0-last-slot": 1,
    "string-quality": 0,
    "null-quality": 0,
}


@pytest.mark.parametrize("case", sorted(NAMED_DEFECTS))
def test_bad_trace_value_names_manifest_and_slot(tmp_path, capsys, case):
    cfg = make_small_cfg(tmp_path)
    if case in QUALITY_MUTATIONS:
        manifest, mutate = write_quality_trace(tmp_path), QUALITY_MUTATIONS[case]
    else:
        assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        manifest, mutate = str(tmp_path / "t" / "trace.json"), TRACE_MUTATIONS[case]
    with open(manifest) as fh:
        doc = json.load(fh)
    mutate(doc)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(TraceError) as raised:
        load_trace(manifest)
    slot = NAMED_DEFECTS[case]
    assert str(raised.value).startswith(
        f"{manifest}: " + ("" if slot is None else f"slot {slot}: ")), raised.value
    # every command reports the load_trace error as its one line
    for command in ("assess", "simulate"):
        capsys.readouterr()
        code = run_cli([command, "--config", str(cfg), "--trace", manifest,
                        "--out", str(tmp_path / "out.jsonl")])
        assert (code, capsys.readouterr().err) == (1, f"error: {raised.value}\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_malformed_npy_cam_names_manifest_slot_and_file(tmp_path, capsys, case):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    manifest = str(tmp_path / "t" / "trace.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    change = TRACE_MUTATIONS[f"npy-{case}"](doc)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    cam = tmp_path / "t" / change.path
    cam.write_bytes(change.data)
    with pytest.raises(TraceError) as raised:
        load_trace(manifest)
    assert str(raised.value).startswith(f"{manifest}: slot 1: cams enhanced[1]: {cam}: ")
    for command in ("assess", "simulate"):
        capsys.readouterr()
        code = run_cli([command, "--config", str(cfg), "--trace", manifest,
                        "--out", str(tmp_path / "out.jsonl")])
        assert (code, capsys.readouterr().err) == (1, f"error: {raised.value}\n")


def assert_one_trace_error(tmp_path, capsys, cfg, manifest: str, message: str) -> None:
    """load_trace fails with `message`, and assess and simulate print exactly
    it as their one error line."""
    with pytest.raises(TraceError) as raised:
        load_trace(manifest)
    assert str(raised.value) == message
    for command in ("assess", "simulate"):
        capsys.readouterr()
        code = run_cli([command, "--config", str(cfg), "--trace", manifest,
                        "--out", str(tmp_path / "out.jsonl")])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


@pytest.mark.parametrize("case", sorted(CAM_REF_DEFECTS))
def test_cam_reference_defect_names_manifest_slot_list_and_file(tmp_path, capsys, case):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    manifest = str(tmp_path / "t" / "trace.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    defect = CAM_REF_DEFECTS[case]
    change = defect.mutate(doc)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    if change is not None:
        (tmp_path / "t" / change.path).write_bytes(change.data)
    with pytest.raises(TraceError) as raised:
        load_trace(manifest)
    message = str(raised.value)
    assert message.startswith(f"{manifest}: slot 0: cams lowlight: "), message
    assert str(tmp_path / "t" / defect.path) in message and defect.reason in message, message
    assert "\n" not in message
    assert_one_trace_error(tmp_path, capsys, cfg, manifest, message)


@pytest.mark.parametrize("value,reason", [(-1.0, "non-negative"), (math.nan, "finite"),
                                          (-math.inf, "finite")])
@pytest.mark.parametrize("kind", ["stack", "enhanced-stack"])
def test_cam_value_error_names_the_file(tmp_path, capsys, kind, value, reason):
    cfg = make_small_cfg(tmp_path)
    trace_dir = tmp_path / "t"
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(trace_dir)]) == 0
    manifest = str(trace_dir / "trace.json")
    stack = np.load(trace_dir / "cams/dev01.npy")
    if kind == "stack":
        # a bad value in slot 1's maps; the first slot to reference the stack is named
        name, slot, where = "cams/dev01.npy", 0, "cams lowlight"
        stack[2, 1, 3] = value
    else:
        # slot 1's enhanced map of device 1, moved to a stack of its own
        name, slot, where = "cams/enhanced.npy", 1, "cams enhanced[1]"
        stack = stack[3:]
        stack[0, 1, 3] = value
        doc = json.loads((trace_dir / "trace.json").read_text())
        doc["slots"][1]["cams"]["enhanced"][1] = [[name, 0]]
        (trace_dir / "trace.json").write_text(json.dumps(doc))
    np.save(trace_dir / name, stack)
    message = (f"{manifest}: slot {slot}: {where}: {trace_dir / name}: "
               f"CAM values must be {reason}")
    assert_one_trace_error(tmp_path, capsys, cfg, manifest, message)


@pytest.mark.parametrize("change,message", [
    ({"devices": 1}, "device count: 2 vs 1"),
    ({"devices": 3}, "device count: 2 vs 3"),
    ({"algorithms": 2 * ONE_GPU_SERVER["algorithms"],
      "synth": dict(ONE_GPU_SERVER["synth"], offsets=[0.25, 0.1])},
     "algorithm count: 1 vs 2"),
], ids=["fewer-devices", "more-devices", "other-algorithm-count"])
@pytest.mark.parametrize("command", ["simulate", "assess", "schedule", "oracle"])
def test_trace_and_config_dims_are_checked_by_every_command(tmp_path, capsys, change,
                                                           message, command):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(json.loads(cfg.read_text()), **change)))
    capsys.readouterr()
    args = [command, "--config", str(other), "--trace", str(tmp_path / "t" / "trace.json")]
    if command == "simulate":
        args += ["--out", str(tmp_path / "m.jsonl")]
    code = run_cli(args)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: Trace and model disagree on {message}\n"


# fits make_small_cfg, like write_quality_trace
SMALL_CAM_TRACE = generate_synthetic(SynthSpec(
    num_devices=2, num_servers=1, num_algorithms=1, horizon=2, cam_rows=4, cam_cols=4,
    offsets=(0.25,)))
# values that break a trace, weighted in ahead of the general substitutes
TRACE_SUBSTITUTES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -1.0, 0.0, 2.5, "2", True, None]),
    SUBSTITUTES,
)
CAM_BYTES = st.sampled_from(list(b"-.eE+ \n0179x,\xff{}()':\x00\x93"))


# derandomized: the same examples every run, among them an infinite device count
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_trace_is_one_error_line_or_strict_json(tmp_path, capsys, data):
    if data.draw(st.booleans()):
        manifest = write_quality_trace(tmp_path)
    else:
        manifest = save_trace(SMALL_CAM_TRACE, str(tmp_path / "c"))
        cams = sorted((tmp_path / "c" / "cams").iterdir())
        for _ in range(data.draw(st.integers(0, 2))):
            cam = data.draw(st.sampled_from(cams))
            body = bytearray(cam.read_bytes())
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(CAM_BYTES)
            cam.write_bytes(bytes(body))
    with open(manifest) as fh:
        doc = json.load(fh)
    paths = [p for p in _paths(doc) if p]
    # half the draws go to the trace-wide counts, which the slots outnumber
    pick = st.one_of(st.sampled_from([("devices",), ("servers",), ("algorithms",)]),
                     st.sampled_from(paths))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(pick)
        try:
            if data.draw(st.booleans()):
                _set(doc, path, data.draw(TRACE_SUBSTITUTES))
            else:
                node = doc
                for part in path[:-1]:
                    node = node[part]
                del node[path[-1]]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the parent
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    cfg, out = str(make_small_cfg(tmp_path)), str(tmp_path / "out.jsonl")
    for args in (["assess"], ["simulate", "--scheduler", "none"]):
        capsys.readouterr()
        code = run_cli(args + ["--config", cfg, "--trace", manifest, "--out", out])
        err = capsys.readouterr().err
        if code != 0:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        elif args[0] == "assess":
            with open(out) as fh:
                for line in fh:
                    json.loads(line, parse_constant=pytest.fail)
        else:
            load_metrics(out)  # metrics may spell an unmeetable latency Infinity


@pytest.mark.parametrize("command,between_slots", [
    ("simulate", False), ("assess", False), ("simulate", True), ("assess", True),
], ids=["simulate", "assess", "simulate-between-slots", "assess-between-slots"])
def test_cli_cam_shape_mismatch_names_slot_and_device(tmp_path, capsys, command,
                                                      between_slots):
    cfg = make_small_cfg(tmp_path)
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    manifest = tmp_path / "t" / "trace.json"
    doc = json.loads(manifest.read_text())
    # slot 1, device 1: a 3x3 enhanced map against a 4x4 low-light map, or
    # 3x3 maps throughout where slot 0 had 4x4 ones
    save_cam([np.zeros((3, 3))] * 2, str(tmp_path / "t" / "cams" / "small.npy"))
    cams = doc["slots"][1]["cams"]
    cams["enhanced"][1] = [["cams/small.npy", 1]]
    if between_slots:
        cams["lowlight"][1] = ["cams/small.npy", 0]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    args = [command, "--config", str(cfg), "--trace", str(manifest)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "m.jsonl")]
    code = run_cli(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "slot 1 device 1" in err and "(4, 4) vs (3, 3)" in err


def test_cli_undecodable_config_is_one_error_line(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_bytes(b'{"devices": 2}\xff')
    with pytest.raises(ConfigError):
        parse_config_file(str(p))
    code = run_cli(["show-config", "--config", str(p)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_assess_emits_quality_lines(tmp_path, capsys):
    cfg = make_small_cfg(tmp_path)
    trace_dir = str(tmp_path / "t2")
    assert run_cli(["gen-trace", "--config", str(cfg), "--out", trace_dir]) == 0
    capsys.readouterr()
    assert run_cli(["assess", "--config", str(cfg),
                    "--trace", trace_dir + "/trace.json"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().split("\n")]
    assert len(lines) == 2
    for t, record in enumerate(lines):
        assert record["slot"] == t
        q = np.array(record["quality"])
        assert q.shape == (2, 2)
        assert (q[:, 0] == 0).all()


def test_cli_show_config_round_trips(tmp_path, capsys):
    assert run_cli(["show-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg.num_devices == 10


def test_cli_missing_trace_is_error_not_traceback(tmp_path, capsys):
    code = run_cli(["simulate", "--trace", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "m.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_cli_bad_config_is_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"devices": -1}')
    code = run_cli(["show-config", "--config", str(p)])
    assert code == 1
    err = capsys.readouterr().err
    assert "devices" in err
