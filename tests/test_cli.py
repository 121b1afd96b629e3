"""Config grammar, file formats, and end-to-end command-line runs."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from camsched import cli
from camsched.camq import CamMap
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
    load_metrics,
    load_trace,
    round9,
    save_cam,
    save_trace,
)
from camsched.sim import SCHEDULER_CHOICES, SynthSpec, generate_synthetic, run


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
    cam = CamMap(np.array([[1.0, 0.0], [0.0, 1.0]]))
    path = str(tmp_path / "m.cam")
    save_cam(cam, path)
    back = load_cam(path)
    np.testing.assert_array_equal(back.values, cam.values)


def test_cam_file_header_example(tmp_path):
    path = str(tmp_path / "id.cam")
    path_obj = tmp_path / "id.cam"
    path_obj.write_text("2 2\n1 0 0 1\n")
    cam = load_cam(path)
    np.testing.assert_array_equal(cam.values, [[1.0, 0.0], [0.0, 1.0]])


def test_cam_file_layout_agnostic(tmp_path):
    # same four values after the header, different line structure -> same map
    (tmp_path / "a.cam").write_text("2 2\n1 0\n0 1\n")
    (tmp_path / "b.cam").write_text("2 2\n1 0 0 1\n")
    (tmp_path / "c.cam").write_text("2 2\n1\n0\n0\n1")
    a = load_cam(str(tmp_path / "a.cam"))
    b = load_cam(str(tmp_path / "b.cam"))
    c = load_cam(str(tmp_path / "c.cam"))
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.values, c.values)


def test_cam_file_count_error(tmp_path):
    (tmp_path / "bad.cam").write_text("2 2\n1 0 0\n")
    with pytest.raises(ValidationError, match="expected 4 values, found 3"):
        load_cam(str(tmp_path / "bad.cam"))


def test_cam_file_negative_value(tmp_path):
    (tmp_path / "neg.cam").write_text("1 2\n-0.1 0.5\n")
    with pytest.raises((TraceError, ValidationError)):
        load_cam(str(tmp_path / "neg.cam"))


def test_cam_file_bad_header(tmp_path):
    (tmp_path / "h.cam").write_text("two by two\n1 0 0 1\n")
    with pytest.raises(ValidationError):
        load_cam(str(tmp_path / "h.cam"))


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
        lambda doc: Overwrite(doc["slots"][0]["cams"]["lowlight"][0], b"\xff4 4\n" + b"0 " * 16),
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
    cams = doc["slots"][1]["cams"]
    names = cams["enhanced"][1] + (cams["lowlight"][1:2] if between_slots else [])
    for name in names:
        save_cam(CamMap(np.zeros((3, 3))), str(tmp_path / "t" / name))
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
