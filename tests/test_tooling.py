"""The tooling around the tests and the benchmark: a failing test must not
end the session, and the benchmark's tracer patches names that still run."""

import importlib
import pathlib
import subprocess
import sys

import pytest

from camsched import config, fileio, sim

REPO = pathlib.Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # pyproject.toml turns warnings into errors; a warning raised while
    # hypothesis reports a failure must not become an INTERNALERROR that
    # skips every later test
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example" in proc.stdout


def test_tracer_counts_one_cam_stack_write_and_read_per_device(tmp_path, monkeypatch):
    # the traced benchmark run imports its tracer from perfbench/ the same way
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = {(module, attr): getattr(module, attr)
                 for _, attr, modules in tracing.LAYER_FUNCTIONS for module in modules}
    trace = sim.generate_synthetic(sim.SynthSpec(
        num_devices=3, num_servers=2, num_algorithms=2, horizon=2,
        cam_rows=4, cam_cols=4, offsets=(0.3, 0.1), seed=5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fileio.load_trace(fileio.save_trace(trace, str(tmp_path / "t")))
    finally:
        tracer.uninstall()
    assert tracer.calls["fileio.save_cam"] == tracer.calls["fileio.load_cam"] == 3
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())


@pytest.mark.parametrize("scheduler", sim.SCHEDULER_CHOICES)
def test_tracer_counts_one_latency_table_and_one_score_per_slot(monkeypatch, scheduler):
    # a table built through a name the tracer does not wrap would count 0
    # here. The oracle's answer arrives with its report, so on these slots,
    # which all have a feasible decision, it runs no check_feasibility
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    originals = {(module, attr): getattr(module, attr)
                 for _, attr, modules in tracing.LAYER_FUNCTIONS for module in modules}
    cfg = config.parse_config('{"devices": 3, "synth": {"horizon": 3}}')
    model = config.build_model(cfg)
    trace = workloads.quality_trace(cfg, 5)
    state = config.build_quality_state(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for t in range(trace.horizon):
            sim.run_slot(t, trace, state, model, scheduler)
    finally:
        tracer.uninstall()
    assert tracer.calls["sim.run_slot"] == trace.horizon
    assert tracer.calls["sysmodel.latency_table"] == trace.horizon
    scored = 0 if scheduler == "oracle" else trace.horizon
    assert tracer.calls["sysmodel.check_feasibility"] == scored
    assert tracer.calls["sched.brute_force"] == (trace.horizon if scheduler == "oracle" else 0)
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())
