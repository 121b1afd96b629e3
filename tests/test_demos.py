"""Every demo script runs to completion, with warnings as errors, and the
walk-throughs of the two formulas print exactly the numbers pinned here."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))

PINNED_STDOUT = {
    "01_quality_assessment": """\
raw difference (enhanced - lowlight): 1.75

enhanced after the 0.4 filter:
[[0.   0.   0.  ]
 [0.   0.95 0.6 ]
 [0.   0.55 0.  ]]
lowlight after the filter (all mass below threshold):
[[0. 0. 0.]
 [0. 0. 0.]
 [0. 0. 0.]]
filtered difference: 2.1

temporal variation vs a 2-slot window: 0.35

Q for algorithm 1 on device 0: 5.4
Q for skipping enhancement is always: 0.0

static window pins the denominator at its floor; Q clamps to: 10.0
""",
    "02_latency_and_utility": """\
deadline 4.0 s, latency weight 0.5, overhead 0.05 s
server  alg  latency_s   utility  verdict
     0    0      1.050    -0.525  ok
     0    1      1.519     1.640  ok
     0    2      1.191     1.305  ok
     0    3      1.393     0.504  ok
     0    4      1.964    -0.282  ok
     1    0      1.050    -0.525  ok
     1    1     11.717    -3.458  misses the deadline
     1    2      4.250    -0.225  misses the deadline
     1    3      2.455    -0.028  ok
     1    4      4.797    -1.699  misses the deadline
     2    0      1.050    -0.525  ok
     2    1        inf      -inf  server cannot run this algorithm
     2    2        inf      -inf  server cannot run this algorithm
     2    3      1.650     0.375  ok
     2    4      2.650    -0.625  ok
     3    0      1.050    -0.525  ok
     3    1        inf      -inf  server cannot run this algorithm
     3    2        inf      -inf  server cannot run this algorithm
     3    3      2.250     0.075  ok
     3    4      4.250    -1.425  misses the deadline

algorithm 0 is the no-enhancement fallback: zero quality, zero
enhancement latency, so its utility is pure transmission cost.
""",
}


def test_demos_exist():
    assert DEMOS
    assert set(PINNED_STDOUT) <= {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    # -W error matches pyproject's filterwarnings: a warning fails the demo
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.stem in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo.stem]
