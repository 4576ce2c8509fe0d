"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench

The quick self-check runs every workload for a few ops in both modes,
which takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10
    assert pct == 75.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("op"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    table, coverage = tracer.per_op(0)
    assert table["inner"][0] == 2 and table["outer"][0] == 1
    inner_total = table["inner"][1]
    assert table["outer"][2] == pytest.approx(table["outer"][1] - inner_total)
    assert 0.0 < coverage <= 1.0


def test_tracer_restores_every_wrapped_function():
    from hodgekit import dynamics, gns, linalg, states
    before = (linalg.expm_normal, dynamics.expm_normal, states.evolve,
              gns.GnsRepresentation.represent)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert dynamics.expm_normal is linalg.expm_normal is not before[0]
    assert (linalg.expm_normal, dynamics.expm_normal, states.evolve,
            gns.GnsRepresentation.represent) == before


@pytest.mark.parametrize("dim", [6, 256])
def test_signed_pairing_star_is_an_exact_refinement(dim):
    star, partner, sign = workloads.signed_pairing_star(np.random.default_rng(dim), dim)
    assert np.array_equal(star @ star, np.eye(dim))
    assert np.array_equal(star, star.conj().T) and np.trace(star) == 0
    q = np.random.default_rng(1).standard_normal((dim, dim))
    assert np.allclose(sign[:, None] * q[partner], star @ q)


def test_class_forms_lie_in_their_eigenspaces():
    from hodgekit.curvature import STANDARD_STAR
    rng = np.random.default_rng(3)
    for _ in range(20):
        sd, asd = workloads._class_form(rng, "SD"), workloads._class_form(rng, "ASD")
        assert np.array_equal(STANDARD_STAR @ sd, sd) and sd.any()
        assert np.array_equal(STANDARD_STAR @ asd, -asd) and asd.any()
    assert workloads.expected_stationary("ASD", "ASD")
    assert workloads.expected_stationary("zero", "mixed")
    assert not workloads.expected_stationary("SD", "ASD")
    assert not workloads.expected_stationary("mixed", "mixed")


def test_quick_mode_reports_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "self_check": "pass", "issues": 0}
    for name in ("op_tail_s", "setup_s"):
        assert f"{name}" in proc.stdout
    assert "samples  tail" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gns_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
