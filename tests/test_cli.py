"""End-to-end CLI runs: envelopes, determinism, exit codes."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from hodgekit import curvature as cv
from hodgekit import linalg

from gns_oracle import density_block

ENVELOPE_KEYS = ["command", "inputs", "results", "tolerances", "pass"]


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "hodgekit", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def parse_envelope(proc):
    payload = json.loads(proc.stdout)
    assert list(payload) == ENVELOPE_KEYS
    return payload


def test_manifold_round_sphere_passes():
    proc = run_cli("manifold", "s4", "--params", "1", check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    results = payload["results"]
    assert results["is_einstein"] is True
    assert results["lambda"] == 3.0
    assert results["vacuum_solves"] is True
    assert results["energy"] == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_manifold_skew_product_reports_non_einstein():
    proc = run_cli("manifold", "s2xs2", "--params", "1,2", check=True)
    payload = parse_envelope(proc)
    # Expected non-Einstein, detected non-Einstein: the report passes.
    assert payload["pass"] is True
    assert payload["results"]["is_einstein"] is False
    assert payload["results"]["commutator_norm"] > 0.1


def test_manifold_all_exemplars_pass():
    # 1e154 is the largest power of ten whose 1/r^2 is a nonzero double.
    for args in (("s4", "0.5"), ("cp2", "2"), ("s2xs2", "1,1"), ("s4", "1e154")):
        run_cli("manifold", args[0], "--params", args[1], check=True)
    run_cli("manifold", "t4_flat", check=True)


def test_clifford_signature_with_periodicity():
    proc = run_cli("clifford", "1,3", check=True)
    payload = parse_envelope(proc)
    results = payload["results"]
    assert results["m"] == 4
    assert results["span_dim"] == 16
    assert results["periodic"] is True
    assert results["trace_invariance_residual"] == 0.0


def test_clifford_odd_signature_skips_periodicity():
    proc = run_cli("clifford", "2,1", check=True)
    results = parse_envelope(proc)["results"]
    assert results["span_dim"] == 8
    assert "periodic" not in results


def test_clifford_answers_at_sixty_generators():
    proc = run_cli("clifford", "30,30", check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    results = payload["results"]
    assert results["span_dim"] == 2**60
    assert results["periodicity_factor"] == 4
    assert results["relation_residual"] == 0.0


@pytest.mark.parametrize("signature", ["127,0", "64,64"])
def test_clifford_answers_on_towers_of_dimension_two_to_the_sixty_four(signature):
    # The relation gate's sqrt(dim) takes dim = 2^64, an int beyond int64.
    payload = parse_envelope(run_cli("clifford", signature, check=True))
    assert payload["pass"] is True
    assert payload["results"]["span_dim"] == 2 ** payload["results"]["m"]


def test_clifford_rejects_generator_counts_beyond_the_span_bound(monkeypatch, capsys):
    proc = run_cli("clifford", "2100,0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: generator count 2100 exceeds the span bound 128\n")
    # The bound is checked before the tower is built.
    from hodgekit import cli, clifford
    monkeypatch.setattr(clifford, "build_generators", lambda sig: pytest.fail("tower built"))
    assert cli.main(["clifford", "129,0"]) == 2
    assert capsys.readouterr().err == "error: generator count 129 exceeds the span bound 128\n"


def test_solve_einstein_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    b_path = tmp_path / "b.json"
    star_path = tmp_path / "star.json"
    linalg.save_matrix(b_path, linalg.random_matrix(rng, 6))
    linalg.save_matrix(star_path, cv.SPLIT_STAR)

    proc = run_cli("solve-einstein", "--input", str(b_path), "--star", str(star_path),
                   check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    assert payload["results"]["solves"] is True
    assert payload["results"]["trace_gap"] < 1e-12

    # The emitted solution must itself pass a check-only run.
    q_path = tmp_path / "q.json"
    q_path.write_text(json.dumps(payload["results"]["solution"]))
    again = run_cli("solve-einstein", "--input", str(q_path), "--star", str(star_path),
                    "--check-only", check=True)
    assert parse_envelope(again)["pass"] is True


def test_solve_einstein_check_only_failure_exits_one(tmp_path):
    star_path = tmp_path / "star.json"
    linalg.save_matrix(star_path, cv.SPLIT_STAR)
    proc = run_cli("solve-einstein", "--input", str(star_path), "--star", str(star_path),
                   "--check-only")
    assert proc.returncode == 1
    payload = parse_envelope(proc)
    assert payload["pass"] is False
    # The star fails exactly the Bianchi identity, with residual one.
    assert payload["results"]["bianchi_residual"] == 1.0
    assert payload["results"]["einstein_residual"] == 0.0


def test_solve_einstein_check_only_rejects_a_tiny_star(tmp_path):
    # The star witness above in smaller units: a Bianchi residual of
    # 1e-12 is not small next to ||Q|| = 1e-12 sqrt(6).
    star_path = tmp_path / "star.json"
    input_path = tmp_path / "tiny.json"
    linalg.save_matrix(star_path, cv.SPLIT_STAR)
    linalg.save_matrix(input_path, 1e-12 * cv.SPLIT_STAR)
    proc = run_cli("solve-einstein", "--input", str(input_path), "--star", str(star_path),
                   "--check-only")
    assert proc.returncode == 1
    assert parse_envelope(proc)["results"]["solves"] is False


def _vacuum_files(tmp_path):
    """The split star, 1e308 times a random 6x6 of largest entry 1, and a
    file of 1e308 entries with one -1e308, whose B + B* overflows."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    big = np.full((6, 6), 1e308)
    big[0, 1] = -1e308
    paths = [tmp_path / name for name in ("star.json", "scaled.json", "big.json")]
    for path, m in zip(paths, (cv.SPLIT_STAR, 1e308 * (g / np.abs(g).max()), big)):
        linalg.save_matrix(path, m)
    return [str(p) for p in paths]


def test_solve_einstein_inputs_beyond_the_doubles_exit_two_cleanly(tmp_path):
    star, scaled, big = _vacuum_files(tmp_path)
    norm_msg = "error: operator Q has a Frobenius norm beyond the double range\n"
    proc = run_cli("solve-einstein", "--input", scaled, "--star", star, "--check-only")
    assert (proc.returncode, proc.stderr) == (2, norm_msg)
    proc = run_cli("solve-einstein", "--input", big, "--star", star, "--check-only")
    assert (proc.returncode, proc.stderr) == (2, norm_msg)
    # (B + B*)/2 is a double, but the norm of the solution is not.
    proc = run_cli("solve-einstein", "--input", big, "--star", star)
    assert (proc.returncode, proc.stderr) == (2, norm_msg)


def test_solve_einstein_solves_where_only_the_input_norm_overflows(tmp_path):
    star, scaled, _ = _vacuum_files(tmp_path)
    proc = run_cli("solve-einstein", "--input", scaled, "--star", star, check=True)
    assert proc.stderr == ""
    assert parse_envelope(proc)["results"]["solves"] is True


def test_solve_einstein_where_a_residual_or_a_trace_sum_leaves_the_doubles(tmp_path):
    star = tmp_path / "star.json"
    linalg.save_matrix(star, cv.SPLIT_STAR)
    antisym = np.zeros((6, 6))
    antisym[0, 1], antisym[1, 0] = 1e308, -1e308
    files = {}
    for name, m in (("antisym", antisym), ("diag2", np.diag([1e308, 1e308, 0, 0, 0, 0])),
                    ("diag3", np.diag([0.89e308] * 3 + [0.0] * 3))):
        files[name] = tmp_path / f"{name}.json"
        linalg.save_matrix(files[name], m)
    proc = run_cli("solve-einstein", "--input", str(files["antisym"]), "--star", str(star),
                   "--check-only")
    assert (proc.returncode, proc.stderr) == (
        2, "error: self-adjoint residual ||Q - Q*|| leaves the double range\n")
    proc = run_cli("solve-einstein", "--input", str(files["diag2"]), "--star", str(star),
                   "--check-only")
    assert (proc.returncode, proc.stderr) == (1, "")
    results = parse_envelope(proc)["results"]
    assert results["bianchi_residual"] == pytest.approx(1e308 / 3, rel=1e-15)
    assert results["lambda"] == pytest.approx(1e308, rel=1e-15)
    for name in ("diag2", "diag3"):
        proc = run_cli("solve-einstein", "--input", str(files[name]), "--star", str(star))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert parse_envelope(proc)["results"]["solves"] is True


def test_gns_default_trace_state():
    proc = run_cli("gns", "--algebra", "2:0.5,2:0.5", check=True)
    results = parse_envelope(proc)["results"]
    assert results["gamma"] == 1.0
    assert results["faithful"] is True
    assert results["ideal_dim"] == 0
    assert results["rho_mult_residual"] < 1e-10


def test_gns_corner_state(tmp_path):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(
        {"densities": [{"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0],
                                              [0.0, 0.0], [0.0, 0.0]]}]}
    ))
    proc = run_cli("gns", "--algebra", "2:1.0", "--state", str(state_path), check=True)
    results = parse_envelope(proc)["results"]
    assert results["gamma"] == 0.0
    assert results["ideal_dim"] == 2
    assert results["j_dim"] == 4
    assert results["faithful"] is False


def _write_state(path, densities):
    path.write_text(json.dumps({"densities": [linalg.matrix_to_dict(d) for d in densities]}))


def test_gns_verdict_does_not_depend_on_units(tmp_path):
    # An absolute Hermitian gate rejected this state at 1e6 (rounding in
    # D - D* grows with D), and an absolute mass gate at 1e-13, although
    # the state is normalized to mass one either way.
    rng = np.random.default_rng(7)
    densities = [density_block(rng, 6, 6), density_block(rng, 4, 2)]
    seen = []
    for scale in (1e-13, 1.0, 1e6):
        path = tmp_path / f"state_{scale}.json"
        _write_state(path, [scale * d for d in densities])
        proc = run_cli("gns", "--algebra", "6:0.5,4:0.5", "--state", str(path))
        assert proc.returncode == 0, proc.stderr
        payload = parse_envelope(proc)
        seen.append((payload["pass"], payload["results"]["gamma"],
                     payload["results"]["ideal_dim"]))
    assert seen == [(True, 0.5, 8)] * 3


def test_gns_answers_on_a_rank_deficient_32_block(tmp_path):
    path = tmp_path / "state.json"
    rng = np.random.default_rng(11)
    _write_state(path, [density_block(rng, 32, 31), density_block(rng, 16, 16)])
    proc = run_cli("gns", "--algebra", "32:0.5,16:0.5", "--state", str(path), check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    results = payload["results"]
    assert results["gamma"] == 0.5
    assert results["ideal_dim"] == 32
    assert results["j_dim"] == 1024


def _light_block_state():
    v = np.random.default_rng(3).standard_normal((16, 15))
    return [v @ v.T, np.eye(16)]


@pytest.mark.parametrize("algebra, densities", [
    # Null eigenvalue 1e-12 of unit mass, a hundredth of the rank cutoff,
    # while phi(B* B) itself grew with k to 5.8e-9.
    ("64:1", lambda: [np.diag([1.0] * 63 + [64e-12])]),
    # Rank exactly 15 in a block of weight 1e-5: phi(B* B) grew with
    # 1 / lambda to 3.0e-10 from rounding alone.
    ("16:1e-5,16:0.99999", _light_block_state),
], ids=["k64", "light-block"])
def test_gns_ideal_verdict_does_not_depend_on_block_size_or_weight(tmp_path, algebra, densities):
    path = tmp_path / "state.json"
    _write_state(path, densities())
    proc = run_cli("gns", "--algebra", algebra, "--state", str(path))
    assert proc.returncode == 0, proc.stderr
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    assert payload["results"]["left_ideal_residual"] <= 1e-10


@pytest.mark.parametrize("scale", [1e-310, 1e-320])
def test_gns_subnormal_densities(tmp_path, scale):
    # Blocks are rescaled by a power of two before any eigensolver sees
    # them: a clean pass, or exit 2 naming the densities, never LAPACK's
    # words or numpy warnings.
    path = tmp_path / "state.json"
    rng = np.random.default_rng(4)
    _write_state(path, [scale * density_block(rng, 4, 3), scale * np.eye(2)])
    proc = run_cli("gns", "--algebra", "4:0.5,2:0.5", "--state", str(path))
    if proc.returncode == 0:
        assert proc.stderr == ""
        payload = parse_envelope(proc)
        assert payload["pass"] is True
        assert (payload["results"]["gamma"], payload["results"]["ideal_dim"]) == (0.5, 4)
    else:
        assert proc.returncode == 2
        assert re.fullmatch(r"error: density blocks [^\n]*\n", proc.stderr), proc.stderr


def test_dynamics_fixed_point():
    proc = run_cli("dynamics", "--manifold", "cp2", "--params", "1", check=True)
    results = parse_envelope(proc)["results"]
    assert results["fixed"] is True
    assert results["einstein_agrees"] is True

    proc = run_cli("dynamics", "--manifold", "s2xs2", "--params", "1,2", check=True)
    results = parse_envelope(proc)["results"]
    assert results["fixed"] is False
    assert results["commutator_norm"] > 0.1


def test_manifold_large_curvature_probes_agree():
    # ||R|| is about 2.4e6: the sampled flow leaves a rounding residual of
    # 2e-10 that is 8e-17 relative, and must not outvote the other probes.
    payload = parse_envelope(run_cli("manifold", "s4", "--params", "0.001", check=True))
    assert payload["results"]["einstein_tests_agree"] is True
    assert payload["results"]["is_einstein"] is True


@pytest.mark.parametrize("argv", [
    ("manifold", "s2xs2", "--params", "1e-4,1e-4"),
    ("dynamics", "--manifold", "cp2", "--params", "1e-5"),
])
def test_weyl_gate_is_relative_to_the_operator(argv):
    # Entries of order 1/r^2 leave trace rounding far above 1e-12.
    payload = parse_envelope(run_cli(*argv, check=True))
    assert payload["pass"] is True


def test_manifold_small_curvature_is_not_einstein():
    # Curvature about 1e-10: the Ric0 and commutator probes must both see
    # the skew product, rather than one of them calling it flat.
    payload = parse_envelope(run_cli("manifold", "s2xs2", "--params", "1e5,2e5", check=True))
    assert payload["results"]["is_einstein"] is False
    assert payload["results"]["einstein_tests_agree"] is True


def test_states_self_dual_form(tmp_path):
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, np.array([1.0, 0, 0, 0, 0, 1.0]))
    proc = run_cli("states", "--sigma", "1,0,0,0,0,1", "--omega", str(omega_path),
                   check=True)
    results = parse_envelope(proc)["results"]
    assert results["stationary"] is True
    assert results["max_derivative"] < 1e-8
    assert results["max_perturbed_derivative"] < 1e-8
    assert results["homology_pairing"] == [0.0, pytest.approx(-1 / np.pi)]


def test_states_anti_self_dual_form(tmp_path):
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, np.array([1.0, 0, 0, 0, 0, -1.0]))
    proc = run_cli("states", "--sigma", "1,0,0,0,0,1", "--omega", str(omega_path),
                   check=True)
    results = parse_envelope(proc)["results"]
    # Expected non-stationary and measured non-stationary: report passes.
    assert results["stationary"] is False
    assert results["expected_stationary"] is False
    assert results["max_derivative"] > 1e-3


@pytest.mark.parametrize("sigma, omega", [
    # Both forms anti-self-dual: the flow phases cancel.
    ("1,0,0,0,0,-1", 2j * np.pi * np.array([1.0, 0, 0, 0, 0, -1.0])),
    # Zero surface class against an anti-self-dual form.
    ("0,0,0,0,0,0", np.array([0.0, 1.0, 0, 0, 1.0, 0])),
])
def test_states_expects_stationarity_in_a_shared_or_zero_eigenspace(tmp_path, sigma, omega):
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, omega)
    proc = run_cli("states", "--sigma", sigma, "--omega", str(omega_path), check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    assert payload["results"]["expected_stationary"] is True
    assert payload["results"]["stationary"] is True


def test_states_stationary_at_large_pairing(tmp_path):
    # Self-dual data with homology pairing 200: the derivative is zero
    # up to rounding at this scale too.
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, 200j * np.pi * np.array([1.0, 0, 0, 0, 0, 1.0]))
    proc = run_cli("states", "--sigma", "1,0,0,0,0,1", "--omega", str(omega_path),
                   check=True)
    results = parse_envelope(proc)["results"]
    assert results["stationary"] is True
    assert results["max_derivative"] < 1e-8
    assert results["max_perturbed_derivative"] < 1e-8


@pytest.mark.parametrize("sigma, omega, message", [
    # ||eta|| ||omega|| = 2e308.
    ("1,0,0,0,0,1", 1e308 * np.array([1.0, 0, 0, 0, 0, 1]), "stationarity scale ||eta|| ||omega||"),
    # The scale and the base derivative are doubles; the perturbed one, twice it, is not.
    ("1,0,0,0,0,-1", 1e307 * np.array([1.0, 0, 0, 0, 0, 1]),
     "derivative of F(A) = (A omega, eta) on the perturbed flow"),
    ("1,0,0,0,0,0", 1e308 * np.array([1.0, 0, 0, 0, 0, -1]), "derivative of F(A) = (A omega, eta)"),
    pytest.param("1" + "0" * 400 + ",0,0,0,0,0", np.array([1.0, 0, 0, 0, 0, 1]),
                 "coefficient of sigma", id="sigma-1e400"),
])
def test_states_numbers_beyond_the_doubles_exit_two_cleanly(tmp_path, sigma, omega, message):
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, omega)
    proc = run_cli("states", "--sigma", sigma, "--omega", str(omega_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {message} leaves the double range\n")


def test_states_rescales_omega_where_only_a_sum_leaves_the_doubles(tmp_path):
    # omega + star omega = 2e308 overflows, but eta = 0, so every derivative,
    # the scale and the pairing are exactly zero.
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, 1e308 * np.array([1.0, 0, 0, 0, 0, 1]))
    proc = run_cli("states", "--sigma", "0,0,0,0,0,0", "--omega", str(omega_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = parse_envelope(proc)["results"]
    assert (results["max_derivative"], results["max_perturbed_derivative"]) == (0.0, 0.0)
    assert results["omega_self_dual"] is True and results["omega_anti_self_dual"] is False


def test_states_probes_twenty_random_matrix_samples_as_one_stack(tmp_path, monkeypatch):
    from hodgekit import cli, states
    stacks, probe = [], states.stationarity_derivative
    monkeypatch.setattr(states, "stationarity_derivative",
                        lambda *args: stacks.append(args[3]) or probe(*args))
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, np.array([1.0, 0.2, -0.7j, 0.4, 0, 2]))
    argv = ["states", "--sigma", "1,0,0,0,0,0", "--omega", str(omega_path), "--seed", "11",
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    rng = np.random.default_rng(11)
    calls = np.array([linalg.random_matrix(rng, 6) for _ in range(20)])
    # The base and the perturbed family each probe the whole stack in one call.
    assert [a.tobytes() for a in stacks] == [calls.tobytes()] * 2


def test_states_verdict_does_not_depend_on_units(tmp_path):
    # Self-dual dual against an anti-self-dual omega at 1e-10: the
    # derivative is linear in omega, 1.5e-9 here, and must not pass an
    # absolute gate as stationary.
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, 1e-10 * np.array([1.0, 1.0, 0, 0, 1.0, -1.0]))
    proc = run_cli("states", "--sigma", "1,0,0,0,0,1", "--omega", str(omega_path),
                   check=True)
    payload = parse_envelope(proc)
    assert payload["pass"] is True
    assert payload["results"]["stationary"] is False
    assert payload["results"]["expected_stationary"] is False
    assert payload["tolerances"]["stationarity_scale"] == pytest.approx(np.sqrt(2) * 2e-10)


def test_constants_report():
    proc = run_cli("constants", check=True)
    results = parse_envelope(proc)["results"]
    assert results["temperature_over_planck"] == 0.5
    assert results["ratio_gap"] == 0.0
    assert abs(results["temperature_kelvin"] - 7.06e31) / 7.06e31 < 0.01


def test_output_is_byte_deterministic():
    first = run_cli("gns", "--algebra", "2:0.3,3:0.7", "--seed", "5", check=True)
    second = run_cli("gns", "--algebra", "2:0.3,3:0.7", "--seed", "5", check=True)
    assert first.stdout == second.stdout
    third = run_cli("manifold", "cp2", "--params", "3", check=True)
    fourth = run_cli("manifold", "cp2", "--params", "3", check=True)
    assert third.stdout == fourth.stdout


def test_out_flag_writes_file(tmp_path):
    out_path = tmp_path / "report.json"
    proc = run_cli("constants", "--out", str(out_path), check=True)
    assert proc.stdout == ""
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "constants"


def test_floats_are_printed_with_17_digits():
    proc = run_cli("manifold", "s4", "--params", "1", check=True)
    assert '"energy": 1.5707963267948966' in proc.stdout


@pytest.mark.parametrize("argv, param", [
    (("manifold", "s4", "--params", "1e-170"), "1e-170"),
    (("manifold", "s2xs2", "--params", "1e-170,1"), "1e-170"),
    (("dynamics", "--manifold", "s2xs2", "--params", "1,1e160"), "1e+160"),
    (("manifold", "s4", "--params", "1e-160"), "1e-160"),
    (("manifold", "cp2", "--params", "1e-310"), "1e-310"),
    # 1/r^2 or 1/lam is finite, but Scal overflows.
    (("manifold", "s4", "--params", "1e-154"), "1e-154"),
    (("manifold", "s2xs2", "--params", "1e-154,1e-154"), "1e-154"),
    (("manifold", "s2xs2", "--params", "1e-154,2e-154"), "1e-154"),
    (("manifold", "cp2", "--params", "1e-308"), "1e-308"),
])
def test_curvature_outside_the_doubles_exits_two(argv, param):
    # 1/r^2, 1/lam or Scal overflows or underflows; the operator is never built.
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert f"parameter {param} has no finite nonzero curvature" in proc.stderr


@pytest.mark.parametrize("argv", [
    # ||R||_F underflowed to 0, so the relative rule demanded exact zeros.
    ("manifold", "s4", "--params", "1e81"),
    ("dynamics", "--manifold", "s2xs2", "--params", "1e81,2e81"),
    ("manifold", "cp2", "--params", "1e163"),
    # ||R||_F overflowed: an inf residual in the envelope, or numpy warnings.
    ("manifold", "s4", "--params", "1e-85"),
    ("manifold", "s4", "--params", "1e-84"),
    ("manifold", "cp2", "--params", "1e-169"),
])
def test_verdicts_hold_where_the_squared_norm_leaves_the_doubles(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert parse_envelope(proc)["pass"] is True


def test_check_is_a_constant_of_the_envelope(tmp_path):
    assert run_cli("dynamics", "--manifold", "s4", "--check", "fixed-point").returncode == 2
    payload = parse_envelope(run_cli("dynamics", "--manifold", "s4", "--params", "1", check=True))
    assert payload["inputs"]["check"] == "fixed-point"
    omega_path = tmp_path / "omega.json"
    linalg.save_vector(omega_path, np.array([1.0, 0, 0, 0, 0, 1.0]))
    argv = ("states", "--sigma", "1,0,0,0,0,1", "--omega", str(omega_path))
    assert run_cli(*argv, "--check", "stationarity").returncode == 2
    assert parse_envelope(run_cli(*argv, check=True))["inputs"]["check"] == "stationarity"


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("manifold", "nonsense").returncode == 2
    assert run_cli("manifold", "s4", "--params", "-1").returncode == 2
    assert run_cli("solve-einstein", "--input", "missing.json",
                   "--star", "missing.json").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    star = tmp_path / "star.json"
    linalg.save_matrix(star, cv.SPLIT_STAR)
    assert run_cli("solve-einstein", "--input", str(bad),
                   "--star", str(star)).returncode == 2
    assert run_cli().returncode == 2
    assert run_cli("gns", "--algebra", "2:0.5,2:0.7").returncode == 2


def test_main_builds_the_parser_once(monkeypatch, capsys):
    from hodgekit import cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(["constants"]) == 0
    assert cli.main(["manifold", "s4", "--params", "2"]) == 0
    assert len(built) == 1
    assert original() is not original()
    # Importing the module builds none.
    code = "import hodgekit.cli as c; print(c._parser)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "None\n"
