"""Star flow: period two, energy pairing, fixed points, perturbations."""

import numpy as np
import pytest

from hodgekit import curvature as cv
from hodgekit import dynamics as dyn
from hodgekit import linalg
from hodgekit.einstein import make_refinement

from flow_oracle import star_prime


@pytest.fixture(scope="module")
def gen():
    return dyn.hodge_generator(make_refinement(cv.SPLIT_STAR))


def test_generator_recovers_the_star(gen):
    np.testing.assert_allclose(dyn.star_power(gen, 1.0), cv.SPLIT_STAR, atol=1e-13)
    np.testing.assert_allclose(dyn.star_power(gen, 0.0), np.eye(6), atol=1e-14)
    np.testing.assert_allclose(dyn.star_power(gen, 2.0), np.eye(6), atol=1e-13)


def test_flow_has_period_two(gen):
    for t in np.linspace(-2.0, 2.0, 17):
        gap = linalg.frobenius(dyn.star_power(gen, t + 2.0) - dyn.star_power(gen, t))
        assert gap < 1e-10


def test_flow_is_unitary(gen):
    for t in (-1.7, -0.4, 0.3, 0.9, 1.6):
        w = dyn.star_power(gen, t)
        assert linalg.frobenius(w @ linalg.adjoint(w) - np.eye(6)) < 1e-10


def test_flow_group_law(gen):
    rng = np.random.default_rng(40)
    for _ in range(10):
        s, t = rng.uniform(-2.0, 2.0, 2)
        lhs = dyn.star_power(gen, s) @ dyn.star_power(gen, t)
        rhs = dyn.star_power(gen, s + t)
        assert linalg.frobenius(lhs - rhs) < 1e-10


def test_evolve_at_time_one_is_star_conjugation(gen):
    rng = np.random.default_rng(41)
    a = linalg.random_matrix(rng, 6)
    flowed = dyn.evolve(gen, a, 1.0)
    direct = cv.SPLIT_STAR @ a @ cv.SPLIT_STAR
    assert linalg.frobenius(flowed - direct) < 1e-12


def test_evolve_preserves_trace(gen):
    rng = np.random.default_rng(42)
    for t in (0.3, 0.8, 1.5):
        a = linalg.random_matrix(rng, 6)
        gap = abs(linalg.normalized_trace(dyn.evolve(gen, a, t)) - linalg.normalized_trace(a))
        assert gap < 1e-12


def test_energy_examples(gen):
    assert dyn.energy(gen, cv.exemplar("s4", 1.0).matrix) == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert dyn.energy(gen, cv.exemplar("cp2", 1.0).matrix) == pytest.approx(np.pi, abs=1e-12)
    assert dyn.energy(gen, cv.exemplar("t4_flat").matrix) == 0.0


def test_energy_is_pi_lambda_over_six_on_einstein_exemplars(gen):
    for model in (cv.exemplar("s4", 0.7), cv.exemplar("cp2", 3.0), cv.exemplar("s2xs2", 2.0, 2.0)):
        want = np.pi * model.expected_lambda / 6.0
        assert dyn.energy(gen, model.matrix) == pytest.approx(want, abs=1e-12)


def test_fixed_point_verdicts_agree_with_einstein(gen):
    einstein = [cv.exemplar("s4", 1.0), cv.exemplar("t4_flat"),
                cv.exemplar("s2xs2", 1.0, 1.0), cv.exemplar("cp2", 2.0)]
    for model in einstein:
        fp = dyn.is_fixed_point(gen, model.matrix)
        assert fp.fixed is True
        assert fp.flow_residual < 1e-10
        assert fp.commutator_norm < 1e-12

    fp = dyn.is_fixed_point(gen, cv.exemplar("s2xs2", 1.0, 2.0).matrix)
    assert fp.fixed is False
    assert fp.commutator_norm > 0.1
    assert fp.flow_residual > 0.1


def test_three_einstein_probes_agree_on_every_exemplar(gen):
    cases = [cv.exemplar("s4", 1.0), cv.exemplar("t4_flat"), cv.exemplar("cp2", 1.0),
             cv.exemplar("s2xs2", 1.0, 1.0), cv.exemplar("s2xs2", 1.0, 2.0)]
    for model in cases:
        r = model.matrix
        fp = dyn.is_fixed_point(gen, r)
        verdicts = {
            fp.commutator_norm <= 1e-10,
            cv.ric0_norm(r) <= 1e-10,
            fp.flow_residual <= 1e-10,
        }
        assert len(verdicts) == 1
        assert verdicts.pop() is model.expected_einstein


def test_perturbed_star_reduces_to_base_at_zero(gen):
    pg = dyn.perturbed_star(gen, 0.0, 1)
    np.testing.assert_allclose(star_prime(pg), cv.SPLIT_STAR, atol=1e-14)
    rng = np.random.default_rng(43)
    a = linalg.random_matrix(rng, 6)
    for t in (0.4, 1.1):
        gap = linalg.frobenius(dyn.perturbed_evolve(pg, a, t) - dyn.evolve(gen, a, t))
        assert gap < 1e-12


def test_perturbed_star_commutes_with_star(gen):
    rng = np.random.default_rng(44)
    for _ in range(10):
        eps = float(rng.uniform(-0.49, 0.49))
        sign = 1 if rng.random() < 0.5 else -1
        sp = star_prime(dyn.perturbed_star(gen, eps, sign))
        comm = cv.SPLIT_STAR @ sp - sp @ cv.SPLIT_STAR
        assert linalg.frobenius(comm) < 1e-12


def test_perturbed_square_carries_the_phase(gen):
    for eps in (0.1, -0.3, 0.45):
        sp = star_prime(dyn.perturbed_star(gen, eps, 1))
        want = np.exp(2j * np.pi * eps) * np.eye(6)
        np.testing.assert_allclose(sp @ sp, want, atol=1e-13)


def test_perturbed_power_hits_star_prime_at_time_one(gen):
    for eps, sign in ((0.1, 1), (0.1, -1), (-0.2, 1), (-0.2, -1)):
        pg = dyn.perturbed_star(gen, eps, sign)
        gap = linalg.frobenius(dyn.perturbed_power(pg, 1.0) - star_prime(pg))
        assert gap < 1e-12


def test_perturbed_power_is_unitary_group(gen):
    pg = dyn.perturbed_star(gen, 0.23, -1)
    rng = np.random.default_rng(45)
    for _ in range(5):
        s, t = rng.uniform(-2.0, 2.0, 2)
        w_s, w_t = dyn.perturbed_power(pg, s), dyn.perturbed_power(pg, t)
        assert linalg.frobenius(w_s @ linalg.adjoint(w_s) - np.eye(6)) < 1e-10
        assert linalg.frobenius(w_s @ w_t - dyn.perturbed_power(pg, s + t)) < 1e-10


def test_perturbed_star_validation(gen):
    with pytest.raises(ValueError):
        dyn.perturbed_star(gen, 0.5, 1)
    with pytest.raises(ValueError):
        dyn.perturbed_star(gen, np.nan, 1)
    with pytest.raises(ValueError):
        dyn.perturbed_star(gen, 0.1, 0)


def test_formal_temperature_values():
    ft = dyn.formal_temperature()
    assert ft.period_seconds == 2.0 * dyn.PLANCK_TIME_S
    assert abs(ft.period_seconds - 1.07e-43) / 1.07e-43 < 0.01
    assert abs(ft.temperature_kelvin - 7.06e31) / 7.06e31 < 0.01
    assert ft.temperature_over_planck == 0.5
