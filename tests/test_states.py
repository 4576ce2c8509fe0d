"""Surface classes on the flat 4-torus: duals, stationarity, homology pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from hodgekit import curvature as cv
from hodgekit import dynamics as dyn
from hodgekit import states as st
from hodgekit import linalg
from hodgekit.einstein import make_refinement

E = np.eye(6)


@pytest.fixture(scope="module")
def gen():
    return dyn.hodge_generator(make_refinement(cv.STANDARD_STAR))


def test_surface_class_validation():
    sigma = st.TorusSurfaceClass((1, 0, 0, 0, 0, -2))
    assert sigma.coefficients == (1, 0, 0, 0, 0, -2)
    with pytest.raises(ValueError):
        st.TorusSurfaceClass((0.5, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        st.TorusSurfaceClass((1, 2, 3))


def test_form_validation():
    with pytest.raises(ValueError, match="2-form needs 6 coefficients"):
        st.surface_integral((1, 0, 0, 0, 0, 0), np.zeros(5))


def test_poincare_dual_examples():
    np.testing.assert_array_equal(st.poincare_dual((1, 0, 0, 0, 0, 0)), E[5])
    np.testing.assert_array_equal(st.poincare_dual((0, 0, 0, 0, 0, 0)), np.zeros(6))
    dual = st.poincare_dual((1, 0, 0, 0, 0, 1))
    np.testing.assert_array_equal(dual, E[0] + E[5])
    assert st.is_self_dual(dual)


def test_poincare_dual_represents_integration():
    # wedge(omega, eta_sigma) equals the integral over sigma, for every
    # basis surface against every basis form.
    rng = np.random.default_rng(50)
    for _ in range(20):
        sigma = tuple(int(x) for x in rng.integers(-3, 4, 6))
        omega = rng.standard_normal(6)
        eta = st.poincare_dual(sigma)
        lhs = omega @ cv.STANDARD_STAR @ eta
        rhs = st.surface_integral(sigma, omega)
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_eigenspace_gates_are_relative_to_the_norm(scale):
    # Rows of BASIS_CHANGE: an orthonormal self-dual triple, then an
    # anti-self-dual one, with irrational entries.
    for row, sd in zip(cv.BASIS_CHANGE, [True] * 3 + [False] * 3):
        v = scale * row
        assert st.is_self_dual(v) is sd
        assert st.is_anti_self_dual(v) is not sd
    assert st.is_self_dual(np.zeros(6)) and st.is_anti_self_dual(np.zeros(6))


def test_surface_integral_is_bilinear_dot():
    assert st.surface_integral((2, 0, 0, 0, 0, 1), E[0]) == 2.0
    assert st.surface_integral((2, 0, 0, 0, 0, 1), 1j * E[5]) == 1j


def test_state_functional_examples():
    sigma = (1, 0, 0, 0, 0, 1)
    omega = E[0] + E[5]
    assert st.state_functional(sigma, omega, np.eye(6)) == pytest.approx(2.0)
    assert st.state_functional(sigma, E[1], np.eye(6)) == 0.0
    # The star fixes self-dual data, so A = star gives the same value as A = 1.
    same = st.state_functional(sigma, omega, cv.STANDARD_STAR)
    assert same == pytest.approx(2.0, abs=1e-14)


def test_state_functional_rejects_wrong_shape():
    with pytest.raises(ValueError):
        st.state_functional((1, 0, 0, 0, 0, 1), E[0], np.eye(5))


def test_stationarity_identity_operator(gen):
    # F(star^t 1 star^-t) is constant whatever sigma and omega are; the
    # exact derivative F(W_t [log star, 1] W_t*) is pure rounding dust,
    # well under the 1e-8 verdict threshold.
    val = st.stationarity_derivative((1, 2, 0, -1, 0, 3), E[1] + 2j * E[4], gen, np.eye(6))
    assert val < 1e-9


def test_stationarity_self_dual_data(gen):
    sigma = (1, 0, 0, 0, 0, 1)
    omega = E[0] + E[5]
    rng = np.random.default_rng(51)
    worst = max(
        st.stationarity_derivative(sigma, omega, gen, linalg.random_matrix(rng, 6))
        for _ in range(20)
    )
    assert worst < 1e-8


def test_stationarity_fails_for_anti_self_dual_form(gen):
    sigma = (1, 0, 0, 0, 0, 1)       # self-dual dual class
    omega = E[0] - E[5]              # anti-self-dual form
    mixer = np.outer(E[0], E[0])
    # The derivative magnitude is pi |<eta, A omega>| here, far from zero.
    assert st.stationarity_derivative(sigma, omega, gen, mixer) > 1e-3
    rng = np.random.default_rng(52)
    worst = max(
        st.stationarity_derivative(sigma, omega, gen, linalg.random_matrix(rng, 6))
        for _ in range(20)
    )
    assert worst > 1e-3


def test_perturbed_stationarity_matches_base_at_zero(gen):
    sigma = (0, 1, 0, 0, -1, 0)
    omega = E[2] + 1j * E[3]
    pg = dyn.perturbed_star(gen, 0.0, 1)
    rng = np.random.default_rng(53)
    a = linalg.random_matrix(rng, 6)
    base = st.stationarity_derivative(sigma, omega, gen, a)
    pert = st.perturbed_stationarity(sigma, omega, pg, a)
    assert abs(base - pert) < 1e-9


def test_perturbed_stationarity_self_dual_data(gen):
    sigma = (1, 0, 0, 0, 0, 1)
    omega = 3.0 * (E[0] + E[5]) + 1j * (E[2] + E[3])
    assert st.is_self_dual(omega)
    rng = np.random.default_rng(54)
    samples = [linalg.random_matrix(rng, 6) for _ in range(20)]
    for eps in (0.1, -0.1):
        for sign in (1, -1):
            pg = dyn.perturbed_star(gen, eps, sign)
            worst = max(
                st.perturbed_stationarity(sigma, omega, pg, a) for a in samples
            )
            assert worst < 1e-8


def test_perturbed_stationarity_fails_for_anti_self_dual_form(gen):
    sigma = (1, 0, 0, 0, 0, 1)
    omega = E[0] - E[5]
    mixer = np.outer(E[0], E[0])
    for eps in (0.1, -0.1):
        for sign in (1, -1):
            pg = dyn.perturbed_star(gen, eps, sign)
            assert st.perturbed_stationarity(sigma, omega, pg, mixer) > 1e-3


def _complex_vectors(size, scale):
    return hs.lists(hs.complex_numbers(max_magnitude=1.0), min_size=size,
                    max_size=size).map(lambda v: scale * np.array(v))


@settings(max_examples=200, deadline=None)
@given(hs.tuples(*[hs.integers(-3, 3)] * 6), hs.floats(-6.0, 6.0), hs.floats(-6.0, 6.0),
       hs.data(), hs.floats(-3.0, 3.0), hs.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       hs.sampled_from((1, -1)))
def test_perturbed_probe_is_power_times_the_base_probe(sigma, log_omega, log_a, data, t, eps,
                                                       sign):
    # The perturbed flow conjugates by star^(power t) whatever epsilon is,
    # so the CLI's one sign -1 family covers every (epsilon, sign) pair.
    gen = dyn.hodge_generator(make_refinement(cv.STANDARD_STAR))
    omega = data.draw(_complex_vectors(6, 10.0 ** log_omega))
    a = data.draw(_complex_vectors(36, 10.0 ** log_a)).reshape(6, 6)
    pert = st.perturbed_stationarity(sigma, omega, dyn.perturbed_star(gen, eps, sign), a, (t,))
    assert pert == st.perturbed_stationarity(sigma, omega, dyn.perturbed_star(gen, 0.0, sign),
                                             a, (t,))
    if sign == 1:
        assert pert == st.stationarity_derivative(sigma, omega, gen, a, (t,))
    else:
        assert pert == 2 * st.stationarity_derivative(sigma, omega, gen, a, (2 * t,))


CLASS_FORMS = {"SD": ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, -1, 0), (0, 0, 1, 1, 0, 0)),
               "ASD": ((1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 1, 0), (0, 0, 1, -1, 0, 0))}


def _class_form(data, cls, elements):
    """A form of class SD, ASD, mixed or zero: a combination of the eigenbasis drawn by data."""
    if cls == "zero":
        return np.zeros(6)
    if cls == "mixed":
        return _class_form(data, "SD", elements) + _class_form(data, "ASD", elements)
    return sum(data.draw(elements) * np.array(v) for v in CLASS_FORMS[cls])


CLASSES = hs.sampled_from(["SD", "ASD", "mixed", "zero"])


@settings(max_examples=200, deadline=None)
@given(CLASSES, CLASSES, hs.floats(-300.0, 300.0), hs.integers(1, 8), hs.integers(0, 2**32 - 1),
       hs.data())
def test_stacked_probes_equal_the_largest_per_matrix_probe(sigma_cls, omega_cls, exponent, count,
                                                          seed, data):
    """Random classes of sigma and omega at form scales 10^[-300, 300]: a stack of
    1 to 8 matrices gives, bit for bit, the largest of the per-matrix probes."""
    gen = dyn.hodge_generator(make_refinement(cv.STANDARD_STAR))
    sigma = _class_form(data, sigma_cls, hs.integers(-3, 3))
    omega = 10.0 ** exponent * _class_form(data, omega_cls, hs.complex_numbers(max_magnitude=1.0))
    rng = np.random.default_rng(seed)
    stack = np.array([linalg.random_matrix(rng, 6) for _ in range(count)])
    pg = dyn.perturbed_star(gen, 0.1, -1)
    for probe, g in ((st.stationarity_derivative, gen), (st.perturbed_stationarity, pg)):
        per_matrix = np.float64(max(probe(sigma, omega, g, a) for a in stack))
        assert np.float64(probe(sigma, omega, g, stack)).tobytes() == per_matrix.tobytes()


def test_stacked_probes_reject_operators_that_are_not_6x6(gen):
    for shape in ((6,), (3, 12), (2, 6, 7), (1, 2, 6, 6)):
        with pytest.raises(ValueError, match="expected 6x6 operators"):
            st.stationarity_derivative((1, 0, 0, 0, 0, 0), np.ones(6), gen, np.ones(shape))


def test_homology_pairing_examples():
    two_pi_i = 2j * np.pi
    assert st.homology_pairing((1, 0, 0, 0, 0, 0), two_pi_i * E[0]) == 1.0
    assert st.homology_pairing((1, 0, 0, 0, 0, 0), two_pi_i * E[1]) == 0.0
    combo = st.homology_pairing((2, 0, 0, 0, 0, 1), two_pi_i * (E[0] + 3.0 * E[5]))
    assert combo == 5.0  # exact, small integer multiples of 2 pi i stay exact


def test_homology_pairing_all_basis_pairs_exact_integers():
    two_pi_i = 2j * np.pi
    for i in range(6):
        sigma = tuple(int(x) for x in E[i])
        for j in range(6):
            val = st.homology_pairing(sigma, two_pi_i * E[j])
            want = 1.0 if i == j else 0.0
            assert val == want
            assert val.imag == 0.0


def test_degenerate_pairing_branch():
    sigma = (1, 0, 0, 0, 0, 0)
    omega = 2j * np.pi * E[1]
    assert st.pairing_is_degenerate(sigma, omega)
    assert not st.pairing_is_degenerate(sigma, 2j * np.pi * E[0])
    assert st.pairing_is_degenerate((0, 0, 0, 0, 0, 0), E[0])
