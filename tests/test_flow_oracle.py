"""Closed-form star flow and exact derivatives against the Schur oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hodgekit import curvature as cv
from hodgekit import dynamics as dyn
from hodgekit import linalg
from hodgekit import states as st
from hodgekit.einstein import make_refinement

import flow_oracle as oracle

TIMES = (-1.7, -0.4, 0.0, 0.3, 0.9, 1.0, 1.6, 2.5)

# The closed forms against the sampled flow and the dense pairing, in units
# of eps ||A||: the worst gap over 1,200 random draws was 5.9.
CLOSED_FORM_BOUND = 32 * np.finfo(float).eps


def _generators():
    rng = np.random.default_rng(90)
    q = oracle.random_unitary(rng, 8)
    frame_star = q @ np.diag([1.0] * 4 + [-1.0] * 4) @ q.conj().T
    return [dyn.hodge_generator(make_refinement(s))
            for s in (cv.SPLIT_STAR, cv.STANDARD_STAR, frame_star)]


GENERATORS = dict(zip(["split", "standard", "frame8"], _generators()))


@pytest.mark.parametrize("gen", _generators(), ids=["split", "standard", "frame8"])
def test_star_power_matches_schur_oracle(gen):
    for t in TIMES:
        gap = linalg.frobenius(dyn.star_power(gen, t) - oracle.star_power(gen, t))
        assert gap < 1e-13, (t, gap)


@pytest.mark.parametrize("gen", _generators(), ids=["split", "standard", "frame8"])
def test_perturbed_power_matches_schur_oracle(gen):
    for eps in (0.1, -0.1, 0.49, -0.49):
        for sign in (1, -1):
            pg = dyn.perturbed_star(gen, eps, sign)
            for t in TIMES:
                gap = linalg.frobenius(dyn.perturbed_power(pg, t)
                                       - oracle.perturbed_power(pg, t))
                assert gap < 1e-13, (eps, sign, t, gap)


def _random_normal(rng, dim, spectrum):
    u = oracle.random_unitary(rng, dim)
    return (u * spectrum) @ u.conj().T


def test_expm_normal_matches_schur_oracle():
    rng = np.random.default_rng(91)
    cases = []
    for dim in (2, 5, 8):
        spectrum = rng.uniform(-2.0, 2.0, dim) + 1j * rng.uniform(-4.0, 4.0, dim)
        cases.append(_random_normal(rng, dim, spectrum))
        # Degenerate spectra: one repeated eigenvalue, and two clusters.
        cases.append(_random_normal(rng, dim, np.full(dim, 0.3 - 1.1j)))
        cases.append(_random_normal(rng, dim, np.resize([0.5j, -1.0 + 2j], dim)))
        cases.append(rng.standard_normal() * np.eye(dim))
    for gen in _generators():
        cases.extend(t * oracle.log_star(gen) for t in TIMES)
    for a in cases:
        want = oracle.expm_schur(a)
        gap = linalg.frobenius(linalg.expm_normal(a) - want)
        assert gap < 1e-12 * max(1.0, linalg.frobenius(want)), gap


def test_expm_normal_still_rejects_non_normal():
    rng = np.random.default_rng(92)
    for dim in (2, 5, 8):
        u = oracle.random_unitary(rng, dim)
        spectrum = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        upper = np.triu(rng.standard_normal((dim, dim)), 1)
        skewed = u @ (np.diag(spectrum) + 1e-6 * upper) @ u.conj().T
        with pytest.raises(ValueError, match="not normal"):
            linalg.expm_normal(skewed)


def test_exact_derivative_matches_central_difference():
    # Unit-scale data in general position, so no derivative is near zero.
    rng = np.random.default_rng(93)
    gen = dyn.hodge_generator(make_refinement(cv.STANDARD_STAR))
    flows = [(gen, lambda t: oracle.star_power(gen, t), st.stationarity_derivative)]
    for eps in (0.1, -0.1):
        for sign in (1, -1):
            pg = dyn.perturbed_star(gen, eps, sign)
            flows.append((pg, lambda t, pg=pg: oracle.perturbed_power(pg, t),
                          st.perturbed_stationarity))
    for _ in range(5):
        sigma = tuple(int(x) for x in rng.integers(-2, 3, 6))
        omega = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = linalg.random_matrix(rng, 6)
        for flow, power, probe in flows:
            for t in st.DERIVATIVE_TIMES:
                exact = probe(sigma, omega, flow, a, times=(t,))
                fd = abs(oracle.derivative(sigma, omega, power, a, t))
                assert abs(exact - fd) <= 1e-6 * max(1.0, fd), (t, exact, fd)


@settings(max_examples=100, deadline=None)
@given(hst.sampled_from(sorted(GENERATORS)), hst.floats(-150.0, 150.0),
       hst.integers(0, 2**32 - 1))
def test_flow_residual_and_energy_match_the_sampled_flow_and_dense_pairing(name, log_scale, seed):
    # The flow moves A by |sin(pi t / 2)| times the commutator norm at every
    # t, so the sampled maximum, at t = 1, is flow_residual; and the energy
    # in closed form is the dense tau(H A).
    gen = GENERATORS[name]
    a = 10.0 ** log_scale * linalg.random_matrix(np.random.default_rng(seed), gen.dim)
    bound = CLOSED_FORM_BOUND * linalg.frobenius(a)
    fp = dyn.is_fixed_point(gen, a)
    for t in oracle.FIXED_POINT_TIMES:
        want = abs(np.sin(np.pi * t / 2.0)) * fp.flow_residual
        assert abs(oracle.flow_displacement(gen, a, t) - want) <= bound, t
    assert abs(oracle.sampled_flow_residual(gen, a) - fp.flow_residual) <= bound
    assert abs(dyn.energy(gen, a) - oracle.dense_energy(gen, a)) <= bound


def test_hamiltonian_identities():
    gen = dyn.hodge_generator(make_refinement(cv.SPLIT_STAR))
    h = oracle.hamiltonian(gen)
    assert linalg.frobenius(h - linalg.adjoint(h)) < 1e-14
    np.testing.assert_allclose(h @ h, np.pi * h, atol=1e-13)
    assert linalg.normalized_trace(h).real == pytest.approx(np.pi / 2.0, abs=1e-14)
    eigs = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(eigs, [0, 0, 0, np.pi, np.pi, np.pi], atol=1e-13)
