"""Curvature block algebra and the reference operators.

The s2xs2 and cp2 exemplars are cross-checked against matrices built
independently from 4-index curvature tensors (product metric, complex
space form), so the frozen block data is backed by an actual geometry
computation rather than by itself.
"""

import numpy as np
import pytest

from hodgekit import curvature as cv
from hodgekit import linalg

PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _operator_from_tensor(r4):
    """6x6 matrix of a curvature 4-tensor on the ordered-pair basis."""
    basis = np.eye(4)
    out = np.empty((6, 6))
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            out[p, q] = r4(basis[i], basis[j], basis[k], basis[l])
    return out


def _constant_tensor(k, proj=None):
    """Sectional curvature k on planes inside the range of proj."""
    p = np.eye(4) if proj is None else proj

    def r4(x, y, z, w):
        px, py, pz, pw = p @ x, p @ y, p @ z, p @ w
        return k * (px @ pz * (py @ pw) - px @ pw * (py @ pz))

    return r4


def _fubini_study_tensor(lam):
    """Complex space form, holomorphic sectional curvature c = 4/lam."""
    c = 4.0 / lam
    jmat = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )

    def r4(x, y, z, w):
        jx, jy, jz = jmat @ x, jmat @ y, jmat @ z
        return (c / 4.0) * (
            (x @ z) * (y @ w)
            - (x @ w) * (y @ z)
            + (jx @ z) * (jy @ w)
            - (jx @ w) * (jy @ z)
            + 2.0 * (jx @ y) * (jz @ w)
        )

    return r4


def _to_split_basis(m_std):
    return cv.BASIS_CHANGE @ m_std @ cv.BASIS_CHANGE.T


# ---------------------------------------------------------------------------
# Star and eigenbasis.
# ---------------------------------------------------------------------------


def test_standard_star_is_a_balanced_involution():
    s = cv.STANDARD_STAR
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(s @ s, np.eye(6))
    assert np.trace(s) == 0.0
    eigs = np.sort(np.linalg.eigvalsh(s))
    np.testing.assert_allclose(eigs, [-1, -1, -1, 1, 1, 1], atol=1e-14)


def test_standard_star_basis_action():
    e12 = np.eye(6)[0]
    e13 = np.eye(6)[1]
    e14 = np.eye(6)[2]
    np.testing.assert_array_equal(cv.STANDARD_STAR @ e12, np.eye(6)[5])
    np.testing.assert_array_equal(cv.STANDARD_STAR @ e13, -np.eye(6)[4])
    np.testing.assert_array_equal(cv.STANDARD_STAR @ e14, np.eye(6)[3])


def test_basis_change_is_orthogonal_and_diagonalizes_star():
    b = cv.BASIS_CHANGE
    np.testing.assert_allclose(b @ b.T, np.eye(6), atol=1e-15)
    np.testing.assert_allclose(b @ cv.STANDARD_STAR @ b.T, cv.SPLIT_STAR, atol=1e-15)


def test_kaehler_direction_is_first_self_dual_row():
    want = np.zeros(6)
    want[[0, 5]] = 1.0 / np.sqrt(2.0)
    np.testing.assert_array_equal(cv.BASIS_CHANGE[0], want)


# ---------------------------------------------------------------------------
# Block assembly.
# ---------------------------------------------------------------------------


def test_assemble_scalar_example():
    op = cv.CurvatureOperator(12.0, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    np.testing.assert_array_equal(cv.assemble_curvature(op), np.eye(6))
    assert op.lam == 3.0


def _random_block_data(rng):
    def traceless_sym():
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        return a - (np.trace(a) / 3.0) * np.eye(3)

    return cv.CurvatureOperator(
        scal=float(rng.standard_normal()) * 10.0,
        weyl_plus=traceless_sym(),
        weyl_minus=traceless_sym(),
        ric0=rng.standard_normal((3, 3)),
    )


def test_assemble_decompose_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(20):
        op = _random_block_data(rng)
        back = cv.decompose_curvature(cv.assemble_curvature(op))
        assert abs(back.scal - op.scal) < 1e-12
        assert linalg.frobenius(back.weyl_plus - op.weyl_plus) < 1e-12
        assert linalg.frobenius(back.weyl_minus - op.weyl_minus) < 1e-12
        assert linalg.frobenius(back.ric0 - op.ric0) < 1e-12


def test_assembled_trace_is_half_the_scalar():
    rng = np.random.default_rng(21)
    for _ in range(100):
        op = _random_block_data(rng)
        assert abs(np.trace(cv.assemble_curvature(op)) - op.scal / 2.0) < 1e-12


def test_block_validation():
    bad = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="traceless"):
        cv.CurvatureOperator(0.0, bad, np.zeros((3, 3)), np.zeros((3, 3)))
    asym = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        cv.CurvatureOperator(0.0, asym, np.zeros((3, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("radius", [1e-6, 1e-4, 1.0, 1e4])
def test_block_gates_are_relative_to_the_operator(radius):
    # Weyl trace rounding grows with the entries, about 1/r^2.
    for model in (cv.exemplar("s2xs2", radius, radius), cv.exemplar("cp2", radius)):
        assert cv.ric0_norm(model.matrix) <= 1e-12 * linalg.frobenius(model.matrix)
    # A defect that is small in absolute terms is still a defect.
    bad = 1e-20 * np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="traceless"):
        cv.CurvatureOperator(0.0, bad, np.zeros((3, 3)), np.zeros((3, 3)))


def test_decompose_validation():
    with pytest.raises(ValueError):
        cv.decompose_curvature(np.zeros((5, 5)))
    skew = np.zeros((6, 6))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="symmetric"):
        cv.decompose_curvature(skew)
    with pytest.raises(ValueError, match="real"):
        cv.decompose_curvature(np.eye(6) * (1.0 + 1e-3j))


# ---------------------------------------------------------------------------
# Exemplars against independent tensor oracles.
# ---------------------------------------------------------------------------


def test_round_sphere_matches_constant_curvature_tensor():
    for radius in (0.5, 1.0, 2.0):
        k = 1.0 / radius**2
        oracle = _to_split_basis(_operator_from_tensor(_constant_tensor(k)))
        model = cv.exemplar("s4", radius)
        np.testing.assert_allclose(model.matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(model.matrix, k * np.eye(6), atol=1e-12)
        assert model.expected_einstein is True
        assert model.expected_lambda == pytest.approx(3.0 * k, abs=1e-15)


def test_flat_torus_is_zero():
    model = cv.exemplar("t4_flat")
    np.testing.assert_array_equal(model.matrix, np.zeros((6, 6)))
    assert model.expected_einstein is True
    assert model.expected_lambda == 0.0


def test_sphere_product_matches_product_tensor():
    p1 = np.diag([1.0, 1.0, 0.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0, 1.0])
    for r1, r2 in ((1.0, 1.0), (1.0, 2.0), (0.7, 1.3)):
        k1, k2 = 1.0 / r1**2, 1.0 / r2**2
        t1 = _constant_tensor(k1, p1)
        t2 = _constant_tensor(k2, p2)
        oracle_std = _operator_from_tensor(lambda x, y, z, w: t1(x, y, z, w) + t2(x, y, z, w))
        np.testing.assert_allclose(oracle_std, np.diag([k1, 0, 0, 0, 0, k2]), atol=1e-13)
        model = cv.exemplar("s2xs2", r1, r2)
        np.testing.assert_allclose(model.matrix, _to_split_basis(oracle_std), atol=1e-12)


def test_sphere_product_einstein_exactly_at_equal_radii():
    equal = cv.exemplar("s2xs2", 1.5, 1.5)
    assert equal.expected_einstein is True
    assert equal.expected_lambda == pytest.approx(1.0 / 1.5**2)
    assert linalg.frobenius(equal.curvature.ric0) < 1e-14

    skew = cv.exemplar("s2xs2", 1.0, 2.0)
    assert skew.expected_einstein is False
    assert skew.expected_lambda is None
    # Trace-free Ricci block carries half the curvature gap on the
    # Kaehler-type direction.
    assert skew.curvature.ric0[0, 0] == pytest.approx(0.375, abs=1e-14)


def test_fubini_study_matches_complex_space_form_tensor():
    for lam in (1.0, 2.0, 5.0):
        oracle = _to_split_basis(_operator_from_tensor(_fubini_study_tensor(lam)))
        model = cv.exemplar("cp2", lam)
        np.testing.assert_allclose(model.matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(
            model.matrix, np.diag([6.0, 0.0, 0.0, 2.0, 2.0, 2.0]) / lam, atol=1e-12
        )
        parts = cv.decompose_curvature(model.matrix)
        assert parts.scal == pytest.approx(24.0 / lam, abs=1e-12)
        np.testing.assert_allclose(parts.weyl_plus, np.diag([4.0, -2.0, -2.0]) / lam, atol=1e-12)
        np.testing.assert_allclose(parts.weyl_minus, np.zeros((3, 3)), atol=1e-12)
        assert linalg.frobenius(parts.ric0) < 1e-12
        assert model.expected_lambda == pytest.approx(6.0 / lam, abs=1e-12)


def test_fubini_study_sectional_curvatures():
    r4 = _fubini_study_tensor(1.0)
    e = np.eye(4)
    # Holomorphic plane (e1, J e1 = e2) versus totally real plane (e1, e3).
    assert r4(e[0], e[1], e[0], e[1]) == pytest.approx(4.0)
    assert r4(e[0], e[2], e[0], e[2]) == pytest.approx(1.0)


def test_exemplar_validation():
    with pytest.raises(ValueError):
        cv.exemplar("s4", -1.0)
    with pytest.raises(ValueError):
        cv.exemplar("s4")
    with pytest.raises(ValueError):
        cv.exemplar("t4_flat", 1.0)
    with pytest.raises(ValueError):
        cv.exemplar("s2xs2", 1.0)
    with pytest.raises(ValueError):
        cv.exemplar("klein_bottle")


@pytest.mark.parametrize("name, params", [
    ("s4", (1e-170,)),        # r**2 underflows to 0: ZeroDivisionError
    ("s4", (1e-160,)),        # 1 / r**2 overflows to inf
    ("s2xs2", (1e-170, 1.0)),
    ("s2xs2", (1.0, 1e160)),  # r**2 overflows: OverflowError
    ("cp2", (1e-310,)),       # 1 / lam overflows to inf
    # The curvature is finite but Scal, the largest number built, is not.
    ("s4", (1e-154,)),        # Scal = 12 / r**2
    ("s2xs2", (1e-154, 1e-154)),  # Scal = 2 (1 / r1**2 + 1 / r2**2)
    ("s2xs2", (1e-154, 2e-154)),
    ("cp2", (1e-308,)),       # Scal = 24 / lam
])
def test_exemplar_rejects_curvature_outside_the_doubles(name, params):
    with pytest.raises(ValueError, match="no finite nonzero curvature"):
        cv.exemplar(name, *params)


@pytest.mark.parametrize("name, params", [
    ("s4", (1e154,)), ("s4", (3e-154,)), ("s2xs2", (1.0, 1e154)), ("cp2", (1e-169,)),
    ("s2xs2", (1.5e-154, 1.0)), ("cp2", (1.4e-307,)),
])
def test_exemplar_accepts_curvature_near_the_double_range(name, params):
    assert cv.exemplar(name, *params).name == name


# ---------------------------------------------------------------------------
# Scalar functionals.
# ---------------------------------------------------------------------------


def test_tau_operator_examples():
    assert cv.tau_operator([(1.0, np.eye(6))]) == 1.0
    m1 = cv.exemplar("s4", 1.0).matrix
    m2 = cv.exemplar("t4_flat").matrix
    assert cv.tau_operator([(0.5, m1), (0.5, m2)]) == pytest.approx(0.5, abs=1e-15)
    assert cv.tau_operator([(1.0, m1)]) == pytest.approx(1.0, abs=1e-15)


def test_tau_matches_lambda_over_three_on_einstein_exemplars():
    for model in (cv.exemplar("s4", 1.3), cv.exemplar("cp2", 2.0), cv.exemplar("t4_flat")):
        tau = cv.tau_operator([(1.0, model.matrix)])
        assert abs(tau - model.expected_lambda / 3.0) < 1e-12


def test_tau_operator_validation():
    with pytest.raises(ValueError):
        cv.tau_operator([])
    with pytest.raises(ValueError):
        cv.tau_operator([(0.7, np.eye(6))])
    with pytest.raises(ValueError):
        cv.tau_operator([(1.5, np.eye(6)), (-0.5, np.eye(6))])
    with pytest.raises(ValueError):
        cv.tau_operator([(1.0, np.eye(5))])


def test_bianchi_residual_vanishes_on_assembled_operators():
    rng = np.random.default_rng(22)
    for _ in range(20):
        op = _random_block_data(rng)
        assert cv.bianchi_residual(cv.assemble_curvature(op)) < 1e-14


def test_bianchi_residual_star_witness_is_exactly_one():
    assert cv.bianchi_residual(cv.SPLIT_STAR) == 1.0


def test_einstein_probes_on_exemplars():
    round_sphere = cv.exemplar("s4", 1.0).matrix
    assert cv.ric0_norm(round_sphere) == 0.0
    assert cv.star_commutator_norm(round_sphere) == 0.0

    skew = cv.exemplar("s2xs2", 1.0, 2.0).matrix
    assert cv.ric0_norm(skew) > 0.1
    assert cv.star_commutator_norm(skew) > 0.1
    # Bianchi still holds for the non-Einstein product.
    assert cv.bianchi_residual(skew) < 1e-14


def test_commutator_norm_in_flat_frame_agrees():
    m_split = cv.exemplar("s2xs2", 1.0, 2.0).matrix
    b = cv.BASIS_CHANGE
    m_std = b.T @ m_split @ b
    split_norm = cv.star_commutator_norm(m_split)
    std_norm = cv.star_commutator_norm(m_std, cv.STANDARD_STAR)
    assert abs(split_norm - std_norm) < 1e-12
