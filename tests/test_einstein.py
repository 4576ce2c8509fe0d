"""Vacuum condition over a refined algebra: validation, checking, solving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import curvature as cv
from hodgekit import linalg
from hodgekit.einstein import check_einstein_vacuum, make_refinement, solve_einstein_vacuum


def _random_refinement(rng, dim):
    """Random balanced involution: +/-1 eigenvalues in a random unitary frame."""
    a = linalg.random_matrix(rng, dim)
    q, _ = np.linalg.qr(a)
    signs = np.array([1.0] * (dim // 2) + [-1.0] * (dim // 2))
    return make_refinement(q @ np.diag(signs) @ q.conj().T)


def test_make_refinement_accepts_split_star():
    ref = make_refinement(cv.SPLIT_STAR)
    assert ref.dim == 6
    assert np.count_nonzero(np.linalg.eigvalsh(ref.star) > 0.0) == 3
    ref2 = make_refinement(np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.count_nonzero(np.linalg.eigvalsh(ref2.star) > 0.0) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_refinements_are_the_balanced_involutions(half, seed):
    # +/-1 eigenvalues in a random unitary frame at even d from 2 to 32.
    d = 2 * half
    q, _ = np.linalg.qr(linalg.random_matrix(np.random.default_rng(seed), d))
    signs = np.array([1.0] * half + [-1.0] * half)

    def frame(diag):
        return q @ np.diag(diag) @ q.conj().T

    ref = make_refinement(frame(signs))
    assert ref.dim == d
    assert np.count_nonzero(np.linalg.eigvalsh(ref.star) > 0.0) == half
    # One +1 turned into -1 unbalances the split (at d = 2 the star is -1).
    unbalanced = signs.copy()
    unbalanced[0] = -1.0
    with pytest.raises(ValueError, match="zero normalized trace"):
        make_refinement(frame(unbalanced))
    with pytest.raises(ValueError, match="square to the identity"):
        make_refinement(2.0 * frame(signs))


def test_make_refinement_rejections():
    with pytest.raises(ValueError, match="differ from the identity"):
        make_refinement(np.eye(6))
    with pytest.raises(ValueError, match="self-adjoint"):
        make_refinement(np.diag([1j, -1j]))
    with pytest.raises(ValueError, match="square to the identity"):
        make_refinement(np.diag([2.0, -2.0]))
    with pytest.raises(ValueError, match="zero normalized trace"):
        make_refinement(np.diag([1.0, 1.0, -1.0]))
    # Any odd dimension is unbalanced by parity alone.
    with pytest.raises(ValueError):
        make_refinement(np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))


def test_check_round_sphere_curvature_solves():
    ref = make_refinement(cv.SPLIT_STAR)
    report = check_einstein_vacuum(cv.exemplar("s4", 1.0).matrix, ref)
    assert report.solves is True
    assert report.self_adjoint_residual < 1e-12
    assert report.bianchi_residual < 1e-12
    assert report.einstein_residual < 1e-12
    assert report.lam == pytest.approx(3.0, abs=1e-12)
    payload = report.as_dict()
    assert payload["lambda"] == report.lam
    assert payload["solves"] is True


def test_check_star_itself_fails_bianchi_with_residual_one():
    ref = make_refinement(cv.SPLIT_STAR)
    report = check_einstein_vacuum(cv.SPLIT_STAR, ref)
    assert report.solves is False
    assert report.bianchi_residual == 1.0
    assert report.self_adjoint_residual == 0.0
    assert report.einstein_residual == 0.0


def test_check_skew_sphere_product_fails_only_einstein():
    ref = make_refinement(cv.SPLIT_STAR)
    report = check_einstein_vacuum(cv.exemplar("s2xs2", 1.0, 2.0).matrix, ref)
    assert report.solves is False
    assert report.self_adjoint_residual < 1e-12
    assert report.bianchi_residual < 1e-12
    assert report.einstein_residual > 0.1


def test_check_uses_the_curvature_bianchi_residual():
    # One implementation of |tau(Q star)|, on the check's complex copies.
    rng = np.random.default_rng(91)
    for _ in range(200):
        ref = make_refinement(cv.SPLIT_STAR) if rng.random() < 0.5 else _random_refinement(rng, 6)
        q = linalg.random_matrix(rng, 6, 10.0 ** rng.uniform(-6.0, 6.0))
        report = check_einstein_vacuum(q, ref)
        assert report.bianchi_residual == cv.bianchi_residual(linalg.as_operator(q), ref.star)
        assert report.einstein_residual == cv.star_commutator_norm(linalg.as_operator(q), ref.star)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_check_verdict_does_not_depend_on_units(scale):
    ref = make_refinement(cv.SPLIT_STAR)
    assert check_einstein_vacuum(scale * cv.exemplar("cp2", 1.0).matrix, ref).solves is True
    assert check_einstein_vacuum(scale * cv.SPLIT_STAR, ref).solves is False
    assert check_einstein_vacuum(np.zeros((6, 6)), ref).solves is True


def test_check_shape_mismatch():
    ref = make_refinement(cv.SPLIT_STAR)
    with pytest.raises(ValueError):
        check_einstein_vacuum(np.eye(4), ref)


def test_solve_identity_input():
    ref = make_refinement(cv.SPLIT_STAR)
    q = solve_einstein_vacuum(np.eye(6), ref)
    np.testing.assert_allclose(q, np.eye(6), atol=1e-14)
    assert check_einstein_vacuum(q, ref).lam == pytest.approx(3.0)


def test_solve_star_input_gives_zero():
    ref = make_refinement(cv.SPLIT_STAR)
    np.testing.assert_allclose(
        solve_einstein_vacuum(cv.SPLIT_STAR, ref), np.zeros((6, 6)), atol=1e-14
    )


def test_solver_random_inputs_all_dims_and_refinements():
    rng = np.random.default_rng(30)
    for dim in (6, 8):
        for _ in range(5):
            ref = _random_refinement(rng, dim)
            for _ in range(10):
                b = linalg.random_matrix(rng, dim)
                q = solve_einstein_vacuum(b, ref)
                report = check_einstein_vacuum(q, ref)
                assert report.solves, report
                trace_gap = abs(
                    linalg.normalized_trace(q).real - linalg.normalized_trace(b).real
                )
                assert trace_gap < 1e-12


def test_solver_is_idempotent():
    rng = np.random.default_rng(31)
    ref = _random_refinement(rng, 6)
    for _ in range(10):
        q = solve_einstein_vacuum(linalg.random_matrix(rng, 6), ref)
        again = solve_einstein_vacuum(q, ref)
        assert linalg.frobenius(again - q) < 1e-10


def test_solver_is_real_linear():
    rng = np.random.default_rng(32)
    ref = _random_refinement(rng, 8)
    for _ in range(10):
        a = linalg.random_matrix(rng, 8)
        b = linalg.random_matrix(rng, 8)
        c = float(rng.standard_normal())
        lhs = solve_einstein_vacuum(a + c * b, ref)
        rhs = solve_einstein_vacuum(a, ref) + c * solve_einstein_vacuum(b, ref)
        assert linalg.frobenius(lhs - rhs) < 1e-10


def test_lambda_does_not_depend_on_the_refinement():
    rng = np.random.default_rng(33)
    b = linalg.random_matrix(rng, 6)
    ref1 = _random_refinement(rng, 6)
    ref2 = _random_refinement(rng, 6)
    lam1 = check_einstein_vacuum(solve_einstein_vacuum(b, ref1), ref1).lam
    lam2 = check_einstein_vacuum(solve_einstein_vacuum(b, ref2), ref2).lam
    # Both equal 3 Re tau(B) because averaging preserves the real trace.
    assert abs(lam1 - lam2) < 1e-12
    assert abs(lam1 - 3.0 * linalg.normalized_trace(b).real) < 1e-12
