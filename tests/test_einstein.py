"""Vacuum condition over a refined algebra: validation, checking, solving."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import curvature as cv
from hodgekit import linalg
from hodgekit.einstein import check_einstein_vacuum, make_refinement, solve_einstein_vacuum

import vacuum_oracle


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


def _signed_pairing(rng, pairs, fixed):
    """A balanced signed-permutation star: `pairs` random pairs (i, j) with
    s_ij = s_ji = +-1, and `fixed` fixed points of each sign on the diagonal."""
    d = 2 * pairs + 2 * fixed
    perm = rng.permutation(d)
    star = np.zeros((d, d))
    for i, j in zip(perm[:pairs], perm[pairs:2 * pairs]):
        star[i, j] = star[j, i] = rng.choice((-1.0, 1.0))
    rest = perm[2 * pairs:]
    star[rest, rest] = [1.0] * fixed + [-1.0] * fixed
    return star


def _report_fields(report):
    return (report.solves, report.self_adjoint_residual, report.bianchi_residual,
            report.einstein_residual, report.lam)


@settings(max_examples=150, deadline=None)
@given(half=st.integers(1, 32), fixed=st.integers(0, 32), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-300, 300))
def test_signed_permutation_star_matches_the_dense_formulas_bitwise(half, fixed, seed, exponent):
    """On Gaussian inputs, which hold no exact zeros, gathers with a signed-permutation
    star give the bits of the BLAS products, at d = 2 half in [2, 64] and input scales
    10^[-300, 300].  Where an entry is an exact zero only its value agrees: a sum of
    signed zeros may take another sign (see the next test)."""
    fixed = min(fixed, half)
    rng = np.random.default_rng(seed)
    star = _signed_pairing(rng, half - fixed, fixed)
    ref = make_refinement(star)
    assert ref.product.is_signed_permutation
    b = linalg.random_matrix(rng, ref.dim, 10.0 ** exponent)
    q = solve_einstein_vacuum(b, ref)
    expected = vacuum_oracle.solve(b, star)
    assert q.tobytes() == expected.tobytes()
    assert _report_fields(check_einstein_vacuum(q, ref)) == vacuum_oracle.report(q, star)
    assert _report_fields(check_einstein_vacuum(b, ref)) == vacuum_oracle.report(b, star)


def _complex(re, im):
    """re + i im with both parts exactly as given, signed zeros included."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _signed_zeros(rng, a, negative=0.5):
    """a with every zero real or imaginary part -0.0 with probability negative, else +0.0."""
    a = np.asarray(a, dtype=np.complex128)
    re, im = a.real.copy(), a.imag.copy()
    for part in (re, im):
        zero = part == 0
        part[zero] = np.where(rng.random(np.count_nonzero(zero)) < negative, -0.0, 0.0)
    return _complex(re, im)


@settings(max_examples=300, deadline=None)
@given(half=st.integers(1, 8), fixed=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "anti-hermitian", "integer"]),
       shift=st.sampled_from([-1.0, -0.0, 0.0, 1.0]), star_zeros=st.booleans(),
       negative=st.sampled_from([0.0, 0.5, 1.0]))
def test_in_place_solve_keeps_the_gathered_bits_on_signed_zeros(half, fixed, seed, kind, shift,
                                                                star_zeros, negative):
    """The solve keeps the bits of the earlier gathered solve where entries are signed
    zeros: B = 0, B anti-Hermitian or integer-valued, plus shift times the star, so that
    tau(S star) is shift (of either sign, or a signed zero) or any integer over d.  Each
    zero part of B, and with star_zeros of the star, is -0.0 with probability negative."""
    fixed = min(fixed, half)
    rng = np.random.default_rng(seed)
    star = _signed_pairing(rng, half - fixed, fixed)
    if star_zeros:
        star = _signed_zeros(rng, star, negative)
    d = star.shape[0]
    ints = rng.integers(-2, 3, (2, d, d)).astype(float)
    b = {"zero": np.zeros((d, d)), "integer": _complex(*ints),
         "anti-hermitian": _complex(*ints) - _complex(*ints).conj().T}[kind]
    b = _signed_zeros(rng, b + shift * star, negative)
    ref = make_refinement(star)
    assert ref.product.is_signed_permutation
    q = solve_einstein_vacuum(b, ref)
    assert q.tobytes() == vacuum_oracle.gathered_solve(b, ref.star).tobytes()
    assert np.array_equal(q, vacuum_oracle.solve(b, ref.star))
    assert _report_fields(check_einstein_vacuum(q, ref)) == vacuum_oracle.report(q, ref.star)


def _signed_permutation(rng, d, kind):
    """perm and signs of a d x d signed permutation: the identity, minus it, any one,
    or an involution (random pairs, some with opposite signs, and signed fixed points)."""
    order = np.arange(d)
    if kind in ("identity", "minus identity"):
        return order, np.full(d, 1.0 if kind == "identity" else -1.0)
    sign = rng.choice((-1.0, 1.0), d)
    if kind == "any":
        return rng.permutation(d), sign
    perm, shuffled = order.copy(), rng.permutation(d)
    pairs = int(rng.integers(0, d // 2 + 1))
    left, right = shuffled[:pairs], shuffled[pairs:2 * pairs]
    perm[left], perm[right] = right, left
    flip = rng.random(pairs) < 0.1
    sign[right] = np.where(flip, -sign[left], sign[left])
    return perm, sign


@settings(max_examples=400, deadline=None)
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["identity", "minus identity", "any", "involution"]),
       zeros=st.booleans(), nudge=st.sampled_from([None, "ulp", "imaginary"]))
def test_signed_permutation_gates_agree_with_the_dense_gates(d, seed, kind, zeros, nudge):
    """make_refinement accepts a signed permutation exactly when the dense gates do, and
    otherwise raises their message.  With one entry nudged to 1 + 2^-52 times itself or
    given a tiny imaginary part the star is no signed permutation and takes the dense gates."""
    rng = np.random.default_rng(seed)
    perm, sign = _signed_permutation(rng, d, kind)
    star = np.zeros((d, d), dtype=np.complex128)
    star[np.arange(d), perm] = sign
    if zeros:
        star = _signed_zeros(rng, star)
    i = int(rng.integers(d))
    if nudge == "ulp":
        star[i, perm[i]] *= 1.0 + 2.0 ** -52
    elif nudge == "imaginary":
        star[i, perm[i]] += 1e-300j
    assert linalg.StarProduct(star).is_signed_permutation is (nudge is None)
    expected = vacuum_oracle.refinement_error(star)
    if expected is None:
        assert make_refinement(star).dim == d
    else:
        with pytest.raises(ValueError) as info:
            make_refinement(star)
        assert str(info.value) == expected


@pytest.mark.parametrize("star, message", [
    (np.eye(4), "differ from the identity"),
    # The 3-cycle e0 -> e1 -> e2 -> e0 and a fixed point.
    (np.array([[0.0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]), "self-adjoint"),
    # A pair with opposite signs squares to -1, and is not symmetric.
    (np.array([[0.0, 1], [-1, 0]]), "self-adjoint"),
    (np.diag([1.0, 1, 1, -1]), "zero normalized trace"),
    (np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
     "zero normalized trace"),
])
def test_invalid_signed_permutation_stars_keep_their_messages(star, message):
    with pytest.raises(ValueError, match=message):
        make_refinement(star)


def test_stars_that_are_not_signed_permutations_take_the_dense_path():
    rng = np.random.default_rng(34)
    off = cv.SPLIT_STAR.copy()
    off[0, 0] = 1.0 + 2.0 ** -52
    for ref in (_random_refinement(rng, 6), _random_refinement(rng, 16), make_refinement(off)):
        assert not ref.product.is_signed_permutation
        b = linalg.random_matrix(rng, ref.dim)
        q = solve_einstein_vacuum(b, ref)
        # Only the trace term is summed in another order than np.trace(S star).
        assert linalg.frobenius(q - vacuum_oracle.solve(b, ref.star)) <= 1e-14 * linalg.frobenius(b)
        report = check_einstein_vacuum(q, ref)
        expected = vacuum_oracle.report(q, ref.star)
        assert report.solves == expected[0]
        assert (report.self_adjoint_residual, report.einstein_residual) == expected[1:4:2]
    for star in (cv.SPLIT_STAR, cv.STANDARD_STAR):
        assert make_refinement(star).product.is_signed_permutation


def _overflowing_input():
    """1e308 times a random 6x6 of largest entry 1: ||B|| leaves the doubles,
    while its vacuum solution, an average, stays inside them."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return 1e308 * (g / np.abs(g).max())


def test_check_rejects_an_operator_whose_norm_leaves_the_doubles():
    ref = make_refinement(cv.SPLIT_STAR)
    with pytest.raises(ValueError, match="operator Q has a Frobenius norm beyond the double range"):
        check_einstein_vacuum(_overflowing_input(), ref)


def test_solve_still_answers_where_only_the_input_norm_overflows():
    ref = make_refinement(cv.SPLIT_STAR)
    q = solve_einstein_vacuum(_overflowing_input(), ref)
    assert np.isfinite(linalg.frobenius(q))
    assert check_einstein_vacuum(q, ref).solves


def test_solve_halves_before_adding_where_a_sum_leaves_the_doubles():
    # B + B* overflows on the diagonal, (B + B*)/2 and the solution do not;
    # the solution's norm does, so checking it is refused.
    big = np.full((6, 6), 1e308)
    big[0, 1] = -1e308
    ref = make_refinement(cv.SPLIT_STAR)
    want = np.kron(np.eye(2), np.full((3, 3), 1e308))
    want[0, 1] = want[1, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(solve_einstein_vacuum(big, ref), want)
        with pytest.raises(ValueError, match="operator Q has a Frobenius norm"):
            check_einstein_vacuum(big, ref)
        # (B + B*)/2 is a double here, but the sum in tau(S star) is not.
        for diag, solution in (([0.89e308] * 3 + [0.0] * 3, [0.445e308] * 6),
                               ([1e308, 1e308, 0, 0, 0, 0], np.array([2, 2, -1, 1, 1, 1]) / 3 * 1e308)):
            q = solve_einstein_vacuum(np.diag(diag), ref)
            np.testing.assert_allclose(q, np.diag(solution), rtol=1e-15)
            assert check_einstein_vacuum(q, ref).solves


def test_check_names_a_residual_that_leaves_the_doubles():
    # ||Q|| = 1.4e308 is a double, ||Q - Q*|| = 2.8e308 is not.
    q = np.zeros((6, 6))
    q[0, 1], q[1, 0] = 1e308, -1e308
    ref = make_refinement(cv.SPLIT_STAR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"self-adjoint residual \|\|Q - Q\*\|\| leaves"):
            check_einstein_vacuum(q, ref)


def test_check_rescales_traces_whose_sums_leave_the_doubles():
    # Trace(Q) = Trace(Q star) = 2e308 overflow; tau(Q) and tau(Q star) do not.
    ref = make_refinement(cv.SPLIT_STAR)
    q = np.diag([1e308, 1e308, 0, 0, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_einstein_vacuum(q, ref)
        assert linalg.normalized_trace(q) == pytest.approx(1e308 / 3, rel=1e-15)
    assert not report.solves
    assert report.bianchi_residual == pytest.approx(1e308 / 3, rel=1e-15)
    assert report.lam == pytest.approx(1e308, rel=1e-15)
    assert (report.self_adjoint_residual, report.einstein_residual) == (0.0, 0.0)
