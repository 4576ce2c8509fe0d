"""Null ideals and induced representations over multi-matrix algebras.

The coupling weight gamma is cross-checked by a from-scratch oracle:
the null ideal is derived analytically from the density kernels, the
obstruction space J is spanned by hand (all pairwise products, plain
Gram-Schmidt), and the per-summand ranks are read off projector block
traces, reusing none of the library's GNS functions.  The
brute-force Gram/SVD pipeline in gns_oracle.py is compared field by
field in test_gns_oracle.py.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from hodgekit import gns
from hodgekit.linalg import DEFAULT_TOL

import gns_oracle
from gamma_oracle import brute_force_gamma, kernel_ideal, random_rank_state


def _alg22():
    return gns.FiniteAlgebra(((2, 0.5), (2, 0.5)))


def _m2():
    return gns.FiniteAlgebra(((2, 1.0),))


def _mixed():
    return gns.FiniteAlgebra(((2, 0.3), (3, 0.45), (1, 0.25)))


# ---------------------------------------------------------------------------
# Algebra plumbing.
# ---------------------------------------------------------------------------


def test_algebra_validation():
    with pytest.raises(ValueError):
        gns.FiniteAlgebra(((2, 0.5), (2, 0.4)))
    with pytest.raises(ValueError):
        gns.FiniteAlgebra(((0, 1.0),))
    with pytest.raises(ValueError):
        gns.FiniteAlgebra(((2, -1.0), (2, 2.0)))
    with pytest.raises(ValueError):
        gns.FiniteAlgebra(())


def test_trace_is_normalized_and_tracial():
    alg = _mixed()
    assert gns_oracle.trace(alg, alg.identity()) == pytest.approx(1.0)
    rng = np.random.default_rng(60)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    gap = abs(gns_oracle.trace(alg, alg.mul(x, y)) - gns_oracle.trace(alg, alg.mul(y, x)))
    assert gap < 1e-13


def test_coords_is_a_gns_isometry():
    alg = _mixed()
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        lhs = gns_oracle.inner(alg, x, y)
        rhs = np.vdot(gns_oracle.coords(alg, y), gns_oracle.coords(alg, x))
        assert abs(lhs - rhs) < 1e-12
        back = gns_oracle.from_coords(alg, gns_oracle.coords(alg, x))
        assert all(np.allclose(a, b) for a, b in zip(back, x))


def test_basis_has_total_dim_elements():
    alg = _mixed()
    basis = gns_oracle.basis(alg)
    assert len(basis) == alg.total_dim == 4 + 9 + 1


def test_left_mult_matrix_reproduces_multiplication():
    alg = _mixed()
    rng = np.random.default_rng(62)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    lhs = gns_oracle.left_mult_matrix(alg, x) @ gns_oracle.coords(alg, y)
    rhs = gns_oracle.coords(alg, alg.mul(x, y))
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_make_state_normalizes_and_validates():
    alg = _m2()
    state = gns.make_state(alg, [np.diag([2.0, 2.0])])
    assert gns_oracle.phi(state, alg.identity()) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        gns.make_state(alg, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="semidefinite"):
        gns.make_state(alg, [np.diag([1.0, -0.5])])
    with pytest.raises(ValueError, match="positive total mass"):
        gns.make_state(alg, [np.zeros((2, 2))])


def test_make_state_does_not_depend_on_units():
    # The gates are relative to the largest block norm: a valid state
    # passes at every scale and gives the same GNS data.
    alg = gns.FiniteAlgebra(((6, 0.5), (4, 0.5)))
    rng = np.random.default_rng(72)
    densities = [gns_oracle.density_block(rng, 6, 6), gns_oracle.density_block(rng, 4, 2)]
    for scale in (1e-13, 1.0, 1e6):
        rep = gns.gns_representation(gns.make_state(alg, [scale * d for d in densities]))
        assert (rep.gamma, rep.ideal_dim) == (0.5, 8)
    with pytest.raises(ValueError, match="Hermitian"):
        gns.make_state(gns.FiniteAlgebra(((2, 1.0),)), [1e-13 * np.array([[1.0, 1.0], [0.0, 1.0]])])


# ---------------------------------------------------------------------------
# Null ideals.
# ---------------------------------------------------------------------------


def _ideal_basis(state):
    return gns_oracle.null_basis(state.algebra, gns.gns_null_ideal(state))


def test_faithful_state_has_trivial_ideal():
    state = gns.make_state(_m2(), [np.eye(2)])
    assert _ideal_basis(state) == []


def test_corner_state_ideal_kills_the_first_column():
    state = gns.make_state(_m2(), [np.diag([1.0, 0.0])])
    ideal = _ideal_basis(state)
    assert len(ideal) == 2
    for elem in ideal:
        # phi(A* A) picks up the first column, so it must vanish.
        assert np.linalg.norm(elem[0][:, 0]) < 1e-10


def test_ideal_is_a_left_ideal():
    rng = np.random.default_rng(63)
    state = random_rank_state(_mixed(), rng, (1, 2, 0))
    ideal = gns.gns_null_ideal(state)
    basis = gns_oracle.null_basis(state.algebra, ideal)
    assert gns_oracle.left_ideal_residual(state, basis, rng, samples=8) < 1e-12
    assert gns.left_ideal_residual(state, ideal) < 1e-12


@hs.composite
def rank_deficient_states(draw):
    """1-3 blocks of size 1-64 at weights 10^[-8, 0]; each density has up to
    three null eigenvalues in [0, DEFAULT_TOL / 2] of the unit mass."""
    sizes = draw(hs.lists(hs.integers(1, 64), min_size=1, max_size=3))
    raw = [10.0 ** draw(hs.floats(-8.0, 0.0)) for _ in sizes]
    alg = gns.FiniteAlgebra(tuple((k, w / sum(raw)) for k, w in zip(sizes, raw)))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    nullities = [draw(hs.integers(0, min(k, 3))) for k in sizes]
    live = [rng.uniform(0.5, 1.5, k - n) for k, n in zip(sizes, nullities)]
    mass = sum(v.sum() for v in live)
    assume(mass > 0)
    blocks = []
    for k, n, vals in zip(sizes, nullities, live):
        null = [draw(hs.floats(0.0, DEFAULT_TOL / 2)) * mass for _ in range(n)]
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        blocks.append((q * np.concatenate([null, vals])) @ q.conj().T)
    return gns.make_state(alg, blocks), sum(k * n for k, n in zip(sizes, nullities))


@settings(max_examples=60, deadline=None)
@given(rank_deficient_states())
def test_left_ideal_residual_does_not_depend_on_block_size_or_weight(drawn):
    # phi(B* B) / Tr(B* B) is at most the largest null eigenvalue on the
    # ideal, however large k / lambda makes phi(B* B) itself.
    state, ideal_dim = drawn
    rep = gns.gns_representation(state)
    assert rep.ideal_dim == ideal_dim
    assert gns.left_ideal_residual(state, rep.ideal) <= DEFAULT_TOL


def test_ideal_elements_are_orthonormal():
    rng = np.random.default_rng(64)
    state = random_rank_state(_mixed(), rng, (1, 1, 1))
    ideal = _ideal_basis(state)
    columns = np.column_stack([gns_oracle.coords(state.algebra, x) for x in ideal])
    gram = columns.conj().T @ columns
    assert np.linalg.norm(gram - np.eye(len(ideal))) < 1e-10


def test_ideal_matches_kernel_oracle_dimensions():
    rng = np.random.default_rng(65)
    for ranks in ((2, 3, 1), (1, 2, 0), (0, 0, 1), (2, 0, 1)):
        state = random_rank_state(_mixed(), rng, ranks)
        ideal = _ideal_basis(state)
        want = sum(k * (k - r) for k, r in zip((2, 3, 1), ranks))
        assert len(ideal) == want
        assert len(kernel_ideal(state)) == want


def test_ideal_depends_only_on_the_support():
    # Replacing D by D(D + 1) keeps the kernel, hence the ideal.
    rng = np.random.default_rng(66)
    alg = _mixed()
    state = random_rank_state(alg, rng, (1, 2, 0))
    boosted = gns.make_state(
        alg, [d @ (d + np.eye(len(d))) for d in state.densities]
    )
    ideal_a = _ideal_basis(state)
    ideal_b = _ideal_basis(boosted)
    assert len(ideal_a) == len(ideal_b)
    span_a = np.column_stack([gns_oracle.coords(alg, x) for x in ideal_a])
    span_b = np.column_stack([gns_oracle.coords(alg, x) for x in ideal_b])
    angles = scipy.linalg.subspace_angles(span_a, span_b)
    assert float(np.max(angles)) < 1e-10


# ---------------------------------------------------------------------------
# Induced representation and gamma.
# ---------------------------------------------------------------------------


def test_trace_state_gives_faithful_left_regular_representation():
    state = gns.make_state(_m2(), [0.5 * np.eye(2)])
    rep = gns.gns_representation(state)
    assert rep.ideal_dim == 0
    assert rep.j_dim == 0
    assert rep.perp_dim == 4
    assert rep.per_summand_ranks == (4,)
    assert rep.gamma == 1.0
    assert rep.faithful is True
    assert rep.rho_kernel_dim == 0
    np.testing.assert_allclose(gns_oracle.projector(rep), np.eye(4), atol=1e-12)


def test_corner_state_gives_trivial_representation():
    state = gns.make_state(_m2(), [np.diag([1.0, 0.0])])
    rep = gns.gns_representation(state)
    assert rep.ideal_dim == 2
    assert rep.j_dim == 4
    assert rep.perp_dim == 0
    assert rep.gamma == 0.0
    assert rep.faithful is False
    assert rep.rho_kernel_dim == 4
    assert rep.represent(state.algebra.identity()).shape == (0, 0)
    np.testing.assert_allclose(gns_oracle.projector(rep), np.zeros((4, 4)), atol=1e-14)


def test_half_killed_sum_gives_gamma_one_half():
    alg = _alg22()
    state = gns.make_state(alg, [np.eye(2), np.zeros((2, 2))])
    rep = gns.gns_representation(state)
    assert rep.gamma == 0.5
    assert rep.per_summand_ranks == (4, 0)
    assert rep.faithful is False
    # Elements supported on the dead summand are exactly the kernel.
    dead = alg.element([np.zeros((2, 2)), np.eye(2)])
    assert np.linalg.norm(rep.represent(dead)) < 1e-12


def test_gamma_matches_brute_force_oracle():
    rng = np.random.default_rng(67)
    cases = [
        (_m2(), (2,)), (_m2(), (1,)), (_m2(), (0,)),
        (_alg22(), (2, 0)), (_alg22(), (1, 2)),
        (_mixed(), (2, 3, 1)), (_mixed(), (2, 1, 1)),
        (_mixed(), (1, 3, 0)), (_mixed(), (0, 2, 1)),
    ]
    for alg, ranks in cases:
        if all(r == 0 for r in ranks):
            continue
        state = random_rank_state(alg, rng, ranks)
        rep = gns.gns_representation(state)
        gamma, oracle_ranks, ideal_dim, j_dim = brute_force_gamma(state)
        assert abs(rep.gamma - gamma) < 1e-10
        assert rep.per_summand_ranks == oracle_ranks
        assert rep.ideal_dim == ideal_dim
        assert rep.j_dim == j_dim


def test_gamma_is_the_weight_of_full_rank_summands():
    rng = np.random.default_rng(68)
    state = random_rank_state(_mixed(), rng, (2, 1, 1))
    rep = gns.gns_representation(state)
    # Summands survive all or nothing: weights 0.3 and 0.25 here.
    assert rep.gamma == pytest.approx(0.55, abs=1e-12)


def test_representation_is_a_star_homomorphism():
    rng = np.random.default_rng(69)
    for ranks in ((2, 3, 1), (2, 1, 1), (1, 3, 1)):
        state = random_rank_state(_mixed(), rng, ranks)
        rep = gns.gns_representation(state)
        alg = state.algebra
        if rep.perp_dim == 0:
            continue
        eye = np.eye(rep.perp_dim)
        assert np.linalg.norm(rep.represent(alg.identity()) - eye) < 1e-10
        for _ in range(5):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            rx, ry = rep.represent(x), rep.represent(y)
            assert np.linalg.norm(rep.represent(alg.mul(x, y)) - rx @ ry) < 1e-10
            assert np.linalg.norm(rep.represent(alg.adj(x)) - rx.conj().T) < 1e-10


def test_obstruction_space_is_left_invariant():
    rng = np.random.default_rng(70)
    state = random_rank_state(_mixed(), rng, (1, 2, 0))
    rep = gns.gns_representation(state)
    alg = state.algebra
    proj_perp = gns_oracle.projector(rep)
    proj_j = np.eye(alg.total_dim) - proj_perp
    for _ in range(5):
        lx = gns_oracle.left_mult_matrix(alg, alg.random_element(rng))
        leak = np.linalg.norm(proj_perp @ lx @ proj_j)
        assert leak < 1e-10


def test_gamma_bounds_and_faithfulness():
    rng = np.random.default_rng(71)
    for _ in range(10):
        ranks = tuple(int(rng.integers(0, k + 1)) for k in (2, 3, 1))
        if all(r == 0 for r in ranks):
            continue
        state = random_rank_state(_mixed(), rng, ranks)
        rep = gns.gns_representation(state)
        assert 0.0 <= rep.gamma <= 1.0
        assert rep.faithful == (rep.gamma == 1.0)
        assert rep.faithful == all(r == k for r, k in zip(ranks, (2, 3, 1)))
