"""Closed-form GNS data against the brute-force Gram/SVD oracle."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import gns

import gns_oracle as oracle


@st.composite
def rank_states(draw):
    """1 to 3 blocks of size 1 to 4, random ranks not all zero, random weights."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ranks = draw(st.tuples(*(st.integers(0, k) for k in dims)).filter(any))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alg = gns.FiniteAlgebra(tuple((k, w / sum(raw)) for k, w in zip(dims, raw)))
    densities = [oracle.density_block(rng, k, r) for k, r in zip(dims, ranks)]
    return gns.make_state(alg, densities), rng


def _span(alg, ideal):
    return np.column_stack([oracle.coords(alg, x) for x in ideal])


@settings(max_examples=40, deadline=None)
@given(rank_states())
def test_closed_form_matches_oracle(case):
    state, rng = case
    alg = state.algebra
    rep = gns.gns_representation(state)
    ref = oracle.representation(state)
    basis = oracle.null_basis(alg, rep.ideal)
    assert rep.ideal_dim == ref.ideal_dim == len(basis)
    assert rep.j_dim == ref.j_dim
    assert rep.per_summand_ranks == ref.per_summand_ranks
    assert rep.rho_kernel_dim == ref.rho_kernel_dim
    assert rep.faithful == ref.faithful
    assert abs(rep.gamma - ref.gamma) <= 1e-12
    if ref.ideal:
        angles = scipy.linalg.subspace_angles(_span(alg, basis), _span(alg, ref.ideal))
        assert float(np.max(angles)) < 1e-8
    assert gns.left_ideal_residual(state, rep.ideal) <= 1e-12

    # rho agrees with the compression of left multiplication to J-perp.
    perp = ref.perp_coords
    projector = oracle.projector(rep)
    np.testing.assert_allclose(projector, perp @ perp.conj().T, atol=1e-10)
    inclusion = np.eye(alg.total_dim)[:, np.diag(projector) > 0]
    x = alg.random_element(rng)
    want = perp @ (perp.conj().T @ oracle.left_mult_matrix(alg, x) @ perp) @ perp.conj().T
    np.testing.assert_allclose(inclusion @ rep.represent(x) @ inclusion.T, want, atol=1e-10)


@st.composite
def scaled_states(draw):
    """1 to 4 blocks of size 1 to 16 at any ranks, not all zero, weights
    10^[-8, 0] and densities times 10^[-300, 300]."""
    dims = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    ranks = draw(st.tuples(*(st.integers(0, k) for k in dims)).filter(any))
    raw = [10.0 ** draw(st.floats(-8.0, 0.0)) for _ in dims]
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alg = gns.FiniteAlgebra(tuple((k, w / sum(raw)) for k, w in zip(dims, raw)))
    densities = [scale * oracle.density_block(rng, k, r) for k, r in zip(dims, ranks)]
    return gns.make_state(alg, densities), rng


@settings(max_examples=60, deadline=None)
@given(scaled_states())
def test_kernels_match_the_reference_loops_bitwise(case):
    state, rng = case
    rep, alg = gns.gns_representation(state), state.algebra
    for x in (alg.identity(), alg.random_element(rng)):
        rho, want = rep.represent(x), oracle.represent(rep, x)
        assert np.array_equal(rho, want) and rho.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(scaled_states())
def test_left_ideal_residual_matches_the_sampled_oracle(case):
    # B = X A over the dense basis is rank one, so every sample reads the
    # Rayleigh quotient of its kernel column: the two agree to rounding.
    state, rng = case
    ideal = gns.gns_null_ideal(state)
    sampled = oracle.left_ideal_residual(state, oracle.null_basis(state.algebra, ideal), rng)
    assert abs(gns.left_ideal_residual(state, ideal) - sampled) <= 4 * np.finfo(float).eps
