"""Gamma-matrix towers, their embeddings, and the exterior-square pairing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import clifford, linalg
from hodgekit.curvature import STANDARD_STAR


def _all_signatures(max_m):
    for m in range(max_m + 1):
        for r in range(m + 1):
            yield clifford.QuadraticSignature(r, m - r)


def test_anticommutation_relations_all_signatures_up_to_m6():
    for sig in _all_signatures(6):
        tower = clifford.build_generators(sig)
        assert tower.dim == 2 ** ((sig.m + 1) // 2)
        assert clifford.relation_residual(tower) < 1e-12


def test_generator_squares_carry_the_signature():
    sig = clifford.QuadraticSignature(2, 3)
    tower = clifford.build_generators(sig)
    for idx, g in enumerate(tower.generators):
        want = np.eye(tower.dim) if idx < sig.r else -np.eye(tower.dim)
        np.testing.assert_allclose(g @ g, want, atol=1e-14)


def test_generators_are_unitary():
    tower = clifford.build_generators(clifford.QuadraticSignature(3, 3))
    for g in tower.generators:
        np.testing.assert_allclose(g @ linalg.adjoint(g), np.eye(tower.dim), atol=1e-13)


def test_trivial_signature_gives_scalars():
    tower = clifford.build_generators(clifford.QuadraticSignature(0, 0))
    assert tower.dim == 1
    assert tower.generators == ()
    assert clifford.span_dimension(tower) == 1


def test_span_dimension_is_two_to_the_m():
    for sig in _all_signatures(6):
        tower = clifford.build_generators(sig)
        assert clifford.span_dimension(tower) == 2**sig.m


def test_relations_survive_at_ten_generators():
    tower = clifford.build_generators(clifford.QuadraticSignature(5, 5))
    assert tower.dim == 32
    assert clifford.relation_residual(tower) < 1e-12


signatures = st.integers(0, clifford.MAX_SPAN_GENERATORS).flatmap(
    lambda m: st.integers(0, m).map(lambda r: clifford.QuadraticSignature(r, m - r)))


@settings(max_examples=60, deadline=None)
@given(signatures)
def test_any_signature_spans_two_to_the_m(sig):
    tower = clifford.build_generators(sig)
    assert clifford.span_dimension(tower) == 2**sig.m
    assert clifford.relation_residual(tower) == 0.0
    if sig.m % 2 == 0 and sig.m <= clifford.MAX_PERIODICITY_GENERATORS:
        assert clifford.verify_periodicity(sig)["factor"] == 4


def test_embed_up_examples():
    a = np.array([[2.0, 0.0], [0.0, 0.0]])
    out = clifford.embed_up(a, 1)
    np.testing.assert_array_equal(out, np.diag([2.0, 0.0, 2.0, 0.0]))
    assert linalg.normalized_trace(out) == 1.0


def test_embed_up_trace_exact_on_integer_matrices():
    rng = np.random.default_rng(10)
    a = rng.integers(-9, 10, (4, 4)) + 1j * rng.integers(-9, 10, (4, 4))
    a = a.astype(complex)
    base = linalg.normalized_trace(a)
    for levels in (1, 2, 3):
        lifted = clifford.embed_up(a, levels)
        assert lifted.shape == (4 * 2**levels, 4 * 2**levels)
        # Dyadic dimensions keep the division exact, so equality is literal.
        assert linalg.normalized_trace(lifted) == base


def test_embed_up_is_multiplicative():
    rng = np.random.default_rng(11)
    a = linalg.random_matrix(rng, 4)
    b = linalg.random_matrix(rng, 4)
    lhs = clifford.embed_up(a @ b, 2)
    rhs = clifford.embed_up(a, 2) @ clifford.embed_up(b, 2)
    assert linalg.frobenius(lhs - rhs) < 1e-12


def test_periodicity_examples():
    for m, span in ((0, 1), (2, 4), (4, 16)):
        report = clifford.verify_periodicity(clifford.QuadraticSignature(m, 0))
        assert report["span_m"] == span
        assert report["span_m_plus_2"] == 4 * span
        assert report["factor"] == 4
        assert report["periodic"] is True


def test_periodicity_mixed_signature():
    report = clifford.verify_periodicity(clifford.QuadraticSignature(2, 2))
    assert report["factor"] == 4
    assert report["periodic"] is True


def test_periodicity_rejects_odd_or_oversized():
    with pytest.raises(ValueError):
        clifford.verify_periodicity(clifford.QuadraticSignature(2, 1))
    with pytest.raises(ValueError):
        clifford.verify_periodicity(
            clifford.QuadraticSignature(clifford.MAX_PERIODICITY_GENERATORS + 2, 0)
        )


def test_span_rejects_oversized_towers():
    # building the generators is cheap, only the monomial Gram blows up
    big = clifford.build_generators(
        clifford.QuadraticSignature(clifford.MAX_SPAN_GENERATORS + 2, 0)
    )
    with pytest.raises(ValueError, match="span bound"):
        clifford.span_dimension(big)


def test_signature_validation():
    with pytest.raises(ValueError):
        clifford.QuadraticSignature(-1, 2)
    with pytest.raises(ValueError):
        clifford.QuadraticSignature(1.5, 0)


def _pairing_sign(p, q):
    """Independent sign rule: parity of (i,j,k,l) as a permutation of 1..4."""
    i, j = p
    k, l = q
    if {i, j} | {k, l} != {1, 2, 3, 4} or {i, j} & {k, l}:
        return 0
    perm = (i, j, k, l)
    inversions = sum(
        1 for a, b in itertools.combinations(range(4), 2) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def test_wedge_pairing_matches_permutation_parity():
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    expected = np.array(
        [[_pairing_sign(p, q) for q in pairs] for p in pairs], dtype=float
    )
    np.testing.assert_array_equal(STANDARD_STAR, expected)

