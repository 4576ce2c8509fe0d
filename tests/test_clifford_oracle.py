"""Pauli-string Clifford checks against the dense Kronecker/Gram oracle."""

import dataclasses
import math

import numpy as np
import pytest

from hodgekit import clifford

import clifford_oracle as oracle


def _signatures(max_m):
    return [clifford.QuadraticSignature(r, m - r)
            for m in range(max_m + 1) for r in range(m + 1)]


@pytest.mark.parametrize("sig", _signatures(8) + [clifford.QuadraticSignature(5, 5)],
                         ids=lambda s: f"{s.r},{s.s}")
def test_span_and_residual_match_dense_oracle(sig):
    tower = clifford.build_generators(sig)
    gens = oracle.kron_generators(sig)
    assert clifford.span_dimension(tower) == oracle.span_dimension(gens, tower.dim) == 2**sig.m
    assert clifford.relation_residual(tower) == oracle.relation_residual(
        gens, sig.r, tower.dim) == 0.0


def test_lazy_generators_equal_kronecker_products():
    for sig in _signatures(10):
        tower = clifford.build_generators(sig)
        gens = oracle.kron_generators(sig)
        assert len(tower.generators) == len(gens)
        for g, want in zip(tower.generators, gens):
            np.testing.assert_array_equal(g, want)
        assert tower.generators is tower.generators  # built once


def _dense_verdicts(tower):
    gens = tower.generators
    return (oracle.span_dimension(gens, tower.dim),
            oracle.relation_residual(gens, tower.signature.r, tower.dim))


def test_duplicated_generator_fails_both_paths_alike():
    sig = clifford.QuadraticSignature(3, 3)
    good = clifford.build_generators(sig)
    broken = dataclasses.replace(
        good, x=(good.x[0],) + good.x[:1] + good.x[2:],
        z=(good.z[0],) + good.z[:1] + good.z[2:])
    span, residual = _dense_verdicts(broken)
    assert span == clifford.span_dimension(broken) == 2 ** (sig.m - 1)
    # g_1 and its copy commute: g g + g g = 2 g^2, of norm 2 sqrt(dim).
    assert residual == clifford.relation_residual(broken) == 2.0 * math.sqrt(broken.dim)


def test_wrong_phase_fails_both_paths_alike():
    sig = clifford.QuadraticSignature(2, 3)
    good = clifford.build_generators(sig)
    broken = dataclasses.replace(good, phases=(1j,) + good.phases[1:])
    span, residual = _dense_verdicts(broken)
    assert span == clifford.span_dimension(broken) == 2**sig.m
    # g_1^2 = -1 against eps_1 = +1: |(-1 - 1) 2| sqrt(dim).
    assert residual == clifford.relation_residual(broken) == 4.0 * math.sqrt(broken.dim)


def test_gf2_rank_examples():
    assert clifford.gf2_rank([]) == 0
    assert clifford.gf2_rank([0, 0]) == 0
    assert clifford.gf2_rank([0b011, 0b101, 0b110]) == 2
    assert clifford.gf2_rank([1 << 100, (1 << 100) | 1, 1]) == 2
    assert clifford.gf2_rank([0b100, 0b010, 0b001, 0b111]) == 3
