"""Dense reference pipeline for the Clifford tower.

Recomputes the tower without the library's Pauli-string bookkeeping:
each generator is a Kronecker chain of 2x2 Pauli matrices, the
relations are checked by multiplying the matrices, and the span is the
rank of the Gram matrix of all 2^m monomials under tau(A B*).  The span
costs about 8^m, so it is meant for m <= 10.
"""

import numpy as np

from hodgekit import linalg

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def kron_generators(signature):
    """g_{2k-1} = Z^(k-1) (x) X (x) 1 ..., g_{2k} = Z^(k-1) (x) Y (x) 1 ...,
    times i for the s generators of negative square."""
    level = (signature.m + 1) // 2
    gens = []
    for k in range(1, signature.m + 1):
        slot = (k + 1) // 2
        factors = [Z] * (slot - 1) + [X if k % 2 == 1 else Y] + [I2] * (level - slot)
        g = factors[0]
        for f in factors[1:]:
            g = np.kron(g, f)
        gens.append(1j * g if k > signature.r else g)
    return tuple(gens)


def relation_residual(gens, r, dim):
    """Worst Frobenius defect of g_i g_j + g_j g_i = 2 eps_i delta_ij 1,
    with eps_i = +1 for the first r generators and -1 after."""
    eye = np.eye(dim, dtype=np.complex128)
    worst = 0.0
    for i, gi in enumerate(gens):
        eps = 1.0 if i < r else -1.0
        for j in range(i, len(gens)):
            gj = gens[j]
            target = 2.0 * eps * eye if i == j else 0.0
            worst = max(worst, linalg.frobenius(gi @ gj + gj @ gi - target))
    return worst


def monomials(gens, dim):
    """All 2^m ordered products of generators, stacked as row vectors."""
    mons = [np.eye(dim, dtype=np.complex128)]
    for g in gens:
        mons.extend([mon @ g for mon in mons])
    return np.array([mon.ravel() for mon in mons])


def span_dimension(gens, dim):
    """Rank of the Gram matrix of the monomials under tau(A B*)."""
    v = monomials(gens, dim)
    gram = (v @ v.conj().T) / dim
    return int(np.linalg.matrix_rank(gram, hermitian=True))
