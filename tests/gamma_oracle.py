"""Hand-rolled reference pipeline for the GNS coupling weight.

Recomputes gamma without the library's SVD machinery: the null ideal
comes straight from the density kernels, the obstruction space J from
all pairwise products orthonormalized by plain Gram-Schmidt, and the
per-summand ranks from projector block traces.
"""

import numpy as np

from hodgekit import gns

from gns_oracle import coords


def kernel_ideal(state, tol=1e-10):
    """Null ideal basis: blockwise, elements must kill range(D)."""
    alg = state.algebra
    out = []
    for idx, (k, d) in enumerate(zip(alg.dims, state.densities)):
        vals, vecs = np.linalg.eigh(d)
        kernel = vecs[:, vals < tol * max(1.0, float(vals[-1]))]
        for col in range(kernel.shape[1]):
            for row in range(k):
                a = np.zeros((k, k), dtype=np.complex128)
                a[row, :] = kernel[:, col].conj()
                blocks = list(alg.zero())
                blocks[idx] = a
                out.append(alg.element(blocks))
    return out


def gram_schmidt(vectors, tol=1e-10):
    basis = []
    for v in vectors:
        w = np.asarray(v, dtype=np.complex128).copy()
        for b in basis:
            w = w - np.vdot(b, w) * b
        for b in basis:  # second pass keeps orthogonality tight
            w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > tol:
            basis.append(w / norm)
    return basis


def brute_force_gamma(state):
    """(gamma, per-summand ranks, ideal dim, J dim) by explicit spans."""
    alg = state.algebra
    ideal = kernel_ideal(state)
    products = [coords(alg, alg.mul(a, alg.adj(b))) for a in ideal for b in ideal]
    j_basis = gram_schmidt(products)
    total = alg.total_dim
    proj_perp = np.eye(total, dtype=np.complex128)
    for b in j_basis:
        proj_perp -= np.outer(b, b.conj())
    ranks = []
    pos = 0
    for k, _ in alg.summands:
        n = k * k
        block_trace = float(np.trace(proj_perp[pos:pos + n, pos:pos + n]).real)
        ranks.append(int(round(block_trace)))
        pos += n
    gamma = sum(w * r / (k * k) for (k, w), r in zip(alg.summands, ranks))
    return gamma, tuple(ranks), len(ideal), len(j_basis)


def random_rank_state(alg, rng, ranks):
    """PSD densities with prescribed per-summand ranks."""
    densities = []
    for k, r in zip(alg.dims, ranks):
        if r == 0:
            densities.append(np.zeros((k, k)))
            continue
        m = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
        densities.append(m @ m.conj().T)
    return gns.make_state(alg, densities)
