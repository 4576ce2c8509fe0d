"""Brute-force reference pipeline for the GNS representation.

Recomputes every field of `gns.GnsRepresentation` the long way, at
about d^4 cost for an algebra of linear dimension d:

- the null ideal is the kernel of the d x d Gram matrix phi(E_a* E_b)
  over the matrix-unit basis, orthonormalized in GNS coordinates;
- J is the span of all products A B* of ideal elements, found by an SVD;
- the per-summand ranks of J-perp are matrix ranks of its coordinate
  blocks;
- the kernel of rho is read off the images of all d matrix units.

The library computes the same quantities in closed form from one
eigendecomposition per density block.  The GNS coordinates (`trace`,
`inner`, `coords`) live here too: only the brute-force pipeline needs
them.
"""

from dataclasses import dataclass

import numpy as np

_RANK_TOL = 1e-10


def basis(alg) -> list:
    """Matrix units, summand-major then row-major; length total_dim."""
    out = []
    for idx, k in enumerate(alg.dims):
        for a in range(k):
            for b in range(k):
                blocks = alg.zero()
                blocks[idx][a, b] = 1.0
                out.append(blocks)
    return out


def trace(alg, x) -> complex:
    """tau(x) = sum_i lambda_i Trace(x_i) / k_i, normalized so tau(1) = 1."""
    return sum(w * complex(np.trace(b)) / k for b, (k, w) in zip(x, alg.summands))


def inner(alg, x, y) -> complex:
    """GNS scalar product tau(x y*)."""
    return trace(alg, alg.mul(x, alg.adj(y)))


def coords(alg, x) -> np.ndarray:
    """Isometry onto C^total_dim: tau(x y*) = <coords x, coords y>."""
    return np.concatenate([np.sqrt(w / k) * b.ravel() for b, (k, w) in zip(x, alg.summands)])


def from_coords(alg, v) -> tuple:
    """Inverse of `coords`."""
    v = np.asarray(v, dtype=np.complex128)
    blocks = []
    pos = 0
    for k, w in alg.summands:
        n = k * k
        blocks.append((v[pos:pos + n] / np.sqrt(w / k)).reshape(k, k))
        pos += n
    return tuple(blocks)


def left_mult_matrix(alg, x) -> np.ndarray:
    """Left multiplication by x in GNS coordinates (block Kronecker)."""
    d = alg.total_dim
    out = np.zeros((d, d), dtype=np.complex128)
    pos = 0
    for b, k in zip(x, alg.dims):
        n = k * k
        out[pos:pos + n, pos:pos + n] = np.kron(b, np.eye(k))
        pos += n
    return out


def null_ideal(state, tol=_RANK_TOL) -> list:
    """GNS-orthonormal basis of the kernel of the Gram matrix phi(E_a* E_b)."""
    alg = state.algebra
    units = basis(alg)
    d = alg.total_dim
    gram = np.empty((d, d), dtype=np.complex128)
    for a, ea in enumerate(units):
        ea_adj = alg.adj(ea)
        for b, eb in enumerate(units):
            gram[a, b] = state.phi(alg.mul(ea_adj, eb))
    vals, vecs = np.linalg.eigh(gram)
    cutoff = tol * max(1.0, float(vals[-1]))
    kernel = vecs[:, vals <= cutoff]
    if kernel.shape[1] == 0:
        return []
    # Kernel vectors are coefficients over the matrix units.
    elements = []
    for col in kernel.T:
        x = alg.zero()
        for c, e in zip(col, units):
            x = tuple(xb + c * eb for xb, eb in zip(x, e))
        elements.append(x)
    columns = np.column_stack([coords(alg, x) for x in elements])
    q, _ = np.linalg.qr(columns)
    return [from_coords(alg, q[:, j]) for j in range(q.shape[1])]


@dataclass(frozen=True)
class OracleRepresentation:
    ideal: list
    ideal_dim: int
    j_dim: int
    perp_coords: np.ndarray
    per_summand_ranks: tuple
    gamma: float
    rho_kernel_dim: int
    faithful: bool


def representation(state, tol=_RANK_TOL) -> OracleRepresentation:
    """J by an SVD of all ideal products, rho's kernel over all matrix units."""
    alg = state.algebra
    ideal = null_ideal(state, tol=tol)
    d = alg.total_dim

    if ideal:
        prods = [coords(alg, alg.mul(a, alg.adj(b))) for a in ideal for b in ideal]
        u, s, _ = np.linalg.svd(np.column_stack(prods), full_matrices=True)
        j_dim = int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))
        perp = u[:, j_dim:]
    else:
        j_dim = 0
        perp = np.eye(d, dtype=np.complex128)

    # J splits along the center, so J-perp does too; count each block.
    ranks = []
    pos = 0
    for k, _ in alg.summands:
        block = perp[pos:pos + k * k, :]
        ranks.append(int(np.linalg.matrix_rank(block, tol=1e-8)) if block.size else 0)
        pos += k * k
    gamma = sum(w * r / (k * k) for (k, w), r in zip(alg.summands, ranks))

    if perp.shape[1]:
        rows = [(perp.conj().T @ left_mult_matrix(alg, e) @ perp).ravel()
                for e in basis(alg)]
        rho_kernel = d - int(np.linalg.matrix_rank(np.array(rows), tol=1e-8))
    else:
        rho_kernel = d

    return OracleRepresentation(
        ideal=ideal,
        ideal_dim=len(ideal),
        j_dim=j_dim,
        perp_coords=perp,
        per_summand_ranks=tuple(ranks),
        gamma=float(gamma),
        rho_kernel_dim=rho_kernel,
        faithful=rho_kernel == 0,
    )


def density_block(rng, k, rank) -> np.ndarray:
    """Hermitian PSD block of the given rank, eigenvalues in [0.5, 1.5]."""
    if rank == 0:
        return np.zeros((k, k), dtype=np.complex128)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v = q[:, :rank]
    return (v * rng.uniform(0.5, 1.5, rank)) @ v.conj().T
