"""GNS representations over finite multi-matrix algebras, in closed form.

The algebra is a direct sum of full matrix blocks m_{k_i}(C) with
positive trace weights lambda_i summing to one:

    tau(x_1 + ... + x_n) = sum_i lambda_i Trace(x_i) / k_i.

A positive functional phi given by density blocks D_i >= 0 acts as
phi(x) = sum_i Trace(D_i x_i).  Every left ideal of m_k(C) is m_k Q for
a projection Q (Davidson, C*-Algebras by Example, AMS 1996); the null
ideal I_phi = { A : phi(A* A) = 0 } is the sum of the m_{k_i} (1 - P_i),
P_i the support projection of D_i.  Since m_k Q m_k = m_k for every
Q != 0, the obstruction space J = span{ A B : A, B* in I_phi } is the
sum of the blocks where D_i is not faithful.  Left multiplication on
its complement, the faithful blocks, is the induced representation rho
(kernel J), and the coupling weight

    gamma = sum_i lambda_i rank_i(J-perp) / k_i^2  in [0, 1]

is the total weight of the faithful blocks.  gamma = 1 exactly for
faithful phi; in the II_1 setting the survivor is a proper corner and
the bound is strict, a boundary effect this finite model keeps visible.

So one eigh per density block gives everything.  An eigenvalue counts
as zero when it is at most tol, relative to the unit mass of the state:
the cutoff on the Gram matrix phi(E_a* E_b) = I_k (x) D_i^T that the
brute-force reference in tests/gns_oracle.py diagonalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, INPUT_TOL, frobenius, within


@dataclass(frozen=True)
class FiniteAlgebra:
    """Direct sum of matrix blocks (k_i, lambda_i), weights summing to 1."""

    summands: tuple

    def __post_init__(self):
        cleaned = []
        for entry in self.summands:
            k, w = entry
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"summand dimension must be a positive integer, got {k!r}")
            w = float(w)
            if not np.isfinite(w) or w <= 0.0:
                raise ValueError(f"summand weight must be positive, got {w!r}")
            cleaned.append((k, w))
        if not cleaned:
            raise ValueError("algebra needs at least one summand")
        total = sum(w for _, w in cleaned)
        if not within(abs(total - 1.0), 1.0, INPUT_TOL):
            raise ValueError(f"summand weights must sum to 1, got {total!r}")
        object.__setattr__(self, "summands", tuple(cleaned))

    @property
    def dims(self) -> tuple:
        return tuple(k for k, _ in self.summands)

    @property
    def total_dim(self) -> int:
        """Linear dimension sum k_i^2 of the algebra as a vector space."""
        return sum(k * k for k in self.dims)

    # -- elements are tuples of per-summand complex matrices ---------------

    def element(self, blocks) -> tuple:
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if len(blocks) != len(self.summands):
            raise ValueError(f"expected {len(self.summands)} blocks, got {len(blocks)}")
        for b, k in zip(blocks, self.dims):
            if b.shape != (k, k):
                raise ValueError(f"block shape {b.shape} does not match summand dim {k}")
        return blocks

    def zero(self) -> tuple:
        return tuple(np.zeros((k, k), dtype=np.complex128) for k in self.dims)

    def identity(self) -> tuple:
        return tuple(np.eye(k, dtype=np.complex128) for k in self.dims)

    def mul(self, x, y) -> tuple:
        return tuple(a @ b for a, b in zip(x, y))

    def adj(self, x) -> tuple:
        return tuple(a.conj().T for a in x)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> tuple:
        return tuple(
            (scale / np.sqrt(2.0)) * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            for k in self.dims
        )


@dataclass(frozen=True)
class AlgebraState:
    """Positive functional phi(x) = sum Trace(D_i x_i), phi(1) = 1."""

    algebra: FiniteAlgebra
    densities: tuple

    def phi(self, x) -> complex:
        return sum(complex(np.trace(d @ b)) for d, b in zip(self.densities, x))


def make_state(algebra: FiniteAlgebra, densities, tol: float = INPUT_TOL) -> AlgebraState:
    """Validate density blocks and normalize the total mass to one.

    The gates are relative to the largest block norm s, so the verdict
    does not depend on the units of the densities.

    Raises
    ------
    ValueError
        If a block is not Hermitian positive semidefinite within tol * s,
        or the total trace is at most tol * s (in particular when s = 0).
    """
    blocks = algebra.element(densities)
    scale = max(frobenius(d) for d in blocks)
    for d in blocks:
        if not within(frobenius(d - d.conj().T), scale, tol):
            raise ValueError("density blocks must be Hermitian")
        if not within(-float(np.linalg.eigvalsh(d).min()), scale, tol):
            raise ValueError("density blocks must be positive semidefinite")
    total = sum(float(np.trace(d).real) for d in blocks)
    if within(total, scale, tol):
        raise ValueError("state must have positive total mass")
    return AlgebraState(algebra=algebra, densities=tuple(d / total for d in blocks))


def _kernels(state: AlgebraState, tol: float) -> list:
    """Orthonormal kernel vectors of each density block, as columns."""
    spectra = [np.linalg.eigh(d) for d in state.densities]
    return [vecs[:, within(vals, 1.0, tol)] for vals, vecs in spectra]


def gns_null_ideal(state: AlgebraState, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal (GNS) basis of the left ideal { A : phi(A* A) = 0 }.

    Block i contributes sqrt(k_i / lambda_i) e_a v* for each row a and
    each kernel vector v of D_i: a basis of m_{k_i} (1 - P_i).
    """
    alg = state.algebra
    out = []
    for idx, ((k, w), kernel) in enumerate(zip(alg.summands, _kernels(state, tol))):
        for v in kernel.T:
            for a in range(k):
                blocks = alg.zero()
                blocks[idx][a] = np.sqrt(k / w) * v.conj()
                out.append(blocks)
    return out


def left_ideal_residual(state: AlgebraState, ideal, rng: np.random.Generator,
                        samples: int = 5) -> float:
    """Worst phi((X A)* (X A)) over random X and ideal basis elements A."""
    alg = state.algebra
    worst = 0.0
    for _ in range(samples):
        x = alg.random_element(rng)
        for a in ideal:
            xa = alg.mul(x, a)
            worst = max(worst, abs(state.phi(alg.mul(alg.adj(xa), xa))))
    return float(worst)


@dataclass(frozen=True)
class GnsRepresentation:
    """Induced representation on the complement of J = I_phi . I_phi*.

    J-perp is the sum of the faithful blocks, so per_summand_ranks is
    k_i^2 on a faithful block and 0 elsewhere.
    """

    state: AlgebraState
    tol: float
    ideal_dim: int
    j_dim: int
    per_summand_ranks: tuple
    gamma: float
    rho_kernel_dim: int
    faithful: bool

    @cached_property
    def ideal(self) -> tuple:
        """GNS basis of the null ideal, built on first access."""
        return tuple(gns_null_ideal(self.state, tol=self.tol))

    @property
    def perp_dim(self) -> int:
        return sum(self.per_summand_ranks)

    def represent(self, x) -> np.ndarray:
        """rho(x): left multiplication kron(x_i, 1) on the faithful blocks."""
        alg = self.state.algebra
        out = np.zeros((self.perp_dim, self.perp_dim), dtype=np.complex128)
        pos = 0
        for b, k, r in zip(alg.element(x), alg.dims, self.per_summand_ranks):
            if r:
                out[pos:pos + r, pos:pos + r] = np.kron(b, np.eye(k))
                pos += r
        return out

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto J-perp in GNS coordinates."""
        alg = self.state.algebra
        return np.diag(np.repeat([float(r > 0) for r in self.per_summand_ranks],
                                 [k * k for k in alg.dims]))


def gns_representation(state: AlgebraState, tol: float = DEFAULT_TOL) -> GnsRepresentation:
    """Build the induced representation and its coupling weight gamma.

    A block survives in J-perp exactly when its density is faithful;
    gamma sums lambda_i rank_i / k_i^2 over the per-summand ranks.
    """
    alg = state.algebra
    nullity = [kernel.shape[1] for kernel in _kernels(state, tol)]
    ranks = tuple(0 if n else k * k for k, n in zip(alg.dims, nullity))
    dead = alg.total_dim - sum(ranks)
    return GnsRepresentation(
        state=state,
        tol=tol,
        ideal_dim=sum(k * n for k, n in zip(alg.dims, nullity)),
        j_dim=dead,
        per_summand_ranks=ranks,
        gamma=float(sum(w * r / (k * k) for (k, w), r in zip(alg.summands, ranks))),
        rho_kernel_dim=dead,
        faithful=dead == 0,
    )
