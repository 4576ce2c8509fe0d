"""Clifford algebras as signed Pauli strings, and their doubling tower.

A quadratic form of signature (r, s) on an (r+s)-dimensional real space
yields generators g_1 .. g_m, m = r + s, subject to

    g_i g_j + g_j g_i = 2 eps_i delta_ij 1,   eps_i = +1 (i <= r), -1 (i > r).

The generators are the alternating Pauli tensor chain inside
m_{2^ceil(m/2)}(C), each stored as a signed Pauli string on n = ceil(m/2)
qubits (Aaronson and Gottesman, PRA 70, 052328, 2004): bit rows (x | z),
whose pair (x_q, z_q) puts 1, X, Z or Y on qubit q, and a phase 1 or i.
Hermitian Pauli strings square to 1 and anticommute exactly when their
symplectic product x_i.z_j + z_i.x_j is odd.  Distinct strings are
orthogonal under tau(A B*), so the 2^m generator monomials span 2^rank
dimensions, rank taken over GF(2) of the rows: exactly 2^m after
complexification, and four times that two generators up, the matrix form
of the period-two behaviour of complex Clifford algebras.  Dense matrices
are built only on request.  Climbing the tower is A -> kron(I_2, A) =
diag(A, A); this duplication keeps the normalized trace on the nose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_operator

# The Pauli factor 1, X, Z or Y selected by the bits (x_q, z_q) of one qubit.
_PAULI = {
    (0, 0): np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    (0, 1): np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    (1, 1): np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
}

# Largest generator count accepted by span_dimension.  The bit-row checks
# cost about m^2 integer operations, so the bound only keeps input sane;
# verify_periodicity also spans the tower two generators up.
MAX_SPAN_GENERATORS = 128
MAX_PERIODICITY_GENERATORS = MAX_SPAN_GENERATORS - 2


@dataclass(frozen=True)
class QuadraticSignature:
    """Signature (r, s): r squares of +1, s squares of -1."""

    r: int
    s: int

    def __post_init__(self):
        if not (isinstance(self.r, int) and isinstance(self.s, int)):
            raise ValueError("signature entries must be integers")
        if self.r < 0 or self.s < 0:
            raise ValueError(f"signature entries must be >= 0, got ({self.r}, {self.s})")

    @property
    def m(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class CliffordTower:
    """Generators at tower level n as Pauli strings on n qubits, acting on C^(2^n).

    Generator k is phases[k] times the Pauli string whose qubit q carries
    X when bit q of x[k] is set, Z when bit q of z[k] is set, and Y when
    both are.  Each phase is 1 or 1j.  Qubit 0 is the leftmost Kronecker
    factor.
    """

    signature: QuadraticSignature
    level: int
    x: tuple
    z: tuple
    phases: tuple

    @property
    def dim(self) -> int:
        return 2 ** self.level

    @cached_property
    def generators(self) -> tuple:
        """The generators as dense 2^n x 2^n matrices, built on first access."""
        gens = []
        for x, z, phase in zip(self.x, self.z, self.phases):
            g = np.array([[phase]], dtype=np.complex128)
            for q in range(self.level):
                g = np.kron(g, _PAULI[(x >> q) & 1, (z >> q) & 1])
            gens.append(g)
        return tuple(gens)


def build_generators(signature: QuadraticSignature) -> CliffordTower:
    """Generators of the (r, s) Clifford algebra on 2^ceil(m/2) dimensions.

    The chain puts X or Y at slot ceil(k/2) behind a prefix of Z factors:

        g_{2k-1} = Z^(k-1) (x) X (x) 1 ...,   g_{2k} = Z^(k-1) (x) Y (x) 1 ...

    with Y = i X Z, and the s generators of negative square are the same
    strings with phase i.  The empty signature (0, 0) is the scalar
    algebra: no generators, dimension one.
    """
    x, z, phases = [], [], []
    for k in range(1, signature.m + 1):
        slot = 1 << ((k - 1) // 2)  # bit of the X/Y factor
        x.append(slot)
        z.append(slot - 1 if k % 2 == 1 else 2 * slot - 1)
        phases.append(1j if k > signature.r else 1)
    return CliffordTower(signature=signature, level=(signature.m + 1) // 2,
                         x=tuple(x), z=tuple(z), phases=tuple(phases))


def _anticommute(xa: int, za: int, xb: int, zb: int) -> bool:
    """Odd symplectic product: the two Pauli strings anticommute."""
    return bool(((xa & zb) ^ (za & xb)).bit_count() & 1)


def relation_residual(tower: CliffordTower) -> float:
    """Worst Frobenius defect of g_i g_j + g_j g_i = 2 eps_i delta_ij.

    Read off the Pauli strings: g_i^2 is phase_i^2 times the identity, a
    defect of 2 |phase_i^2 - eps_i| sqrt(dim); an anticommuting pair
    leaves nothing, and a commuting pair leaves 2 g_i g_j, twice a
    unitary, of norm 2 sqrt(dim).  These are the numbers the dense
    products give.
    """
    root = math.sqrt(tower.dim)
    gens = list(zip(tower.x, tower.z, tower.phases))
    worst = 0.0
    for i, (xi, zi, phase) in enumerate(gens):
        eps = 1 if i < tower.signature.r else -1
        worst = max(worst, 2.0 * abs(phase * phase - eps) * root)
        if any(not _anticommute(xi, zi, xj, zj) for xj, zj, _ in gens[i + 1:]):
            worst = max(worst, 2.0 * root)
    return worst


def embed_up(a, levels: int = 1) -> np.ndarray:
    """Climb the tower: A -> diag(A, A), repeated.

    Duplicating the diagonal blocks leaves the normalized trace
    untouched, with no floating error beyond the summation itself.
    """
    if not isinstance(levels, int) or levels < 0:
        raise ValueError(f"levels must be a nonnegative integer, got {levels!r}")
    out = as_operator(a)
    eye2 = np.eye(2, dtype=np.complex128)
    for _ in range(levels):
        out = np.kron(eye2, out)
    return out


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit rows given as nonnegative integers."""
    basis = []  # kept reduced: each entry has a leading bit no other entry has
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def check_span_bound(m: int) -> None:
    """Reject a generator count above MAX_SPAN_GENERATORS."""
    if m > MAX_SPAN_GENERATORS:
        raise ValueError(f"generator count {m} exceeds the span bound {MAX_SPAN_GENERATORS}")


def span_dimension(tower: CliffordTower) -> int:
    """Linear-span dimension of the generator monomials.

    A monomial is a phase times the Pauli string of the GF(2) sum of its
    factors' bit rows, and distinct strings are orthogonal under the GNS
    scalar product, so the span has dimension 2^rank of the rows; for a
    faithfully represented level this is exactly 2^m.
    """
    check_span_bound(tower.signature.m)
    return 2 ** gf2_rank(x | z << tower.level for x, z in zip(tower.x, tower.z))


def verify_periodicity(signature: QuadraticSignature) -> dict:
    """Compare monomial span dimensions at levels m and m + 2.

    Complexified, adding two generators tensors on a full 2x2 matrix
    factor, so the span dimension must grow by a factor of four.  Only
    even m is meaningful for the two-step comparison; the extension
    appends two generators of positive square.

    Returns
    -------
    dict with keys span_m, span_m_plus_2, factor, periodic.
    """
    m = signature.m
    if m % 2 != 0:
        raise ValueError(f"periodicity check needs an even generator count, got m = {m}")
    if m > MAX_PERIODICITY_GENERATORS:
        raise ValueError(
            f"generator count {m} exceeds the supported bound {MAX_PERIODICITY_GENERATORS}"
        )
    base = span_dimension(build_generators(signature))
    extended = span_dimension(
        build_generators(QuadraticSignature(signature.r + 2, signature.s))
    )
    return {
        "span_m": base,
        "span_m_plus_2": extended,
        "factor": extended // base if base else 0,
        "periodic": extended == 4 * base,
    }

