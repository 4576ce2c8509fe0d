"""Abstract vacuum Einstein condition over a refined tracial algebra.

A refinement of m_d(C) is a distinguished operator `star` that is
self-adjoint, squares to the identity, differs from the identity, and
has normalized trace zero (so its +1 and -1 eigenspaces balance).  An
operator Q solves the vacuum condition for (m_d(C), star) when

    Q* = Q,        tau(Q star) = 0,        star Q star^-1 = Q,

and the associated cosmological constant is Lambda = 3 tau(Q).  These
are the algebraic shadows of symmetry, the first Bianchi identity and
the Einstein condition of a curvature operator.

Averaging over the star action solves the condition for arbitrary
input: with S = (B + B*)/2,

    Q = (S + star S star)/2 - tau(S star) star

is self-adjoint, commutes with star, and is star-trace free.  Because
tau(star S star) = tau(S star^2) = tau(S) and tau(star) = 0, the recipe
keeps the real trace: tau(Q) = Re tau(B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import bianchi_residual, star_commutator_norm
from .linalg import (DEFAULT_TOL, INPUT_TOL, StarProduct, adjoint, as_operator, frobenius,
                     normalized_trace, rescaled, within)


@dataclass(frozen=True)
class Refinement:
    """A validated (algebra, star) pair at matrix dimension dim; `product`
    multiplies by the star, in O(d^2) when it is a signed permutation."""

    star: np.ndarray
    dim: int
    product: StarProduct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "product", StarProduct(self.star))


def make_refinement(star) -> Refinement:
    """Validate a candidate star.

    Every gate is INPUT_TOL at scale 1, which the definition of an involution fixes.

    Raises
    ------
    ValueError
        If star equals the identity, is not self-adjoint, is not an
        involution, or has nonzero normalized trace (unbalanced
        eigenspaces; in particular any odd dimension is rejected).
    """
    s = as_operator(star)
    d = s.shape[0]
    ref = Refinement(star=s, dim=d)
    # On a signed permutation each residual is 0 or at least 1, and symmetry gives s^2 = 1.
    perm, sign, order = ref.product.perm, ref.product.sign, np.arange(d)
    if (within(frobenius(s - np.eye(d)), 1.0, INPUT_TOL) if perm is None
            else (perm == order).all() and (sign == 1).all()):
        raise ValueError("refinement star must differ from the identity")
    if not (within(frobenius(s - adjoint(s)), 1.0, INPUT_TOL) if perm is None
            else (perm[perm] == order).all() and (sign[perm] == sign).all()):
        raise ValueError("refinement star must be self-adjoint")
    if perm is None and not within(frobenius(ref.product.left(s) - np.eye(d)), 1.0, INPUT_TOL):
        raise ValueError("refinement star must square to the identity")
    tr = normalized_trace(s)
    if not within(abs(tr), 1.0, INPUT_TOL):
        raise ValueError(
            f"refinement star must have zero normalized trace, got {tr:.3e}"
        )
    return ref


@dataclass(frozen=True)
class VacuumReport:
    """Residuals of the three vacuum identities plus the verdict."""

    solves: bool
    self_adjoint_residual: float
    bianchi_residual: float
    einstein_residual: float
    lam: float

    def as_dict(self) -> dict:
        return {
            "solves": self.solves,
            "self_adjoint_residual": self.self_adjoint_residual,
            "bianchi_residual": self.bianchi_residual,
            "einstein_residual": self.einstein_residual,
            "lambda": self.lam,
        }


def check_einstein_vacuum(q, refinement: Refinement, tol: float = DEFAULT_TOL) -> VacuumReport:
    """Test the three vacuum identities at tolerance tol relative to ||Q||.

    The residuals are ||Q - Q*||, |tau(Q star)| and ||star Q - Q star||
    (equal to ||star Q star - Q||, the star being unitary).  lam reports
    3 Re tau(Q) whether or not Q solves.

    Raises
    ------
    ValueError
        If ||Q|| is not a double, since no residual can be gated against it,
        or a residual or lam is not.
    """
    m = as_operator(q)
    if m.shape != refinement.star.shape:
        raise ValueError(f"operator shape {m.shape} does not match refinement dim {refinement.dim}")
    scale = frobenius(m)
    if not np.isfinite(scale):
        raise ValueError("operator Q has a Frobenius norm beyond the double range")
    sa = rescaled(_skew_norm, m)
    bianchi = bianchi_residual(m, refinement.product)
    einstein = rescaled(lambda a: star_commutator_norm(a, refinement.product), m)
    lam = 3.0 * normalized_trace(m).real
    for name, value in (("self-adjoint residual ||Q - Q*||", sa),
                        ("Einstein residual ||star Q - Q star||", einstein), ("Lambda", lam)):
        if not np.isfinite(value):
            raise ValueError(f"{name} leaves the double range")
    return VacuumReport(
        solves=bool(all(within(res, scale, tol) for res in (sa, bianchi, einstein))),
        self_adjoint_residual=float(sa),
        bianchi_residual=float(bianchi),
        einstein_residual=float(einstein),
        lam=float(lam),
    )


def _skew_norm(a) -> float:
    t = np.conjugate(a.T, out=np.empty_like(a))  # ||A - A*|| in one buffer
    return frobenius(np.subtract(a, t, out=t))


def solve_einstein_vacuum(b, refinement: Refinement) -> np.ndarray:
    """Project arbitrary input onto a vacuum solution by averaging.

    Linear over real scalars, and the identity on operators that
    already solve the condition; tau of the output is Re tau(B).

    Raises
    ------
    ValueError
        If the solution leaves the doubles.
    """
    m = as_operator(b)
    s, p = refinement.star, refinement.product
    if m.shape != s.shape:
        raise ValueError(f"operator shape {m.shape} does not match refinement dim {refinement.dim}")

    def tau(a):
        # tau(S star) is real for self-adjoint S and star; drop rounding dust
        # so the output stays exactly self-adjoint.
        return (complex(p.trace(a)) / refinement.dim).real

    with np.errstate(over="ignore", invalid="ignore"):
        sym = np.conjugate(m.T, out=np.empty_like(m))
        sym += m
        sym *= 0.5
        q = p.right(p.left(sym))
        q += sym
        q *= 0.5
        p.subtract(q, tau(sym))
        if not np.isfinite(q).all():
            # A sum left the doubles: halve before adding, and rescale tau(S star).
            sym = 0.5 * m + 0.5 * adjoint(m)
            q = 0.5 * sym + 0.5 * p.right(p.left(sym)) - rescaled(tau, sym) * s
    if not np.isfinite(q).all():
        raise ValueError("vacuum solution of B leaves the double range")
    return q
