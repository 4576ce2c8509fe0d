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

from dataclasses import dataclass

import numpy as np

from .curvature import bianchi_residual, star_commutator_norm
from .linalg import (DEFAULT_TOL, INPUT_TOL, adjoint, as_operator, frobenius,
                     normalized_trace, within)


@dataclass(frozen=True)
class Refinement:
    """A validated (algebra, star) pair at matrix dimension dim."""

    star: np.ndarray
    dim: int


def make_refinement(star, tol: float = INPUT_TOL) -> Refinement:
    """Validate a candidate star.

    Every gate has scale 1, which the definition of an involution fixes.

    Raises
    ------
    ValueError
        If star equals the identity, is not self-adjoint, is not an
        involution, or has nonzero normalized trace (unbalanced
        eigenspaces; in particular any odd dimension is rejected).
    """
    s = as_operator(star)
    d = s.shape[0]
    eye = np.eye(d)
    if within(frobenius(s - eye), 1.0, tol):
        raise ValueError("refinement star must differ from the identity")
    if not within(frobenius(s - adjoint(s)), 1.0, tol):
        raise ValueError("refinement star must be self-adjoint")
    if not within(frobenius(s @ s - eye), 1.0, tol):
        raise ValueError("refinement star must square to the identity")
    tr = normalized_trace(s)
    if not within(abs(tr), 1.0, tol):
        raise ValueError(
            f"refinement star must have zero normalized trace, got {tr:.3e}"
        )
    return Refinement(star=s, dim=d)


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
    """
    m = as_operator(q)
    s = refinement.star
    if m.shape != s.shape:
        raise ValueError(f"operator shape {m.shape} does not match refinement dim {refinement.dim}")
    sa = frobenius(m - adjoint(m))
    bianchi = bianchi_residual(m, s)
    einstein = star_commutator_norm(m, s)
    lam = 3.0 * normalized_trace(m).real
    scale = frobenius(m)
    return VacuumReport(
        solves=bool(all(within(res, scale, tol) for res in (sa, bianchi, einstein))),
        self_adjoint_residual=float(sa),
        bianchi_residual=float(bianchi),
        einstein_residual=float(einstein),
        lam=float(lam),
    )


def solve_einstein_vacuum(b, refinement: Refinement) -> np.ndarray:
    """Project arbitrary input onto a vacuum solution by averaging.

    Linear over real scalars, and the identity on operators that
    already solve the condition; tau of the output is Re tau(B).
    """
    m = as_operator(b)
    s = refinement.star
    if m.shape != s.shape:
        raise ValueError(f"operator shape {m.shape} does not match refinement dim {refinement.dim}")
    sym = 0.5 * (m + adjoint(m))
    avg = 0.5 * (sym + s @ sym @ s)
    # tau(S star) is real for self-adjoint S and star; drop rounding dust
    # so the output stays exactly self-adjoint.
    return avg - normalized_trace(sym @ s).real * s
