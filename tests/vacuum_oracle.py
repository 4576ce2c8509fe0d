"""Dense reference formulas for the vacuum solver and check.

Every product with the star is a BLAS `@`, and the trace of a product is
`np.trace` of it.  The package multiplies by a signed-permutation star
with gathers instead; on such a star both must give the same bits.
"""

import numpy as np

from hodgekit.linalg import DEFAULT_TOL, frobenius, within


def solve(b, star) -> np.ndarray:
    """Q = (S + star S star)/2 - tau(S star) star with S = (B + B*)/2."""
    m = np.asarray(b, dtype=np.complex128)
    s = np.asarray(star, dtype=np.complex128)
    sym = 0.5 * (m + m.conj().T)
    avg = 0.5 * (sym + s @ sym @ s)
    return avg - (complex(np.trace(sym @ s)) / m.shape[0]).real * s


def report(q, star, tol=DEFAULT_TOL) -> tuple:
    """(solves, self_adjoint, bianchi, einstein, lam) as `VacuumReport.as_dict` orders them."""
    m = np.asarray(q, dtype=np.complex128)
    s = np.asarray(star, dtype=np.complex128)
    d = m.shape[0]
    sa = frobenius(m - m.conj().T)
    bianchi = float(abs(np.trace(m @ s)) / d)
    einstein = frobenius(s @ m - m @ s)
    lam = 3.0 * (complex(np.trace(m)) / d).real
    scale = frobenius(m)
    solves = all(within(res, scale, tol) for res in (sa, bianchi, einstein))
    return solves, sa, bianchi, einstein, lam
