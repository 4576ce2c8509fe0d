"""Dense reference formulas for the vacuum solver, its check and the star gates.

Every product with the star is a BLAS `@`, and the trace of a product is
`np.trace` of it.  The package multiplies by a signed-permutation star
with gathers instead, and builds the solution in place; on such a star
both give the same values, and the same bits on inputs without exact
zeros.  `gathered_solve` keeps the package's earlier gathered solve,
whose bits the in-place one keeps, signed zeros included.
"""

import numpy as np

from hodgekit.linalg import DEFAULT_TOL, INPUT_TOL, frobenius, within


def solve(b, star) -> np.ndarray:
    """Q = (S + star S star)/2 - tau(S star) star with S = (B + B*)/2."""
    m = np.asarray(b, dtype=np.complex128)
    s = np.asarray(star, dtype=np.complex128)
    sym = 0.5 * (m + m.conj().T)
    avg = 0.5 * (sym + s @ sym @ s)
    return avg - (complex(np.trace(sym @ s)) / m.shape[0]).real * s


def gathered_solve(b, star) -> np.ndarray:
    """`solve` for a signed-permutation star as the package computed it before
    its in-place form: S = 0.5 (B + B*) from fresh arrays, star products as row
    and column gathers times the signs, and the dense product tau(S star) star."""
    m = np.asarray(b, dtype=np.complex128)
    s = np.asarray(star, dtype=np.complex128)
    d = m.shape[0]
    rows, cols = np.divmod(np.flatnonzero(s), d)
    sign, inv = s[rows, cols].real, np.argsort(cols)

    def left(a):
        out = np.take(a, cols, axis=0)
        out *= sign[:, None]
        return out

    def right(a):
        out = np.take(a, inv, axis=1)
        out *= sign[inv]
        return out

    sym = 0.5 * (m + m.conj().T)
    tau = (complex(np.sum(sym[np.arange(d), inv] * sign[inv])) / d).real
    return 0.5 * (sym + right(left(sym))) - tau * s


def refinement_error(star):
    """The message `make_refinement` raises for star, from the dense gates, or None."""
    s = np.asarray(star, dtype=np.complex128)
    d = s.shape[0]
    eye = np.eye(d)
    if within(frobenius(s - eye), 1.0, INPUT_TOL):
        return "refinement star must differ from the identity"
    if not within(frobenius(s - s.conj().T), 1.0, INPUT_TOL):
        return "refinement star must be self-adjoint"
    if not within(frobenius(s @ s - eye), 1.0, INPUT_TOL):
        return "refinement star must square to the identity"
    tr = complex(np.trace(s)) / d
    if not within(abs(tr), 1.0, INPUT_TOL):
        return f"refinement star must have zero normalized trace, got {tr:.3e}"
    return None


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
