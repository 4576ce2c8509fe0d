"""Dense complex linear algebra over a tracial matrix algebra.

Operators are square complex128 numpy arrays.  The normalized trace
tau(A) = Trace(A) / d  makes m_d(C) a tracial *-algebra with tau(1) = 1,
and the GNS scalar product

    (A, B) = tau(A B*)

turns it into a Hilbert space in which the identity is a unit vector.
Everything downstream (curvature operators, refinements, Clifford
towers, GNS quotients) speaks this dialect.

This module also holds the package's one verdict rule.  A check passes
when residual <= tol * scale, the normwise relative (backward-error)
test of Higham, Accuracy and Stability of Numerical Algorithms (2nd
ed., 2002), ch. 7.  The scale is the largest Frobenius norm among the
operands of the identity, or 1 where the definition fixes it, so a
verdict does not depend on units and a zero operand needs an exactly
zero residual.  The three tolerances below are the only ones in the
package.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

# For identities, for input validation (symmetric, traceless, normalized
# or involutive input), and for the time derivatives of a state functional
# F, which is bilinear in (eta, omega), so its scale is ||eta|| ||omega||.
DEFAULT_TOL = 1e-10
INPUT_TOL = 1e-12
STATIONARITY_TOL = 1e-8


def within(residual, scale, tol: float = DEFAULT_TOL):
    """The verdict rule: residual <= tol * scale (elementwise on arrays)."""
    return residual <= tol * scale


def as_operator(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix.

    Raises
    ------
    ValueError
        If the input is not a square 2-d array.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("expected a nonempty matrix")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose A*."""
    return as_operator(a).conj().T


def normalized_trace(a) -> complex:
    """tau(A) = Trace(A) / dim.  tau(1) = 1 for every dimension; a Trace beyond
    the doubles is retried by `rescaled`."""
    return rescaled(_trace_over_dim, as_operator(a))


def _trace_over_dim(m) -> complex:
    return complex(np.trace(m)) / m.shape[0]


def binary_scale(*arrays) -> tuple:
    """2^e at the largest modulus of the arrays, as two factors since 2^-e exceeds
    the doubles for a subnormal maximum; dividing by both is exact (Blue, ACM TOMS 4, 1978)."""
    e = int(np.frexp(max(np.abs(a).max(initial=0.0) for a in arrays))[1])
    return 2.0 ** (e // 2), 2.0 ** (e - e // 2)


def rescaled(f, m):
    """f(m) for f homogeneous of degree one in m.  Where a sum inside f leaves the
    doubles although f(m) may not, f(m / lo / hi) * lo * hi with `binary_scale`'s
    factors; a value that is still not finite is out of range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = f(m)
        if cmath.isfinite(value):
            return value
        lo, hi = binary_scale(m)
        return f(m / lo / hi) * lo * hi


def frobenius(a) -> float:
    """Frobenius norm, the default residual metric, over the whole double range:
    where np.linalg.norm's sum of squares leaves the doubles, the entries are
    first divided by `binary_scale`."""
    m = np.asarray(a)
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(m))
    # Above 2^-460 the squares that underflow weigh less than 2^-150 relative.
    if 2.0 ** -460 < n < np.inf or not m.any():
        return n
    lo, hi = binary_scale(m)
    return float(np.linalg.norm(m / lo / hi)) * lo * hi


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_operator(a), 2))


def normality_residual(a) -> float:
    """||A A* - A* A|| in operator norm; zero exactly for normal A."""
    m = as_operator(a)
    ad = m.conj().T
    return operator_norm(m @ ad - ad @ m)


def expm_normal(a) -> np.ndarray:
    """Exponential of a normal matrix via two Hermitian eigendecompositions.

    A normal matrix splits as A = H + iK with H = (A + A*)/2 and
    K = (A - A*)/2i Hermitian and commuting, so exp(A) = exp(H) exp(iK),
    and each factor is V diag(exp(w)) V* from one `eigh`.  Unitary
    eigenvectors keep one-parameter groups unitary to machine precision,
    also on degenerate spectra.  Non-normal input is rejected rather
    than silently mis-exponentiated.

    Parameters
    ----------
    a : array_like
        Square matrix with ||A A* - A* A|| <= DEFAULT_TOL ||A||^2 in
        operator norm, the scale of both products.

    Raises
    ------
    ValueError
        If the normality residual exceeds DEFAULT_TOL ||A||^2.
    """
    m = as_operator(a)
    res = normality_residual(m)
    if not within(res, operator_norm(m) ** 2):
        raise ValueError(
            f"matrix is not normal: ||A A* - A* A|| = {res:.3e} exceeds {DEFAULT_TOL:.1e} ||A||^2"
        )
    ad = m.conj().T
    return _expm_hermitian(0.5 * (m + ad), 1.0) @ _expm_hermitian(-0.5j * (m - ad), 1j)


def _expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * H) for Hermitian H, from one eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


class StarProduct:
    """Products with a fixed square matrix s, typically a refinement star.

    When s is a signed permutation matrix (each row holds one nonzero
    entry, exactly +1 or -1, and the columns form a permutation), as the
    Hodge star is in the wedge basis, s @ m is a row gather and m @ s a
    column gather: O(d^2), and each entry is one exact product, so the
    values equal the dense product's.  Any other s takes the dense
    product.  The choice follows from the entries of s alone; perm and
    sign hold s[i, perm[i]] = sign[i], or None.
    """

    __slots__ = ("matrix", "perm", "sign", "_cols", "_col_sign", "_positive_zeros")

    def __init__(self, s):
        self.matrix = m = np.asarray(s)
        self.perm = self.sign = None
        d = m.shape[0] if m.ndim == 2 and m.shape[0] == m.shape[1] else 0
        # With d nonzero 64-bit words, a signed permutation's are its +-1 real parts, one
        # per row and so the row's largest; other counts fall back to the entries.
        words = np.ascontiguousarray(m, dtype=np.complex128).view(np.uint64)
        self._positive_zeros = d > 0 and np.count_nonzero(words) == d
        if self._positive_zeros:
            rows, cols = np.arange(d), words.argmax(1) >> 1
        elif d > 0 and np.count_nonzero(m) == d:
            rows, cols = np.divmod(np.flatnonzero(m), d)
        else:
            return
        inv, vals, order = np.argsort(cols), m[rows, cols], np.arange(d)
        if (rows == order).all() and (cols[inv] == order).all() and ((vals == 1) | (vals == -1)).all():
            # Row i of s m is sign[i] m[cols[i]]; column j of m s is m[:, inv[j]] sign[inv[j]].
            self.perm, self.sign = cols, vals.real
            self._cols, self._col_sign = inv, self.sign[inv]

    @property
    def is_signed_permutation(self) -> bool:
        return self.perm is not None

    def left(self, m) -> np.ndarray:
        """s @ m."""
        if self.perm is None:
            return self.matrix @ m
        return _signed_take(m, self.perm, self.sign[:, None], 0)

    def right(self, m) -> np.ndarray:
        """m @ s."""
        if self.perm is None:
            return m @ self.matrix
        return _signed_take(m, self._cols, self._col_sign, 1)

    def trace(self, m):
        """Trace(m s) = sum_ij m_ij s_ji, which needs no product."""
        if self.perm is None:
            return np.sum(m * self.matrix.T)
        return np.sum(m[np.arange(m.shape[0]), self._cols] * self._col_sign)

    def subtract(self, q, c) -> None:
        """q -= c s in place, with the dense product's bits.  Off perm, c s is +0.0 where s is,
        but for a -0.0 real part if c has its sign bit set; x - (-0.0) is x + 0.0."""
        if self.perm is None or not self._positive_zeros:
            q -= c * self.matrix
            return
        at = (np.arange(len(self.perm)), self.perm)
        on = q[at] - c * self.matrix[at]
        if np.signbit(c):
            q.real += 0.0
        q[at] = on


def _signed_take(m, index, sign, axis) -> np.ndarray:
    """m gathered along axis, times sign; in place, which is several times
    faster than a product that casts sign to a complex temporary."""
    m = np.asarray(m)
    out = np.take(m, index, axis=axis).astype(np.promote_types(m.dtype, np.float64), copy=False)
    out *= sign
    return out


def random_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian matrix, independent N(0, scale^2/2) real and imaginary parts."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    return (scale / np.sqrt(2.0)) * (re + 1j * im)


# ---------------------------------------------------------------------------
# Serialization.  A matrix is stored as {"dim": d, "entries": [[re, im], ...]}
# with d*d entries in row-major order, a coefficient vector as
# {"coefficients": [[re, im], ...]}; `_to_pairs` writes both and `_from_pairs` reads both.
# ---------------------------------------------------------------------------


def _to_pairs(a) -> list:
    """[[re, im], ...] in row-major order: the float64 view of a complex array."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, 2).tolist()


def _from_pairs(pairs, field: str, count: int | None = None) -> np.ndarray:
    """[[re, im], ...] read as one float64 array and checked whole; its complex128
    view keeps every bit, signed zeros included."""
    try:
        arr = np.array(pairs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, or beyond the doubles
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"'{field}' must be a list of [re, im] pairs of doubles")
    if count is not None and len(arr) != count:
        raise ValueError(f"expected {count} {field}, got {len(arr)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"'{field}' must be finite numbers")
    return arr.view(np.complex128)[:, 0]


def matrix_to_dict(a) -> dict:
    """Row-major [re, im] pair encoding of a square matrix."""
    return {"dim": len(m := as_operator(a)), "entries": _to_pairs(m)}


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix object needs 'dim' and 'entries' fields")
    if type(d := obj["dim"]) is not int or d < 1:
        raise ValueError(f"matrix 'dim' must be a positive integer, got {d!r}")
    return _from_pairs(obj["entries"], "entries", d * d).reshape(d, d)


def save_matrix(path, a) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(matrix_to_dict(a)) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


def save_vector(path, v) -> None:
    if np.ndim(v) != 1:
        raise ValueError(f"expected a 1-d coefficient vector, got shape {np.shape(v)}")
    with open(path, "w") as fh:
        fh.write(json.dumps({"coefficients": _to_pairs(v)}) + "\n")


def load_vector(path, length: int | None = None) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "coefficients" not in obj:
        raise ValueError("vector object needs a 'coefficients' field")
    return _from_pairs(obj["coefficients"], "coefficients", length)
