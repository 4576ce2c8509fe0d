"""Curvature operators on the 2-forms of an oriented Riemannian 4-manifold.

The six-dimensional coefficient space uses the basis order

    (e12, e13, e14, e23, e24, e34),  orientation e1^e2^e3^e4.

The Hodge star is an involution with three-dimensional +1 and -1
eigenspaces (self-dual and anti-self-dual forms).  In an orthonormal
eigenbasis of the star the curvature operator takes the block form

    R = [ Scal/12 + W+   Ric0        ]
        [ Ric0^T         Scal/12 + W- ]

with W+/- symmetric traceless.  The manifold is Einstein exactly when
Ric0 = 0, equivalently when R commutes with the star; the first Bianchi
identity forces trace(R . star) = 0.  The normalized operator trace is
tau(R) = trace(R)/6 = Scal/12, so an Einstein constant Lambda = Scal/4
satisfies tau(R) = Lambda/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, INPUT_TOL, StarProduct, frobenius, rescaled, within

# Star on the coordinate basis: *e12 = e34, *e13 = -e24, *e14 = e23,
# and symmetrically back.  Complementary forms sit at mirrored positions
# j and 5 - j, so the star is anti-diagonal; column j holds *e_j.
STANDARD_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])).copy()

# Rows: the orthonormal self-dual triple (e_i + *e_i)/sqrt 2 for e12, e13,
# e14, then the anti-self-dual (e_i - *e_i)/sqrt 2.  The first row is the
# direction of a Kaehler form e12 + e34.
BASIS_CHANGE = (1.0 / np.sqrt(2.0)) * np.vstack([(np.eye(6) + STANDARD_STAR)[:3],
                                                 (np.eye(6) - STANDARD_STAR)[:3]])

# The star in its own eigenbasis.
SPLIT_STAR = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class CurvatureOperator:
    """Block data of a curvature operator in the star eigenbasis."""

    scal: float
    weyl_plus: np.ndarray
    weyl_minus: np.ndarray
    ric0: np.ndarray

    def __post_init__(self):
        names = ("weyl_plus", "weyl_minus", "ric0")
        blocks = [np.asarray(getattr(self, name), dtype=float) for name in names]
        for name, m in zip(names, blocks):
            if m.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
            object.__setattr__(self, name, m)
        # The Weyl gates are relative to the size of the whole operator.
        scale = max(abs(float(self.scal)), *map(frobenius, blocks))
        for name, m in zip(names[:2], blocks):
            for res, what in ((frobenius(m - m.T), "symmetric"), (abs(np.trace(m)), "traceless")):
                if not within(res, scale, INPUT_TOL):
                    raise ValueError(f"{name} must be {what} within {INPUT_TOL:.0e} relative")

    @property
    def lam(self) -> float:
        """Einstein constant Lambda = Scal/4, meaningful when ric0 = 0."""
        return float(self.scal) / 4.0


def assemble_curvature(op: CurvatureOperator) -> np.ndarray:
    """6x6 symmetric matrix of the block data, star eigenbasis."""
    pot = op.scal / 12.0
    eye3 = np.eye(3)
    out = np.empty((6, 6), dtype=float)
    out[:3, :3] = pot * eye3 + op.weyl_plus
    out[3:, 3:] = pot * eye3 + op.weyl_minus
    out[:3, 3:] = op.ric0
    out[3:, :3] = op.ric0.T
    return out


def decompose_curvature(r) -> CurvatureOperator:
    """Split a symmetric 6x6 operator back into block data.

    Exact left inverse of assemble_curvature.  The scalar part is read
    from the full trace; each diagonal block then sheds its own trace
    into the Weyl summand, so input that violates the equal-block-trace
    (Bianchi) constraint still round-trips through assemble only if it
    satisfies it.
    """
    m = np.asarray(r)
    if m.shape != (6, 6):
        raise ValueError(f"expected a 6x6 operator, got shape {m.shape}")
    scale = frobenius(m)
    if np.iscomplexobj(m):
        if not within(float(np.abs(m.imag).max()), scale):
            raise ValueError("curvature operator must be real")
        m = m.real
    m = m.astype(float)
    if not within(frobenius(m - m.T), scale):
        raise ValueError(f"curvature operator must be symmetric within {DEFAULT_TOL:.0e} relative")
    scal = 2.0 * float(np.trace(m))
    tl = m[:3, :3]
    br = m[3:, 3:]
    wp = tl - (np.trace(tl) / 3.0) * np.eye(3)
    wm = br - (np.trace(br) / 3.0) * np.eye(3)
    return CurvatureOperator(scal=scal, weyl_plus=wp, weyl_minus=wm, ric0=m[:3, 3:].copy())


@dataclass(frozen=True)
class ManifoldModel:
    """A named curvature exemplar with its expected verdicts."""

    name: str
    params: tuple
    curvature: CurvatureOperator
    expected_einstein: bool
    expected_lambda: float | None

    @property
    def matrix(self) -> np.ndarray:
        return assemble_curvature(self.curvature)


def exemplar(name: str, *params: float) -> ManifoldModel:
    """Construct one of the reference curvature operators.

    s4(r)        round 4-sphere of radius r: R = (1/r^2) Id, Lambda = 3/r^2.
    t4_flat()    flat 4-torus: R = 0, Lambda = 0.
    s2xs2(r1,r2) product of round 2-spheres: sectional curvature 1/r1^2 on
                 the e12 plane, 1/r2^2 on e34, zero on mixed planes;
                 Einstein exactly when r1 = r2 (Lambda = 1/r^2).
    cp2(lam)     Fubini-Study with holomorphic sectional curvature 4/lam:
                 Scal = 24/lam, W+ = diag(4, -2, -2)/lam with the Kaehler
                 direction first, W- = 0, Lambda = 6/lam.
    """
    if name == "s4":
        (radius,) = _positive_params("s4", params, 1, 2)
        k = 1.0 / radius**2
        scal = _in_range("s4", radius, 12.0 * k)
        op = CurvatureOperator(scal=scal, weyl_plus=np.zeros((3, 3)),
                               weyl_minus=np.zeros((3, 3)), ric0=np.zeros((3, 3)))
        return ManifoldModel("s4", params, op, True, 3.0 * k)
    if name == "t4_flat":
        if params:
            raise ValueError("t4_flat takes no parameters")
        op = CurvatureOperator(scal=0.0, weyl_plus=np.zeros((3, 3)),
                               weyl_minus=np.zeros((3, 3)), ric0=np.zeros((3, 3)))
        return ManifoldModel("t4_flat", (), op, True, 0.0)
    if name == "s2xs2":
        r1, r2 = _positive_params("s2xs2", params, 2, 2)
        k1, k2 = 1.0 / r1**2, 1.0 / r2**2
        # Coordinate-basis operator: only the two sphere planes curve.
        r_std = np.diag([k1, 0.0, 0.0, 0.0, 0.0, k2])
        with np.errstate(over="ignore"):  # an overflow shows in Scal, checked here
            r_split = BASIS_CHANGE @ r_std @ BASIS_CHANGE.T
            _in_range("s2xs2", min(r1, r2), 2.0 * float(np.trace(r_split)))
        op = decompose_curvature(r_split)
        einstein = r1 == r2
        return ManifoldModel("s2xs2", params, op, einstein, k1 if einstein else None)
    if name == "cp2":
        (lam,) = _positive_params("cp2", params, 1, 1)
        scal = _in_range("cp2", lam, 24.0 / lam)
        wp = np.diag([4.0, -2.0, -2.0]) / lam
        op = CurvatureOperator(scal=scal, weyl_plus=wp,
                               weyl_minus=np.zeros((3, 3)), ric0=np.zeros((3, 3)))
        return ManifoldModel("cp2", params, op, True, 6.0 / lam)
    raise ValueError(f"unknown exemplar {name!r}; choose s4, t4_flat, s2xs2 or cp2")


def _positive_params(name, params, count, power):
    """Positive parameters p whose curvature 1 / p**power is a finite nonzero double."""
    if len(params) != count:
        raise ValueError(f"{name} takes {count} parameter(s), got {len(params)}")
    vals = tuple(float(p) for p in params)
    if any(not np.isfinite(v) or v <= 0.0 for v in vals):
        raise ValueError(f"{name} parameters must be positive, got {vals}")
    for v in vals:
        try:
            k = 1.0 / v**power
        except (ZeroDivisionError, OverflowError):
            k = 0.0
        _in_range(name, v, k)
    return vals


def _in_range(name, param, value):
    """value if it is a finite positive double, else reject the parameter.  An
    exemplar checks its Scal too: no Weyl or operator entry is larger."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} parameter {param!r} has no finite nonzero curvature")
    return value


def tau_operator(samples) -> float:
    """Normalized trace averaged over quadrature points.

    samples is an iterable of (weight, matrix) pairs; weights must be
    nonnegative and sum to one within 1e-10.  A single operator is the
    one-point quadrature [(1.0, R)].
    """
    pairs = [(float(w), np.asarray(r)) for w, r in samples]
    if not pairs:
        raise ValueError("quadrature needs at least one (weight, matrix) pair")
    total = sum(w for w, _ in pairs)
    if not all(within(-w, 1.0, INPUT_TOL) for w, _ in pairs):
        raise ValueError("quadrature weights must be nonnegative")
    if not within(abs(total - 1.0), 1.0):
        raise ValueError(f"quadrature weights must sum to 1, got {total!r}")
    acc = 0.0
    for w, r in pairs:
        if r.shape != (6, 6):
            raise ValueError(f"expected 6x6 operators, got shape {r.shape}")
        acc += w * float(np.trace(r).real)
    return acc / 6.0


def _operator_and_star(r, star):
    """R as an array and star as a StarProduct (None is the split star), of one square shape."""
    m = np.asarray(r)
    s = star if isinstance(star, StarProduct) else StarProduct(SPLIT_STAR if star is None else star)
    if m.shape != s.matrix.shape or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator and star shapes differ: {m.shape} vs {s.matrix.shape}")
    return m, s


def bianchi_residual(r, star=None) -> float:
    """|tau(R . star)|; zero for every operator assembled from block data
    with equal diagonal-block traces, which is the algebraic first
    Bianchi identity in this picture.  star is a matrix or a StarProduct."""
    m, s = _operator_and_star(r, star)
    return float(rescaled(lambda a: abs(s.trace(a)) / a.shape[0], m))


def ric0_norm(r) -> float:
    """Frobenius size of the trace-free Ricci block; zero iff Einstein."""
    return frobenius(decompose_curvature(r).ric0)


def star_commutator_norm(r, star=None) -> float:
    """||star R - R star||, the commutation form of the Einstein test;
    star is a matrix or a StarProduct."""
    m, s = _operator_and_star(r, star)
    return frobenius(s.left(m) - s.right(m))
