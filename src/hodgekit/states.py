"""Surface-supported states on 2-forms of the flat unit 4-torus.

A closed oriented surface class Sigma is an integer combination of the
six coordinate 2-tori; a translation-invariant 2-form omega is a
complex coefficient vector over (e12, e13, e14, e23, e24, e34).  The
basic functional is

    F(A) = integral over Sigma of (A omega) = (A omega, eta_Sigma)_L2,

where the Poincare dual eta_Sigma represents integration over Sigma as
an L2 pairing.  The flow generated by the star multiplies a self-dual
form by 1 and an anti-self-dual one by e^{i pi t}.  When omega and
eta_Sigma lie in the same star eigenspace, or one of them is zero, the
phases cancel and t -> F(star^t A star^-t) is constant for every
operator A; a mixed pair breaks this.  The stationarity probes sample
the exact time derivative of F, not a finite difference.

The homology pairing (1/2 pi i) * integral over Sigma of omega is an
integer whenever omega is 2 pi i times an integer form; a vanishing
pairing marks the degenerate branch where the induced null ideal is
everything and the associated representation collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import STANDARD_STAR
from .dynamics import HodgeGenerator, PerturbedGenerator
# Re-exported: perfbench/tracing.py wraps these names in this namespace too.
from .dynamics import evolve, perturbed_evolve  # noqa: F401
from .linalg import INPUT_TOL, as_operator, frobenius, rescaled, within

TWO_PI_I = 2j * np.pi

# Flow times at which the time derivative of F is sampled.
DERIVATIVE_TIMES = (0.0, 0.3, 0.7, 1.5)


@dataclass(frozen=True)
class TorusSurfaceClass:
    """Integer coefficients over the six coordinate 2-tori."""

    coefficients: tuple

    def __post_init__(self):
        c = tuple(self.coefficients)
        try:
            integral = len(c) == 6 and all(float(x).is_integer() for x in c)
        except OverflowError:
            raise ValueError("coefficient of sigma leaves the double range") from None
        if not integral:
            raise ValueError(f"surface class needs 6 integer coefficients, got {c!r}")
        object.__setattr__(self, "coefficients", tuple(int(x) for x in c))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.coefficients, dtype=float)


def _sigma_vector(sigma) -> np.ndarray:
    if isinstance(sigma, TorusSurfaceClass):
        return sigma.vector
    return TorusSurfaceClass(tuple(np.asarray(sigma).tolist())).vector


def _form_vector(omega) -> np.ndarray:
    v = np.asarray(omega, dtype=np.complex128)
    if v.shape != (6,):
        raise ValueError(f"2-form needs 6 coefficients, got shape {v.shape}")
    return v


def _in_eigenspace(v, sign: int) -> bool:
    """||star v - sign v|| <= INPUT_TOL ||v||."""
    vec = np.asarray(v, dtype=np.complex128)
    residual = rescaled(lambda u: frobenius(STANDARD_STAR @ u - sign * u), vec)
    return bool(within(residual, frobenius(vec), INPUT_TOL))


def is_self_dual(v) -> bool:
    """Whether the star fixes the coefficient vector: ||star v - v|| <= INPUT_TOL ||v||."""
    return _in_eigenspace(v, 1)


def is_anti_self_dual(v) -> bool:
    """Whether the star negates the coefficient vector: ||star v + v|| <= INPUT_TOL ||v||."""
    return _in_eigenspace(v, -1)


def surface_integral(sigma, omega) -> complex:
    """Integral of a constant 2-form over the surface class.

    Each coordinate 2-torus has unit area and picks out the matching
    basis coefficient, so the integral is the bilinear dot product.
    """
    return complex(rescaled(lambda w: _sigma_vector(sigma) @ w, _form_vector(omega)))


def poincare_dual(sigma) -> np.ndarray:
    """The 2-form eta with wedge(omega, eta) = integral_Sigma omega for all omega.

    On the coordinate basis this sends a 2-torus to its complementary
    basis form with the orientation sign, i.e. the star applied to the
    class vector.  Entries are exact integers.
    """
    return STANDARD_STAR @ _sigma_vector(sigma)


def state_functional(sigma, omega, a) -> complex:
    """F(A) = (A omega, eta_Sigma) in the L2 scalar product."""
    eta = poincare_dual(sigma)
    m = as_operator(a)
    if m.shape != (6, 6):
        raise ValueError(f"expected a 6x6 operator on 2-forms, got shape {m.shape}")
    return complex(np.vdot(eta, m @ _form_vector(omega)))


def stationarity_derivative(sigma, omega, gen: HodgeGenerator, a,
                            times=DERIVATIVE_TIMES) -> float:
    """Max |d/dt F(star^t A star^-t)| over the sample times and over A, a 6x6
    operator or an (n, 6, 6) stack; omega is rescaled where a sum overflows.

    With star^t = P+ + e^{i pi t} P-, the derivative is exact and in
    closed form, i pi (e^{i pi t} F(P- A P+) - e^{-i pi t} F(P+ A P-)).
    Both terms are exactly zero when omega and the dual of sigma lie
    exactly in the same star eigenspace, for every A.
    """
    if gen.dim != 6:
        raise ValueError("stationarity probe needs a 6-dimensional flow")
    m, star = np.asarray(a, dtype=np.complex128), gen.refinement.star
    if m.ndim not in (2, 3) or m.shape[-2:] != (6, 6):
        raise ValueError(f"expected 6x6 operators, got shape {m.shape}")
    m, eta = m.reshape(-1, 6, 6), poincare_dual(sigma)
    # F(P- A P+) and F(P+ A P-), with P+- = (1 +- star)/2 moved onto the vectors.
    down, up = eta - star @ eta, eta + star @ eta
    z = np.exp(1j * np.pi * np.asarray(times, dtype=float))

    def probe(w):
        rise = np.array([np.vdot(down, x) / 4 for x in m @ (w + star @ w)])[:, None]
        fall = np.array([np.vdot(up, x) / 4 for x in m @ (w - star @ w)])[:, None]
        return float(np.abs(1j * np.pi * (z * rise - z.conj() * fall)).max(initial=0.0))
    return rescaled(probe, _form_vector(omega))


def perturbed_stationarity(sigma, omega, pgen: PerturbedGenerator, a,
                           times=DERIVATIVE_TIMES) -> float:
    """Same exact derivative along the perturbed flow (*')^t = star^t U^t.  The
    phase of U cancels under conjugation, so the flow conjugates by star^(power t)
    and its derivative is power times the base one at time power t."""
    return pgen.power * stationarity_derivative(sigma, omega, pgen.base, a,
                                                [pgen.power * t for t in times])


def homology_pairing(sigma, omega) -> complex:
    """(1/2 pi i) integral over Sigma of omega.

    For omega = 2 pi i times an integer coefficient form this is an
    integer pairing of homology against cohomology.
    """
    return surface_integral(sigma, omega) / TWO_PI_I


def pairing_is_degenerate(sigma, omega) -> bool:
    """True when the integral of omega over Sigma is exactly zero.

    This is the branch on which the induced null ideal swallows the
    whole algebra and the coupling drops to zero.
    """
    return surface_integral(sigma, omega) == 0
