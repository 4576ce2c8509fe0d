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
from .dynamics import HodgeGenerator, PerturbedGenerator, evolve, perturbed_evolve
from .linalg import INPUT_TOL, as_operator, frobenius, within

TWO_PI_I = 2j * np.pi

# Flow times at which the time derivative of F is sampled.
DERIVATIVE_TIMES = (0.0, 0.3, 0.7, 1.5)


@dataclass(frozen=True)
class TorusSurfaceClass:
    """Integer coefficients over the six coordinate 2-tori."""

    coefficients: tuple

    def __post_init__(self):
        c = tuple(self.coefficients)
        if len(c) != 6 or any(not float(x).is_integer() for x in c):
            raise ValueError(f"surface class needs 6 integer coefficients, got {c!r}")
        object.__setattr__(self, "coefficients", tuple(int(x) for x in c))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.coefficients, dtype=float)


@dataclass(frozen=True)
class TorusForm:
    """Complex coefficients of a translation-invariant 2-form."""

    coefficients: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coefficients, dtype=np.complex128)
        if v.shape != (6,):
            raise ValueError(f"2-form needs 6 coefficients, got shape {v.shape}")
        object.__setattr__(self, "coefficients", v)

    @property
    def vector(self) -> np.ndarray:
        return self.coefficients


def _sigma_vector(sigma) -> np.ndarray:
    if isinstance(sigma, TorusSurfaceClass):
        return sigma.vector
    return TorusSurfaceClass(tuple(np.asarray(sigma).tolist())).vector


def _form_vector(omega) -> np.ndarray:
    if isinstance(omega, TorusForm):
        return omega.vector
    return TorusForm(np.asarray(omega)).vector


def _in_eigenspace(v, sign: int, tol: float) -> bool:
    """||star v - sign v|| <= tol ||v||."""
    vec = np.asarray(v, dtype=np.complex128)
    return bool(within(frobenius(STANDARD_STAR @ vec - sign * vec), frobenius(vec), tol))


def is_self_dual(v, tol: float = INPUT_TOL) -> bool:
    """Whether the star fixes the coefficient vector: ||star v - v|| <= tol ||v||."""
    return _in_eigenspace(v, 1, tol)


def is_anti_self_dual(v, tol: float = INPUT_TOL) -> bool:
    """Whether the star negates the coefficient vector: ||star v + v|| <= tol ||v||."""
    return _in_eigenspace(v, -1, tol)


def surface_integral(sigma, omega) -> complex:
    """Integral of a constant 2-form over the surface class.

    Each coordinate 2-torus has unit area and picks out the matching
    basis coefficient, so the integral is the bilinear dot product.
    """
    return complex(_sigma_vector(sigma) @ _form_vector(omega))


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


def _commutator(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    return g @ m - m @ g


def stationarity_derivative(sigma, omega, gen: HodgeGenerator, a,
                            times=DERIVATIVE_TIMES) -> float:
    """Max |d/dt F(star^t A star^-t)| over the sample times.

    The derivative is exact: d/dt F(W_t A W_t*) = F(W_t [G, A] W_t*)
    for W_t = exp(t G), here with G = log star.  It vanishes up to
    rounding when omega and the dual of sigma lie in the same star
    eigenspace, for every A.
    """
    if gen.dim != 6:
        raise ValueError("stationarity probe needs a 6-dimensional flow")
    rate = _commutator(gen.log_star, as_operator(a))
    return max((abs(state_functional(sigma, omega, evolve(gen, rate, t))) for t in times),
               default=0.0)


def perturbed_stationarity(sigma, omega, pgen: PerturbedGenerator, a,
                           times=DERIVATIVE_TIMES) -> float:
    """Same exact derivative along the perturbed flow (*')^t = star^t U^t,
    whose generator is G = log star + log U."""
    if pgen.base.dim != 6:
        raise ValueError("stationarity probe needs a 6-dimensional flow")
    rate = _commutator(pgen.base.log_star + pgen.log_u, as_operator(a))
    return max((abs(state_functional(sigma, omega, perturbed_evolve(pgen, rate, t)))
                for t in times), default=0.0)


def homology_pairing(sigma, omega) -> complex:
    """(1/2 pi i) integral over Sigma of omega.

    For omega = 2 pi i times an integer coefficient form this is an
    integer pairing of homology against cohomology.
    """
    return surface_integral(sigma, omega) / TWO_PI_I


def pairing_is_degenerate(sigma, omega, tol: float = 0.0) -> bool:
    """True when the integral of omega over Sigma is within tol ||Sigma|| ||omega||
    of zero (its Cauchy-Schwarz bound).

    This is the branch on which the induced null ideal swallows the
    whole algebra and the coupling drops to zero.
    """
    scale = frobenius(_sigma_vector(sigma)) * frobenius(_form_vector(omega))
    return bool(within(abs(surface_integral(sigma, omega)), scale, tol))
