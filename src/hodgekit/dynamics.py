"""One-parameter dynamics generated by a refinement star.

With P- the projection onto the -1 eigenspace of the star,

    log star = i pi P-,      star^t = exp(t log star)

is a unitary one-parameter group of period two with star^1 = star, and
operators flow by conjugation A -> star^t A star^-t.  The self-adjoint
generator H = (1/i) log star = pi P- has spectrum {0, pi} (so H^2 =
pi H), and pairs with a curvature operator to give the energy

    E = tau(H R) = pi Lambda / 6        (Einstein case).

Fixed points of the flow are exactly the operators commuting with the
star; on curvature operators that is the Einstein condition again.

Read as a Gibbs weight exp(-beta H) at the thermal time beta = 2, the
period in physical units is hbar*beta = 2 t_Planck, which corresponds
to the formal temperature T = hbar / (2 k_B t_Planck), one half of the
Planck temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import star_commutator_norm
from .linalg import DEFAULT_TOL, adjoint, as_operator, frobenius, rescaled, within
# Re-exported: perfbench/tracing.py wraps expm_normal in this namespace too.
from .linalg import expm_normal  # noqa: F401
from .einstein import Refinement

# CODATA 2018 values, SI units.
HBAR_JS = 1.054571817e-34          # reduced Planck constant, J s (exact-based)
BOLTZMANN_J_PER_K = 1.380649e-23   # k_B, J/K (exact)
PLANCK_TIME_S = 5.391247e-44       # t_P, s


@dataclass(frozen=True)
class HodgeGenerator:
    """The flow star^t = exp(t log star) of a refinement's star."""

    refinement: Refinement

    @property
    def dim(self) -> int:
        return self.refinement.dim


def hodge_generator(refinement: Refinement) -> HodgeGenerator:
    """The flow of the refinement's star; log star = i pi (1 - star)/2."""
    return HodgeGenerator(refinement=refinement)


def star_power(gen: HodgeGenerator, t: float) -> np.ndarray:
    """star^t = exp(t log star) = P+ + e^{i pi t} P-; unitary, period two,
    star^1 = star.  In terms of the star, 0.5 ((1 + z) 1 + (1 - z) star)
    with z = e^{i pi t}."""
    z = np.exp(1j * np.pi * float(t))
    return 0.5 * ((1.0 + z) * np.eye(gen.dim) + (1.0 - z) * gen.refinement.star)


def _operator_of_dim(a, dim: int) -> np.ndarray:
    """A as a square operator, checked against the generator dimension."""
    m = as_operator(a)
    if m.shape[0] != dim:
        raise ValueError(f"operator dim {m.shape[0]} does not match generator dim {dim}")
    return m


def evolve(gen: HodgeGenerator, a, t: float) -> np.ndarray:
    """Conjugation flow A -> star^t A star^-t."""
    m = _operator_of_dim(a, gen.dim)
    w = star_power(gen, t)
    return w @ m @ adjoint(w)


@dataclass(frozen=True)
class FixedPointReport:
    fixed: bool
    flow_residual: float
    commutator_norm: float


def is_fixed_point(gen: HodgeGenerator, a, tol: float = DEFAULT_TOL) -> FixedPointReport:
    """Probe whether A is a fixed point of the conjugation flow.

    With z = e^{i pi t}, star^t A star^-t - A = (z - 1) P- A P+ + (z* - 1) P+ A P-,
    two Frobenius-orthogonal pieces, and star A - A star = 2 (P+ A P- - P- A P+).
    So the flow moves A by |sin(pi t/2)| ||star A - A star|| at every t, and
    flow_residual, the sup over t, is the commutator norm.  The verdict gates
    it at tolerance tol relative to ||A||.
    """
    m = _operator_of_dim(a, gen.dim)
    comm = star_commutator_norm(m, gen.refinement.product)
    return FixedPointReport(fixed=bool(within(comm, frobenius(m), tol)),
                            flow_residual=comm, commutator_norm=comm)


def energy(gen: HodgeGenerator, r) -> float:
    """E = tau(H R) with H = (1/i) log star = pi P- = (pi/2)(1 - star), so
    E = (pi/2)(tau(R) - tau(R star)), from two traces and no product.  For
    an Einstein curvature operator in the star eigenbasis this is pi Lambda / 6."""
    m = _operator_of_dim(r, gen.dim)
    s = gen.refinement.product
    gap = rescaled(lambda a: (np.trace(a) - s.trace(a)) / a.shape[0], m)
    return float(0.5 * np.pi * gap.real)


@dataclass(frozen=True)
class PerturbedGenerator:
    """Flow of a perturbed star *' = star U, U = z (P+ +/- P-), |z| = 1.

    U commutes with the star, so the perturbed flow factors as
    (*')^t = star^t U^t; the branch of U^t is fixed by
    log U = i pi eps 1 (+ log star when the sign is -1).
    """

    base: HodgeGenerator
    epsilon: float
    sign: int

    @property
    def power(self) -> int:
        """The central part of log U aside, log *' = power * log star."""
        return 1 if self.sign == 1 else 2


def perturbed_star(gen: HodgeGenerator, epsilon: float, sign: int = 1) -> PerturbedGenerator:
    """Phase-perturbed star with z = exp(i pi eps), |eps| < 1/2.

    sign = +1 keeps the eigenspace weighting and disturbs only the
    periodicity, (*')^2 = exp(2 i pi eps); sign = -1 also flips the
    anti-self-dual weight.
    """
    eps = float(epsilon)
    if not np.isfinite(eps) or abs(eps) >= 0.5:
        raise ValueError(f"perturbation requires |epsilon| < 1/2, got {epsilon!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return PerturbedGenerator(base=gen, epsilon=eps, sign=int(sign))


def perturbed_power(pgen: PerturbedGenerator, t: float) -> np.ndarray:
    """(*')^t = star^t U^t with U^t = exp(t log U).

    In closed form U^t = e^{i pi eps t}, times one more factor star^t on
    the sign -1 branch, so the flow is a phase times star^t or star^{2t}.
    """
    t = float(t)
    return np.exp(1j * np.pi * pgen.epsilon * t) * star_power(pgen.base, pgen.power * t)


def perturbed_evolve(pgen: PerturbedGenerator, a, t: float) -> np.ndarray:
    """Conjugation by the perturbed flow: the phase of U cancels, leaving star^(power t)."""
    return evolve(pgen.base, a, pgen.power * float(t))


@dataclass(frozen=True)
class FormalTemperature:
    """Physical reading of the period-two flow."""

    period_seconds: float
    temperature_kelvin: float
    temperature_over_planck: float


def formal_temperature() -> FormalTemperature:
    """Thermal-time constants of the flow.

    The Planck temperature is derived from the same constants
    (T_P = hbar / (k_B t_P)), so the ratio T / T_P = 1/2 is exact by
    construction rather than a rounded CODATA quotient.
    """
    period = 2.0 * PLANCK_TIME_S
    t_planck_kelvin = HBAR_JS / (BOLTZMANN_J_PER_K * PLANCK_TIME_S)
    temperature = 0.5 * t_planck_kelvin
    return FormalTemperature(
        period_seconds=period,
        temperature_kelvin=temperature,
        temperature_over_planck=temperature / t_planck_kelvin,
    )
