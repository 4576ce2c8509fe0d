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
from .linalg import DEFAULT_TOL, adjoint, as_operator, frobenius, within
# Re-exported: perfbench/tracing.py wraps expm_normal in this namespace too.
from .linalg import expm_normal  # noqa: F401
from .einstein import Refinement

# CODATA 2018 values, SI units.
HBAR_JS = 1.054571817e-34          # reduced Planck constant, J s (exact-based)
BOLTZMANN_J_PER_K = 1.380649e-23   # k_B, J/K (exact)
PLANCK_TIME_S = 5.391247e-44       # t_P, s

# Flow samples for the fixed-point probe; incommensurate with the
# period so accidental returns cannot fake a fixed point.
FIXED_POINT_TIMES = (0.1, 0.25, 0.5, 1.0, 1.7)


@dataclass(frozen=True)
class HodgeGenerator:
    """A refinement together with the skew generator of its flow."""

    refinement: Refinement
    log_star: np.ndarray

    @property
    def dim(self) -> int:
        return self.refinement.dim


def hodge_generator(refinement: Refinement) -> HodgeGenerator:
    """log star = i pi (1 - star)/2, the principal logarithm of the star."""
    s = refinement.star
    log_star = 1j * np.pi * 0.5 * (np.eye(refinement.dim) - s)
    return HodgeGenerator(refinement=refinement, log_star=log_star)


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

    flow_residual is the worst ||star^t A star^-t - A|| over the sample
    times; the verdict itself uses the commutator ||star A - A star||,
    which is the exact algebraic criterion and free of sampling, at
    tolerance tol relative to ||A||.
    """
    m = as_operator(a)
    flow = max(frobenius(evolve(gen, m, t) - m) for t in FIXED_POINT_TIMES)
    comm = star_commutator_norm(m, gen.refinement.star)
    return FixedPointReport(fixed=bool(within(comm, frobenius(m), tol)),
                            flow_residual=float(flow), commutator_norm=float(comm))


def hamiltonian(gen: HodgeGenerator) -> np.ndarray:
    """H = (1/i) log star = pi P-; self-adjoint with spectrum {0, pi}."""
    return (gen.log_star / 1j)


def energy(gen: HodgeGenerator, r) -> float:
    """E = tau(H R).  For an Einstein curvature operator in the star
    eigenbasis this evaluates to pi Lambda / 6."""
    m = _operator_of_dim(r, gen.dim)
    h = hamiltonian(gen)
    return float((np.trace(h @ m) / gen.dim).real)


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
    log_u: np.ndarray


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
    log_u = 1j * np.pi * eps * np.eye(gen.dim, dtype=np.complex128)
    if sign == -1:
        log_u = log_u + gen.log_star
    return PerturbedGenerator(base=gen, epsilon=eps, sign=int(sign), log_u=log_u)


def perturbed_power(pgen: PerturbedGenerator, t: float) -> np.ndarray:
    """(*')^t = star^t U^t with U^t = exp(t log U).

    In closed form U^t = e^{i pi eps t}, times one more factor star^t on
    the sign -1 branch, so the flow is a phase times star^t or star^{2t}.
    """
    t = float(t)
    power = 1.0 if pgen.sign == 1 else 2.0
    return np.exp(1j * np.pi * pgen.epsilon * t) * star_power(pgen.base, power * t)


def perturbed_evolve(pgen: PerturbedGenerator, a, t: float) -> np.ndarray:
    """Conjugation by the perturbed flow; the central phase of U cancels."""
    m = _operator_of_dim(a, pgen.base.dim)
    w = perturbed_power(pgen, t)
    return w @ m @ adjoint(w)


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
