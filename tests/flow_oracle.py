"""Schur-based reference pipeline for the star flow.

Recomputes the flow without the library's closed forms: every power is
exp(t log) by a complex Schur factorization, which is diagonal for a
normal matrix, and every time derivative of the state functional is a
central difference of the flowed functional.
"""

import numpy as np
import scipy.linalg

from hodgekit import states as st

# Central-difference step for the derivative oracle.
STEP = 1e-5


def expm_schur(a):
    """exp(A) for normal A from the complex Schur form A = Z T Z*."""
    t, z = scipy.linalg.schur(np.asarray(a, dtype=np.complex128), output="complex")
    return (z * np.exp(np.diag(t))) @ z.conj().T


def star_power(gen, t):
    """star^t = exp(t log star)."""
    return expm_schur(float(t) * gen.log_star)


def star_prime(pgen):
    """The perturbed star *' = star z (P+ +/- P-) with z = exp(i pi eps)."""
    s = pgen.base.refinement.star
    eye = np.eye(pgen.base.dim)
    z = np.exp(1j * np.pi * pgen.epsilon)
    return s @ (z * (0.5 * (eye + s) + pgen.sign * 0.5 * (eye - s)))


def perturbed_power(pgen, t):
    """(*')^t = star^t exp(t log U)."""
    return star_power(pgen.base, t) @ expm_schur(float(t) * pgen.log_u)


def flowed_functional(sigma, omega, power, a, t):
    """F(W_t A W_t*) with W_t = power(t)."""
    w = power(t)
    return st.state_functional(sigma, omega, w @ a @ w.conj().T)


def derivative(sigma, omega, power, a, t, step=STEP):
    """Central difference of t -> F(W_t A W_t*)."""
    fwd = flowed_functional(sigma, omega, power, a, t + step)
    back = flowed_functional(sigma, omega, power, a, t - step)
    return (fwd - back) / (2.0 * step)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
