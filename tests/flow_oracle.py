"""Schur-based reference pipeline for the star flow.

Recomputes the flow without the library's closed forms: every power is
exp(t log) by a complex Schur factorization, which is diagonal for a
normal matrix, every time derivative of the state functional is a
central difference of the flowed functional, the fixed-point probe is
the conjugation flow sampled at a few times, and the energy is the dense
pairing tau(H R) with the Hamiltonian H.
"""

import numpy as np
import scipy.linalg

from hodgekit import states as st

# Central-difference step for the derivative oracle.
STEP = 1e-5

# Flow samples for the sampled fixed-point probe; t = 1.0 is where
# |sin(pi t / 2)| peaks.
FIXED_POINT_TIMES = (0.1, 0.25, 0.5, 1.0, 1.7)


def expm_schur(a):
    """exp(A) for normal A from the complex Schur form A = Z T Z*."""
    t, z = scipy.linalg.schur(np.asarray(a, dtype=np.complex128), output="complex")
    return (z * np.exp(np.diag(t))) @ z.conj().T


def log_star(gen):
    """The principal logarithm i pi (1 - star)/2 of the star."""
    return 1j * np.pi * 0.5 * (np.eye(gen.dim) - gen.refinement.star)


def star_power(gen, t):
    """star^t = exp(t log star)."""
    return expm_schur(float(t) * log_star(gen))


def flow_displacement(gen, a, t):
    """||star^t A star^-t - A|| with the Schur power."""
    w = star_power(gen, t)
    return np.linalg.norm(w @ a @ w.conj().T - a)


def sampled_flow_residual(gen, a):
    """The worst flow displacement over FIXED_POINT_TIMES."""
    return max(flow_displacement(gen, a, t) for t in FIXED_POINT_TIMES)


def hamiltonian(gen):
    """H = (1/i) log star = pi P-; self-adjoint with spectrum {0, pi}."""
    return np.pi * 0.5 * (np.eye(gen.dim) - gen.refinement.star)


def dense_energy(gen, r):
    """E = tau(H R) from the dense product H R."""
    return float((np.trace(hamiltonian(gen) @ r) / gen.dim).real)


def star_prime(pgen):
    """The perturbed star *' = star z (P+ +/- P-) with z = exp(i pi eps)."""
    s = pgen.base.refinement.star
    eye = np.eye(pgen.base.dim)
    z = np.exp(1j * np.pi * pgen.epsilon)
    return s @ (z * (0.5 * (eye + s) + pgen.sign * 0.5 * (eye - s)))


def log_u(pgen):
    """log U = i pi eps 1, plus log star on the sign -1 branch."""
    out = 1j * np.pi * pgen.epsilon * np.eye(pgen.base.dim)
    return out + log_star(pgen.base) if pgen.sign == -1 else out


def perturbed_power(pgen, t):
    """(*')^t = star^t exp(t log U)."""
    return star_power(pgen.base, t) @ expm_schur(float(t) * log_u(pgen))


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
