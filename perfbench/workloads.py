"""The four workloads of the benchmark.

Each workload makes its inputs from the seed at set-up, then runs one
op at a time for a single client (a closed loop).  Sizes are fixed and
the seed only chooses values, so every op of a workload does the same
amount of work.  Every verdict is checked against an expectation the
benchmark derives from a closed form, never from the program's own
flags; each mismatch is returned as a ``Failure`` naming the defect it
shows.  ``KNOWN_DEFECTS`` lists the defects of the program that the
flow workload is built to expose; any other failure is unexpected.

Ops run in a fixed cycle of input cells, and a run measures whole
cycles, so the share of failing ops is the same on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import numpy as np

from hodgekit import cli, clifford, einstein, gns, linalg

# The CLI's default identity tolerance; the in-process ops check against it too.
TOL = 1e-10
TWO_PI_I = 2j * np.pi

KNOWN_DEFECTS = {
    "5a": "states: expected_stationary = dual_sd and omega_sd is wrong for "
          "ASD/ASD pairs and for a zero form",
    "5b": "states: finite-difference noise exceeds the absolute 1e-8 "
          "stationarity tolerance on a stationary input at pairing scale ~200",
    "5c": "manifold: absolute 1e-10 checks fail exemplars at large curvature "
          "(s4 and s2xs2 at radius ~1e-4)",
    "weyl_trace_tol": "curvature: s2xs2 at radius ~1e-4 raises 'weyl_plus must "
                      "be traceless' from the absolute 1e-12 block tolerance",
}


class Failure(NamedTuple):
    verdict: str
    defect: str
    detail: str


def nullspan(name):
    return contextlib.nullcontext()


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Closed forms the checks compare against.
# ---------------------------------------------------------------------------

# CODATA 2018: hbar, k_B, Planck time.  T = hbar / (2 k_B t_P).
_HBAR, _KB, _TP = 1.054571817e-34, 1.380649e-23, 5.391247e-44
FORMAL_TEMPERATURE_K = _HBAR / (2.0 * _KB * _TP)


def manifold_expectation(name: str, params) -> tuple:
    """(is Einstein, Lambda) of an exemplar, from its closed form."""
    if name == "s4":
        return True, 3.0 / params[0] ** 2
    if name == "t4_flat":
        return True, 0.0
    if name == "s2xs2":
        einstein_ = params[0] == params[1]
        return einstein_, (1.0 / params[0] ** 2 if einstein_ else None)
    if name == "cp2":
        return True, 6.0 / params[0]
    raise ValueError(name)


def curvature_scale(name: str, params) -> float:
    return max((1.0 / p ** 2 for p in params), default=0.0)


def signed_pairing_star(rng, dim: int):
    """A balanced refinement star that is exact in floating point.

    Indices are paired at random and each pair (i, j) gets the block
    [[0, e], [e, 0]] with e = +-1, which has eigenvalues +1 and -1: the
    star is real symmetric, squares to the identity and has trace 0,
    like the Hodge star on 2-forms.  Returns the dense matrix plus
    (partner, sign) so the benchmark applies it without BLAS.
    """
    perm = rng.permutation(dim)
    left, right = perm[0::2], perm[1::2]
    signs = rng.choice((-1.0, 1.0), dim // 2)
    partner = np.empty(dim, dtype=np.intp)
    sign = np.empty(dim)
    partner[left], partner[right] = right, left
    sign[left], sign[right] = signs, signs
    dense = np.zeros((dim, dim), dtype=np.complex128)
    dense[np.arange(dim), partner] = sign
    return dense, partner, sign


def vacuum_residuals(b, partner, sign, q) -> dict:
    """Independent check of a vacuum solution q of input b, relative to ||b||.

    q must be self-adjoint, commute with the star, be star-trace free and
    keep Re tau(b).
    """
    d = b.shape[0]
    star_q = sign[:, None] * q[partner]          # star @ q
    q_star = q[:, partner] * sign[partner]       # q @ star
    scale = max(1.0, float(np.linalg.norm(b)))
    return {
        "self_adjoint": float(np.linalg.norm(q - q.conj().T)) / scale,
        "commutes": float(np.linalg.norm(star_q - q_star)) / scale,
        "star_trace": abs(complex(np.trace(q_star))) / d / scale,
        "trace_gap": abs(np.trace(q).real - np.trace(b).real) / d / scale,
    }


def _vacuum_failures(verdict, residuals, solves) -> list:
    out = [Failure(verdict, "other", f"{k} residual {v:.2e}")
           for k, v in residuals.items() if not v <= TOL]
    if not solves:
        out.append(Failure(verdict, "other", "program reports no vacuum solution"))
    return out


def _envelope(text: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) and "results" in payload else None


def call_cli(argv):
    """hodgekit.cli.main in-process: (exit code, envelope or None, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, _envelope(out.getvalue()), err.getvalue().strip()


def check_manifold(verdict, rc, env, err, name, params) -> list:
    """A wrong verdict at curvature >= 1e4 is the absolute-tolerance defect
    5c; anywhere else it is unexpected."""
    einstein_, lam = manifold_expectation(name, params)
    large = curvature_scale(name, params) >= 1e4
    if env is None:
        defect = "weyl_trace_tol" if large and "traceless" in err else "other"
        return [Failure(verdict, defect, f"exit {rc}: {err}")]
    res = env["results"]
    defect = "5c" if large else "other"
    out = []
    if res.get("is_einstein") != einstein_:
        out.append(Failure(verdict, defect, f"is_einstein {res.get('is_einstein')}"))
    if lam is not None and not abs(res.get("lambda", np.nan) - lam) <= 1e-12 * max(1.0, lam):
        out.append(Failure(verdict, defect, f"lambda {res.get('lambda')} != {lam}"))
    if rc != 0 or env.get("pass") is not True:
        out.append(Failure(verdict, defect,
                           f"exit {rc}, flow_residual {res.get('flow_residual')}"))
    return out


def check_states(verdict, rc, env, err, expected: bool) -> list:
    if env is None:
        return [Failure(verdict, "other", f"exit {rc}: {err}")]
    res = env["results"]
    out = []
    if res.get("expected_stationary") != expected:
        out.append(Failure(verdict, "5a", f"program expects stationary="
                                          f"{res.get('expected_stationary')}"))
    if res.get("stationary") != expected:
        out.append(Failure(verdict, "5b" if expected else "other",
                           f"stationary={res.get('stationary')}, max derivative "
                           f"{res.get('max_derivative')}"))
    if (rc != 0 or env.get("pass") is not True) and not out:
        out.append(Failure(verdict, "other", f"exit {rc}"))
    return out


# ---------------------------------------------------------------------------
# 2-forms on the 4-torus: basis (e12, e13, e14, e23, e24, e34).
# ---------------------------------------------------------------------------

SD_BASIS = ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, -1, 0), (0, 0, 1, 1, 0, 0))
ASD_BASIS = ((1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 1, 0), (0, 0, 1, -1, 0, 0))


def _class_form(rng, cls: str) -> np.ndarray:
    """An integer 2-form of the class: SD, ASD, mixed (both parts) or zero."""
    def part(basis):
        coeffs = rng.choice((-1, 1), 3) * (rng.permutation(3) < rng.integers(1, 3))
        return np.asarray(basis).T @ coeffs
    if cls == "SD":
        return part(SD_BASIS)
    if cls == "ASD":
        return part(ASD_BASIS)
    if cls == "mixed":
        return part(SD_BASIS) + part(ASD_BASIS)
    return np.zeros(6, dtype=int)


def expected_stationary(sigma_cls: str, omega_cls: str) -> bool:
    """F is flow-invariant for every A exactly when eta and omega lie in the
    same star eigenspace, or one of them is zero (eta has sigma's class)."""
    if "zero" in (sigma_cls, omega_cls):
        return True
    return sigma_cls == omega_cls and sigma_cls in ("SD", "ASD")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class CliQuick:
    """`python -m hodgekit <sub>` as a child process, one after another.

    Every subcommand does under 10 ms of work, so start-up dominates each
    op alike.  Scales stay near 1: this workload measures start-up, and
    the defects are exercised by flow_verdicts.
    """

    name = "cli_quick"
    POOL = 4            # distinct value sets per cycle position
    GNS_ALGEBRA = ((2, 0.5), (2, 0.3), (1, 0.2))
    CLIFFORD_M = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.ops = []
        for p in range(self.POOL):
            self.ops.extend(self._cycle(rng, p))
        self.cycle = len(self.ops) // self.POOL

    def _cycle(self, rng, p):
        mid = lambda: round(_loguniform(rng, 0.5, 2.0), 6)  # noqa: E731
        ops = [(["constants"], self._check_constants)]
        r = mid()
        ops.append((["manifold", "s4", "--params", _fmt(r)], self._manifold("s4", (r,))))
        ops.append((["manifold", "t4_flat"], self._manifold("t4_flat", ())))
        r1 = mid()
        r2 = r1 * float(rng.choice((1.0, 2.0)))
        ops.append((["manifold", "s2xs2", "--params", f"{_fmt(r1)},{_fmt(r2)}"],
                    self._manifold("s2xs2", (r1, r2))))
        lam = mid()
        ops.append((["manifold", "cp2", "--params", _fmt(lam)], self._manifold("cp2", (lam,))))
        name = str(rng.choice(("s4", "cp2", "s2xs2", "t4_flat")))
        params = {"s4": (mid(),), "cp2": (mid(),), "t4_flat": ()}.get(name)
        if params is None:
            a = mid()
            params = (a, a * float(rng.choice((1.0, 2.0))))
        ops.append((["dynamics", "--manifold", name, "--params", ",".join(map(_fmt, params))],
                    self._dynamics(name, params)))
        r = int(rng.integers(0, self.CLIFFORD_M + 1))
        seed = str(int(rng.integers(1 << 30)))
        ops.append((["clifford", f"{r},{self.CLIFFORD_M - r}", "--seed", seed],
                    self._check_clifford))
        ops.append(self._gns(rng, p))
        ops.append(self._solve(rng, p))
        return ops

    def _gns(self, rng, p):
        ranks = [int(rng.integers(0, k + 1)) for k, _ in self.GNS_ALGEBRA]
        ranks[0] = self.GNS_ALGEBRA[0][0]  # positive total mass
        dens = [density_block(rng, k, r) for (k, _), r in zip(self.GNS_ALGEBRA, ranks)]
        path = os.path.join(self.workdir, f"gns_state_{p}.json")
        with open(path, "w") as fh:
            json.dump({"densities": [linalg.matrix_to_dict(d) for d in dens]}, fh)
        gamma = sum(w for (k, w), r in zip(self.GNS_ALGEBRA, ranks) if r == k)
        algebra = ",".join(f"{k}:{w}" for k, w in self.GNS_ALGEBRA)
        argv = ["gns", "--algebra", algebra, "--state", path,
                "--seed", str(int(rng.integers(1 << 30)))]

        def check(rc, env, err):
            out = _passed("gns", rc, env, err)
            if env and not abs(env["results"]["gamma"] - gamma) <= 1e-12:
                out.append(Failure("gns", "other", f"gamma {env['results']['gamma']} != {gamma}"))
            return out
        return argv, check

    def _solve(self, rng, p):
        star, partner, sign = signed_pairing_star(rng, 6)
        b = linalg.random_matrix(rng, 6, _loguniform(rng, 0.5, 2.0))
        b_path = os.path.join(self.workdir, f"solve_input_{p}.json")
        s_path = os.path.join(self.workdir, f"solve_star_{p}.json")
        linalg.save_matrix(b_path, b)
        linalg.save_matrix(s_path, star)
        b = linalg.load_matrix(b_path)  # the values the child reads

        def check(rc, env, err):
            out = _passed("solve-einstein", rc, env, err)
            if env:
                q = linalg.matrix_from_dict(env["results"]["solution"])
                out += _vacuum_failures("solve-einstein",
                                        vacuum_residuals(b, partner, sign, q), True)
            return out
        return ["solve-einstein", "--input", b_path, "--star", s_path], check

    @staticmethod
    def _check_constants(rc, env, err):
        out = _passed("constants", rc, env, err)
        if env:
            res = env["results"]
            if res["temperature_over_planck"] != 0.5 or not abs(
                    res["temperature_kelvin"] / FORMAL_TEMPERATURE_K - 1.0) <= 1e-12:
                out.append(Failure("constants", "other",
                                   f"temperature {res['temperature_kelvin']}"))
        return out

    @staticmethod
    def _manifold(name, params):
        return lambda rc, env, err: check_manifold("manifold", rc, env, err, name, params)

    @staticmethod
    def _dynamics(name, params):
        einstein_, _ = manifold_expectation(name, params)

        def check(rc, env, err):
            out = _passed("dynamics", rc, env, err)
            if env and env["results"]["fixed"] != einstein_:
                out.append(Failure("dynamics", "other", f"fixed {env['results']['fixed']}"))
            return out
        return check

    def _check_clifford(self, rc, env, err):
        out = _passed("clifford", rc, env, err)
        if env:
            res = env["results"]
            span = 2 ** self.CLIFFORD_M
            if res["span_dim"] != span or res["span_m_plus_2"] != 4 * span \
                    or res["periodicity_factor"] != 4:
                out.append(Failure("clifford", "other", f"span {res['span_dim']}"))
        return out

    def op(self, i, span=nullspan):
        argv, check = self.ops[i % len(self.ops)]
        with span("cli.process"):
            proc = subprocess.run([sys.executable, "-m", "hodgekit", *argv],
                                  capture_output=True, text=True, cwd=self.workdir,
                                  timeout=120)
        return check(proc.returncode, _envelope(proc.stdout), proc.stderr.strip())


def _passed(verdict, rc, env, err) -> list:
    if env is None or rc != 0 or env.get("pass") is not True:
        return [Failure(verdict, "other", f"exit {rc}: {err}")]
    return []


def density_block(rng, k: int, rank: int) -> np.ndarray:
    """Hermitian PSD block of the given rank, eigenvalues in [0.5, 1.5]."""
    if rank == 0:
        return np.zeros((k, k), dtype=np.complex128)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v = q[:, :rank]
    return (v * rng.uniform(0.5, 1.5, rank)) @ v.conj().T


class CliffordLadder:
    """The work of `hodgekit clifford r,s` at r + s = 8, in-process.

    Over 90 % of an op is the span Gram matrix at m = 10 inside the
    periodicity check; the other layers are idle.
    """

    name = "clifford_ladder"
    M = 8
    POOL = 16
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        d = 2 ** ((self.M + 1) // 2)
        self.inputs = [
            (int(rng.integers(0, self.M + 1)),
             (rng.integers(-9, 10, (d, d))
              + 1j * rng.integers(-9, 10, (d, d))).astype(np.complex128))
            for _ in range(self.POOL)
        ]

    @staticmethod
    def gram_macs(m: int) -> int:
        """Multiply-adds of the dense span Gram matrix at m generators."""
        return (2 ** m) ** 2 * 4 ** ((m + 1) // 2)

    @classmethod
    def span_gram_macs(cls) -> int:
        # span_dimension at m, then at m and m + 2 inside verify_periodicity.
        return 2 * cls.gram_macs(cls.M) + cls.gram_macs(cls.M + 2)

    def op(self, i, span=nullspan):
        r, sample = self.inputs[i % self.POOL]
        sig = clifford.QuadraticSignature(r, self.M - r)
        tower = clifford.build_generators(sig)
        rel = clifford.relation_residual(tower)
        span_dim = clifford.span_dimension(tower)
        base = linalg.normalized_trace(sample)
        trace_res = max(abs(linalg.normalized_trace(clifford.embed_up(sample, lv)) - base)
                        for lv in (1, 2, 3))
        period = clifford.verify_periodicity(sig)
        want = 2 ** self.M
        out = []
        if not rel <= TOL:
            out.append(Failure("clifford", "other", f"relation residual {rel:.2e}"))
        if span_dim != want or period["span_m"] != want:
            out.append(Failure("clifford", "other", f"span {span_dim} != {want}"))
        if period["span_m_plus_2"] != 4 * want or period["factor"] != 4:
            out.append(Failure("clifford", "other", f"periodicity factor {period['factor']}"))
        if trace_res != 0.0:
            out.append(Failure("clifford", "other", f"trace residual {trace_res:.2e}"))
        return out


class GnsMixed:
    """The work of `hodgekit gns` on 6:0.4,4:0.3,3:0.2,2:0.1, in-process.

    Densities are seeded but the rank pattern is fixed (full, 2, full,
    zero), so every op runs both the null-ideal/J path and the faithful
    rho loop at equal cost, and gamma = 0.4 + 0.2.
    """

    name = "gns_mixed"
    SUMMANDS = ((6, 0.4), (4, 0.3), (3, 0.2), (2, 0.1))
    RANKS = (6, 2, 3, 0)
    POOL = 8
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.densities = [
            [density_block(rng, k, r) for (k, _), r in zip(self.SUMMANDS, self.RANKS)]
            for _ in range(self.POOL)
        ]
        full = [r == k for (k, _), r in zip(self.SUMMANDS, self.RANKS)]
        self.gamma = sum(w for (_, w), f in zip(self.SUMMANDS, full) if f)
        # Null ideal of a block with support P is M_k (1 - P): k (k - rank).
        self.ideal_dim = sum(k * (k - r) for (k, _), r in zip(self.SUMMANDS, self.RANKS))
        # rho kills exactly the blocks where the density is not faithful.
        self.rho_kernel_dim = sum(k * k for (k, _), f in zip(self.SUMMANDS, full) if not f)

    @classmethod
    def total_dim(cls) -> int:
        return sum(k * k for k, _ in cls.SUMMANDS)

    def op(self, i, span=nullspan):
        alg = gns.FiniteAlgebra(self.SUMMANDS)
        state = gns.make_state(alg, self.densities[i % self.POOL])
        rep = gns.gns_representation(state)
        rng = np.random.default_rng([self.seed, 4, i])
        unit = float(np.linalg.norm(rep.represent(alg.identity()) - np.eye(rep.perp_dim)))
        mult = star = 0.0
        for _ in range(5):
            x, y = alg.random_element(rng), alg.random_element(rng)
            rx, ry = rep.represent(x), rep.represent(y)
            mult = max(mult, float(np.linalg.norm(rep.represent(alg.mul(x, y)) - rx @ ry)))
            star = max(star, float(np.linalg.norm(rep.represent(alg.adj(x)) - rx.conj().T)))
        ideal_res = gns.left_ideal_residual(state, rep.ideal, rng)
        out = []
        if not abs(rep.gamma - self.gamma) <= 1e-12:
            out.append(Failure("gns", "other", f"gamma {rep.gamma} != {self.gamma}"))
        if rep.ideal_dim != self.ideal_dim or rep.rho_kernel_dim != self.rho_kernel_dim:
            out.append(Failure("gns", "other", f"ideal dim {rep.ideal_dim}, rho kernel "
                                               f"{rep.rho_kernel_dim}"))
        for label, value in (("unit", unit), ("mult", mult), ("star", star),
                             ("left ideal", ideal_res)):
            if not value <= TOL:
                out.append(Failure("gns", "other", f"{label} residual {value:.2e}"))
        return out


# One cycle of flow_verdicts: the (sigma class, omega class) grid, with
# SD/SD at both pairing scales in place of the mixed/mixed cell.
# Pairing scale "low" puts omega at 2 pi i x [0.5, 1] x an integer form,
# "high" at 2 pi i x [100, 200] x one.  The manifold cells pair each
# exemplar with a curvature band; the failing ones sit on ops whose
# states verdict passes, so the defects stay apart.  The comments name
# the defect each cell shows on the current code.
FLOW_CYCLE = (
    (("SD", "SD", "high"), ("cp2", "large")),          # 5b
    (("SD", "ASD", "low"), ("s4", "small")),           # 5c
    (("SD", "mixed", "high"), ("cp2", "cp2_small")),
    (("SD", "zero", "low"), ("s2xs2", "small")),       # 5c or weyl_trace_tol
    (("ASD", "SD", "high"), ("s2xs2", "large")),
    (("ASD", "ASD", "low"), ("s2xs2", "large_skew")),  # 5a
    (("ASD", "mixed", "low"), ("t4_flat", "")),
    (("ASD", "zero", "high"), ("s4", "large")),        # 5a
    (("mixed", "SD", "low"), ("cp2", "large")),
    (("mixed", "ASD", "high"), ("s4", "small")),       # 5c
    (("SD", "SD", "low"), ("cp2", "cp2_small")),
    (("mixed", "zero", "high"), ("s4", "large")),      # 5a
    (("zero", "SD", "high"), ("s2xs2", "small")),      # 5c or weyl_trace_tol
    (("zero", "ASD", "low"), ("s2xs2", "large")),      # 5a
    (("zero", "mixed", "high"), ("s2xs2", "large_skew")),  # 5a
    (("zero", "zero", "low"), ("t4_flat", "")),
)

# Radius (s4, s2xs2) or lam (cp2) bands.  At radius 1e-4..2e-4 the
# absolute tolerances fail s4 and s2xs2 on every value; near 5e-4 about
# 1 value in 500 passes by luck of rounding, which would make ok_share
# depend on the seed.  cp2 stays at lam 8e-4..1e-3, where it passes on
# every value, for the same reason: near lam 5e-4 its Weyl trace gate
# fails on a random third of values.
SCALE_BANDS = {"small": (1e-4, 2e-4), "cp2_small": (8e-4, 1e-3),
               "large": (1e3, 1.25e3), "large_skew": (1e3, 1.25e3)}
PAIRING_BANDS = {"low": (0.5, 1.0), "high": (100.0, 200.0)}


class FlowVerdicts:
    """Three verdicts per op: `states` and `manifold` through
    hodgekit.cli.main in-process, and a vacuum solve-and-check at d = 256.

    One op makes about 1,400 Schur exponentials of 6x6 matrices; the
    d = 256 solve loads the same linalg layer with large BLAS-bound
    matrices instead.
    """

    name = "flow_verdicts"
    cycle = len(FLOW_CYCLE)
    POOL = 2 * len(FLOW_CYCLE)
    VACUUM_DIM = 256
    VACUUM_POOL = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 5])
        self.inputs = []
        for p in range(self.POOL):
            (s_cls, o_cls, band), (name, scale) = FLOW_CYCLE[p % self.cycle]
            sigma = _class_form(rng, s_cls)
            omega = TWO_PI_I * _loguniform(rng, *PAIRING_BANDS[band]) * _class_form(rng, o_cls)
            path = os.path.join(workdir, f"omega_{p}.json")
            linalg.save_vector(path, omega)
            states_argv = ["states", "--sigma=" + ",".join(str(int(c)) for c in sigma),
                           "--omega", path, "--seed", str(int(rng.integers(1 << 30)))]
            params = ()
            if scale:
                r = _loguniform(rng, *SCALE_BANDS[scale])
                r2 = 2 * r if scale == "large_skew" else r
                params = {"s4": (r,), "cp2": (r,), "s2xs2": (r, r2)}[name]
            manifold_argv = ["manifold", name] + (
                ["--params", ",".join(map(_fmt, params))] if params else [])
            self.inputs.append((states_argv, expected_stationary(s_cls, o_cls),
                                manifold_argv, name, params))
        self.vacuum = []
        for _ in range(self.VACUUM_POOL):
            star, partner, sign = signed_pairing_star(rng, self.VACUUM_DIM)
            b = linalg.random_matrix(rng, self.VACUUM_DIM, _loguniform(rng, 0.5, 2.0))
            self.vacuum.append((b, star, partner, sign))

    def op(self, i, span=nullspan):
        states_argv, stationary, manifold_argv, name, params = self.inputs[i % self.POOL]
        out = check_states("states", *call_cli(states_argv), stationary)
        out += check_manifold("manifold", *call_cli(manifold_argv), name, params)
        b, star, partner, sign = self.vacuum[i % self.VACUUM_POOL]
        ref = einstein.make_refinement(star)
        q = einstein.solve_einstein_vacuum(b, ref)
        report = einstein.check_einstein_vacuum(q, ref)
        out += _vacuum_failures("vacuum", vacuum_residuals(b, partner, sign, q), report.solves)
        return out


WORKLOADS = {w.name: w for w in (CliQuick, CliffordLadder, GnsMixed, FlowVerdicts)}
