"""Layer probes of the traced run that are not ops of a workload.

- the size ladder: each kernel timed once per size, with its result
  beside the time and checked against the closed form, so a kernel that
  got faster but wrong shows in the same record;
- the import cost of hodgekit and of scipy.linalg inside it, each in a
  fresh interpreter;
- hodgekit.cli.main in-process, once per subcommand of the cli_quick
  cycle.

Points that take more than about 2 s today are left out (span at
m = 12: 28 s; GNS at k = 16: 12 s).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from hodgekit import clifford, einstein, gns, linalg
from workloads import TOL, density_block, call_cli, signed_pairing_star, vacuum_residuals

SPAN_M = (6, 8, 10)
RELATION_M = (12, 14, 16)
GNS_K = (4, 6, 8, 10)
VACUUM_D = (64, 256, 1024)


def _signature(m):
    return clifford.QuadraticSignature(m // 2, m - m // 2)


def _timed(fn, *args):
    t = perf_counter()
    value = fn(*args)
    return perf_counter() - t, value


def size_ladder(seed: int):
    """Returns ({metric: value}, [problems])."""
    rng = np.random.default_rng([seed, 6])
    metrics, problems = {}, []

    def record(key, seconds, result_name, result, ok):
        metrics[f"{key}.s"] = seconds
        metrics[f"{key}.{result_name}"] = float(result)
        if not ok:
            problems.append(f"{key}: {result_name} {result}")

    for m in SPAN_M:
        tower = clifford.build_generators(_signature(m))
        sec, span = _timed(clifford.span_dimension, tower)
        record(f"ladder.span_dimension.m{m}", sec, "span", span, span == 2 ** m)
    for m in RELATION_M:
        tower = clifford.build_generators(_signature(m))
        sec, res = _timed(clifford.relation_residual, tower)
        record(f"ladder.relation_residual.m{m}", sec, "residual", res, res <= TOL)
    for k in GNS_K:
        alg = gns.FiniteAlgebra(((k, 1.0),))
        for label, rank, gamma in (("faithful", k, 1.0), ("rank_k-1", k - 1, 0.0)):
            state = gns.make_state(alg, [density_block(rng, k, rank)])
            sec, rep = _timed(gns.gns_representation, state)
            record(f"ladder.gns_representation.k{k}.{label}", sec, "gamma", rep.gamma,
                   abs(rep.gamma - gamma) <= 1e-12)
    for d in VACUUM_D:
        star, partner, sign = signed_pairing_star(rng, d)
        b = linalg.random_matrix(rng, d)
        ref = einstein.make_refinement(star)
        sec, q = _timed(einstein.solve_einstein_vacuum, b, ref)
        worst = max(vacuum_residuals(b, partner, sign, q).values())
        record(f"ladder.solve_einstein_vacuum.d{d}", sec, "residual", worst, worst <= TOL)
    return metrics, problems


IMPORT_HODGEKIT = ("import time; t = time.perf_counter(); import hodgekit; "
                   "print(time.perf_counter() - t)")


def _scipy_linalg_share(stderr: str) -> float:
    """Cumulative seconds of scipy.linalg in an ``-X importtime`` log of
    ``import hodgekit``; 0 when hodgekit no longer imports it."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
            return int(parts[1]) * 1e-6
    return 0.0


def import_costs(reps: int = 3) -> dict:
    """Median import cost of hodgekit, and of scipy.linalg within it, in
    fresh interpreters (environment and path inherited from the worker)."""
    plain, scipy_share = [], []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", IMPORT_HODGEKIT], capture_output=True,
                             text=True, check=True, timeout=60)
        plain.append(float(out.stdout))
        log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hodgekit"],
                             capture_output=True, text=True, check=True, timeout=60)
        scipy_share.append(_scipy_linalg_share(log.stderr))
    return {"cli.import_hodgekit_s": statistics.median(plain),
            "cli.import_scipy_linalg_s": statistics.median(scipy_share)}


def cli_main_cost(argvs, rounds: int = 3) -> float:
    """Median over rounds of the mean in-process hodgekit.cli.main time per
    subcommand; the child-process checks of cli_quick cover the verdicts."""
    means = []
    for _ in range(rounds):
        t = perf_counter()
        for argv in argvs:
            call_cli(argv)
        means.append((perf_counter() - t) / len(argvs))
    return statistics.median(means)
