"""Benchmark worker: one process driving one workload as a single client.

run.py starts it with BLAS pinned to one thread and hodgekit's source
on the path.  Protocol, one line each way:

    worker -> READY          after ``import hodgekit`` and input generation
    parent -> exit | run <seconds> <trace> <quick>
    worker -> one JSON object with the measurements

The untraced run records each op's latency and failures.  The traced
run alternates each input untraced and traced, then profiles the other
workloads' ops, the size ladder, the import cost and cli.main, so that
every layer metric is measured in every traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

WARMUP_OPS = 2
QUICK_OPS = 3
PROFILE_OPS = 3


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_block() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibrate(reps: int = 5) -> float:
    """A fixed numpy kernel that does not touch hodgekit: separates
    machine drift from a change in the program."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    times = []
    for _ in range(reps):
        t = perf_counter()
        for _ in range(6):
            h = a @ a.conj().T
            np.linalg.eigvalsh(h)
        times.append(perf_counter() - t)
    return statistics.median(times)


def run_op(wl, i, span=None):
    """One op; any exception is a failed op, recorded with its message."""
    from workloads import Failure, nullspan
    try:
        return wl.op(i, span or nullspan)
    except Exception as exc:  # the loop must keep running; the op counts as failed
        return [Failure("op", "other", f"{type(exc).__name__}: {exc}")]


def _failure_rows(failures):
    return [[list(f) for f in fs] for fs in failures]


def _done(wl, i, start, seconds, quick) -> bool:
    """Quick mode stops after QUICK_OPS ops; a timed run measures whole
    cycles for at least ``seconds``."""
    if quick:
        return i >= QUICK_OPS
    return i % wl.cycle == 0 and perf_counter() - start >= seconds


def measure(wl, seconds: float, quick: bool) -> dict:
    """Closed loop over whole cycles for at least ``seconds``."""
    for i in range(WARMUP_OPS):
        run_op(wl, i)
    latencies, failures = [], []
    start = perf_counter()
    i = 0
    while True:
        t = perf_counter()
        failures.append(run_op(wl, i))
        latencies.append(perf_counter() - t)
        i += 1
        if _done(wl, i, start, seconds, quick):
            break
    return {"latencies": latencies, "wall_s": perf_counter() - start,
            "failures": _failure_rows(failures)}


def measure_traced(wl, seed: int, seconds: float, quick: bool, workdir: str) -> dict:
    import ladder
    import tracing
    from workloads import CliffordLadder, CliQuick, FlowVerdicts, GnsMixed

    tracer = tracing.Tracer()
    untraced, traced, failures, tables, coverage = [], [], [], [], []
    for i in range(WARMUP_OPS):
        run_op(wl, i)
    start = perf_counter()
    i = 0
    while True:
        t = perf_counter()
        failures.append(run_op(wl, i))
        untraced.append(perf_counter() - t)
        first = len(tracer.spans)
        with tracer.installed():
            tracer.op = (wl.name, i)
            with tracer.span("op"):
                failures.append(run_op(wl, i, tracer.span))
        op_span = tracer.spans[first]
        traced.append(op_span[2] - op_span[1])
        table, cov = tracer.per_op(first)
        tables.append(table)
        coverage.append(cov)
        i += 1
        if _done(wl, i, start, seconds, quick):
            break

    # A few traced ops of every other in-process workload, so that each
    # layer's spans are measured in every traced run.
    for other in (CliffordLadder, GnsMixed, FlowVerdicts):
        if other.name == wl.name:
            continue
        owl = other(seed, workdir)
        run_op(owl, 0)
        for j in range(1 if quick else PROFILE_OPS):
            first = len(tracer.spans)
            with tracer.installed():
                tracer.op = (owl.name, j)
                with tracer.span("op"):
                    failures.append(run_op(owl, j))
            tables.append(tracer.per_op(first)[0])

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = tracing.median_per_op(tables, name, 0)
    for name in ("clifford.build_generators", "clifford.relation_residual",
                 "clifford.span_dimension", "clifford.embed_up", "gns.make_state",
                 "gns.gns_null_ideal", "gns.represent", "gns.left_ideal_residual",
                 "einstein.make_refinement", "einstein.solve_einstein_vacuum",
                 "einstein.check_einstein_vacuum", "curvature.exemplar"):
        metrics[f"{name}.s"] = tracing.median_per_op(tables, name, 1)
    for name in ("clifford.verify_periodicity", "gns.gns_representation",
                 "dynamics.is_fixed_point", "states.stationarity_derivative",
                 "states.perturbed_stationarity"):
        metrics[f"{name}.self_s"] = tracing.median_per_op(tables, name, 2)
    for name in ("linalg.expm_normal", "dynamics.star_power", "dynamics.perturbed_power"):
        per_call = [t[name][1] / t[name][0] for t in tables if name in t]
        metrics[f"{name}.call_s"] = statistics.median(per_call) if per_call else 0.0
    metrics["clifford.span_gram_macs"] = float(CliffordLadder.span_gram_macs())
    metrics["gns.gram_entries"] = metrics["gns.gns_null_ideal.calls"] * GnsMixed.total_dim() ** 2
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace_coverage"] = statistics.median(coverage)

    ladder_metrics, problems = ladder.size_ladder(seed)
    metrics.update(ladder_metrics)
    metrics.update(ladder.import_costs(1 if quick else 3))
    cli_wl = wl if isinstance(wl, CliQuick) else CliQuick(seed, workdir)
    argvs = [argv for argv, _ in cli_wl.ops[:cli_wl.cycle]]
    metrics["cli.main_s"] = ladder.cli_main_cost(argvs, 1 if quick else 3)
    return {"latencies": traced,
            "failures": _failure_rows(failures), "layer_metrics": metrics,
            "ladder_problems": problems, "spans": len(tracer.spans)}


def peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="hodgekit source directory to import")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import hodgekit
    src = os.path.realpath(args.src)
    if not os.path.realpath(hodgekit.__file__).startswith(src + os.sep):
        print(f"hodgekit imported from {hodgekit.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import KNOWN_DEFECTS, WORKLOADS

    os.makedirs(args.workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.workdir)
        print("READY", flush=True)
        command = sys.stdin.readline().split()
        if not command or command[0] != "run":
            return 0
        seconds, trace, quick = float(command[1]), command[2] == "1", command[3] == "1"
        if trace:
            result = measure_traced(wl, args.seed, seconds, quick, args.workdir)
        else:
            result = measure(wl, seconds, quick)
        result["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_quick")
        result["calib_s"] = calibrate()
        result["env"] = env_block()
        result["known_defects"] = KNOWN_DEFECTS
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
