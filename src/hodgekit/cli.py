"""Batch verification CLI.

Every subcommand emits one JSON report envelope

    {"command": ..., "inputs": ..., "results": ..., "tolerances": ..., "pass": ...}

on stdout (or to --out).  Output is deterministic: field order is fixed
by construction and floats are printed with 17 significant digits, so
identical invocations produce byte-identical reports.  Exit status is 0
for a passing report, 1 when an identity check fails, 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import clifford as cl
from . import curvature as cv
from . import dynamics as dyn
from . import gns as gnsmod
from . import states as st
from .einstein import check_einstein_vacuum, make_refinement, solve_einstein_vacuum
from .linalg import (
    DEFAULT_TOL,
    STATIONARITY_TOL,
    frobenius,
    load_matrix,
    load_vector,
    matrix_from_dict,
    matrix_to_dict,
    normalized_trace,
    within,
)


# ---------------------------------------------------------------------------
# Deterministic JSON emission.
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    v = float(x)
    if not np.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    return format(v, ".17g")


def emit_json(obj) -> str:
    """Fixed-order, fixed-precision JSON; insertion order is kept."""
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"JSON keys must be strings, got {k!r}")
            parts.append(f"{json.dumps(k)}: {emit_json(v)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _write_report(args, command, inputs, results, tolerances, ok) -> int:
    envelope = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerances": tolerances,
        "pass": bool(ok),
    }
    text = emit_json(envelope) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing helpers.
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> tuple:
    if not text:
        return ()
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str, count: int | None = None) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} integers, got {len(vals)}")
    return vals


def _parse_algebra(text: str) -> gnsmod.FiniteAlgebra:
    summands = []
    for part in text.split(","):
        try:
            k_str, w_str = part.split(":")
            summands.append((int(k_str), float(w_str)))
        except ValueError as exc:
            raise ValueError(
                f"algebra summand must look like dim:weight, got {part!r}"
            ) from exc
    return gnsmod.FiniteAlgebra(tuple(summands))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _einstein_probe(r, tol):
    """The fixed-point report of R under the split-star flow, ||Ric0||, and
    whether the commutator and Ric0 tests agree, each gated relative to
    ||R||.  The flow residual is the commutator norm, so it adds no leg."""
    gen = dyn.hodge_generator(make_refinement(cv.SPLIT_STAR))
    fp = dyn.is_fixed_point(gen, r, tol)
    r0 = cv.ric0_norm(r)
    return gen, fp, r0, fp.fixed == within(r0, frobenius(r), tol)


def _cmd_manifold(args) -> int:
    model = cv.exemplar(args.name, *_parse_floats(args.params))
    tol = args.tol
    r = model.matrix
    scale = frobenius(r)
    gen, fp, r0, agree = _einstein_probe(r, tol)

    tau = cv.tau_operator([(1.0, r)])
    bianchi = cv.bianchi_residual(r)
    vacuum = check_einstein_vacuum(r, gen.refinement, tol)
    e = dyn.energy(gen, r)

    is_einstein = fp.fixed
    ok = agree and within(bianchi, scale, tol) and is_einstein == model.expected_einstein
    if model.expected_einstein:
        lam = model.expected_lambda
        ok = (ok and vacuum.solves and within(abs(3.0 * tau - lam), scale, tol)
              and within(abs(e - np.pi * lam / 6.0), scale, tol))

    results = {
        "scal": model.curvature.scal,
        "lambda": model.expected_lambda,
        "tau": tau,
        "bianchi_residual": bianchi,
        "ric0_norm": r0,
        "commutator_norm": fp.commutator_norm,
        "flow_residual": fp.flow_residual,
        "is_einstein": is_einstein,
        "expected_einstein": model.expected_einstein,
        "einstein_tests_agree": agree,
        "vacuum_solves": vacuum.solves,
        "energy": e,
    }
    inputs = {"name": model.name, "params": list(model.params)}
    return _write_report(args, "manifold", inputs, results, {"identity": tol}, ok)


def _cmd_clifford(args) -> int:
    r, s = _parse_ints(args.signature, 2)
    sig = cl.QuadraticSignature(r, s)
    # Before the tower, whose relation check costs m^2 and whose sqrt(dim) overflows.
    cl.check_span_bound(sig.m)
    tower = cl.build_generators(sig)
    tol = args.tol

    rel = cl.relation_residual(tower)
    span = cl.span_dimension(tower)

    # Trace invariance up the tower, exact on integer-valued samples.  The
    # sample stops at 64 x 64: a full-size one at m = 60 would be 2^30 square.
    rng = np.random.default_rng(args.seed)
    d = min(tower.dim, 64)
    sample = (rng.integers(-9, 10, (d, d))
              + 1j * rng.integers(-9, 10, (d, d))).astype(np.complex128)
    trace_res = max(
        abs(normalized_trace(cl.embed_up(sample, lv)) - normalized_trace(sample))
        for lv in (1, 2, 3)
    )

    # Each generator is unitary, of Frobenius norm sqrt(dim).
    ok = within(rel, tower.dim ** 0.5, tol) and span == 2**sig.m and trace_res == 0.0
    results = {
        "m": sig.m,
        "matrix_dim": tower.dim,
        "relation_residual": rel,
        "span_dim": span,
        "span_expected": 2**sig.m,
        "trace_invariance_residual": trace_res,
    }
    if sig.m % 2 == 0 and sig.m <= cl.MAX_PERIODICITY_GENERATORS:
        period = cl.verify_periodicity(sig)
        results["span_m_plus_2"] = period["span_m_plus_2"]
        results["periodicity_factor"] = period["factor"]
        results["periodic"] = period["periodic"]
        ok = ok and period["periodic"]
    inputs = {"r": r, "s": s}
    return _write_report(args, "clifford", inputs, results, {"identity": tol}, ok)


def _cmd_solve_einstein(args) -> int:
    b = load_matrix(args.input)
    star = load_matrix(args.star)
    ref = make_refinement(star)
    tol = args.tol

    if args.check_only:
        report = check_einstein_vacuum(b, ref, tol)
        results = report.as_dict()
        inputs = {"input": args.input, "star": args.star, "check_only": True}
        return _write_report(args, "solve-einstein", inputs, results,
                             {"identity": tol}, report.solves)

    q = solve_einstein_vacuum(b, ref)
    report = check_einstein_vacuum(q, ref, tol)
    trace_gap = abs(normalized_trace(q).real - normalized_trace(b).real)
    ok = report.solves and within(trace_gap, frobenius(b), tol)
    results = report.as_dict()
    results["trace_gap"] = trace_gap
    results["solution"] = matrix_to_dict(q)
    inputs = {"input": args.input, "star": args.star, "check_only": False}
    return _write_report(args, "solve-einstein", inputs, results, {"identity": tol}, ok)


def _cmd_gns(args) -> int:
    alg = _parse_algebra(args.algebra)
    if args.state:
        with open(args.state) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "densities" not in payload:
            raise ValueError("state file needs a 'densities' list of matrix objects")
        densities = [matrix_from_dict(m) for m in payload["densities"]]
    else:
        # Default: the trace itself, phi = tau, always faithful.
        densities = [w / k * np.eye(k) for k, w in alg.summands]
    state = gnsmod.make_state(alg, densities)
    rep = gnsmod.gns_representation(state)
    tol = args.tol

    rng = np.random.default_rng(args.seed)
    mult = star_res = unit_res = 0.0
    if rep.perp_dim:
        unit_res = frobenius(rep.represent(alg.identity()) - np.eye(rep.perp_dim))
        for _ in range(5):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            rx, ry = rep.represent(x), rep.represent(y)
            mult = max(mult, frobenius(rep.represent(alg.mul(x, y)) - rx @ ry))
            star_res = max(star_res, frobenius(rep.represent(alg.adj(x)) - rx.conj().T))
    ideal_res = gnsmod.left_ideal_residual(state, rep.ideal, rng)

    # Scale 1: the state has unit mass and the samples unit scale.
    ok = (0.0 <= rep.gamma <= 1.0
          and all(within(res, 1.0, tol) for res in (mult, star_res, unit_res, ideal_res)))
    results = {
        "total_dim": alg.total_dim,
        "ideal_dim": rep.ideal_dim,
        "j_dim": rep.j_dim,
        "perp_dim": rep.perp_dim,
        "per_summand_ranks": list(rep.per_summand_ranks),
        "gamma": rep.gamma,
        "rho_kernel_dim": rep.rho_kernel_dim,
        "faithful": rep.faithful,
        "rho_mult_residual": mult,
        "rho_star_residual": star_res,
        "rho_unit_residual": unit_res,
        "left_ideal_residual": ideal_res,
    }
    inputs = {"algebra": args.algebra, "state": args.state}
    return _write_report(args, "gns", inputs, results, {"identity": tol}, ok)


def _cmd_dynamics(args) -> int:
    model = cv.exemplar(args.manifold, *_parse_floats(args.params))
    tol = args.tol
    _, fp, r0, agree = _einstein_probe(model.matrix, tol)
    ok = agree and fp.fixed == model.expected_einstein
    results = {
        "commutator_norm": fp.commutator_norm,
        "flow_residual": fp.flow_residual,
        "ric0_norm": r0,
        "fixed": fp.fixed,
        "expected_einstein": model.expected_einstein,
        "einstein_agrees": agree,
    }
    inputs = {"manifold": model.name, "params": list(model.params), "check": "fixed-point"}
    return _write_report(args, "dynamics", inputs, results, {"identity": tol}, ok)


def _cmd_states(args) -> int:
    sigma = st.TorusSurfaceClass(_parse_ints(args.sigma, 6))
    omega = load_vector(args.omega, length=6)
    tol = args.tol

    gen = dyn.hodge_generator(make_refinement(cv.STANDARD_STAR))
    eta = st.poincare_dual(sigma)
    dual_sd, dual_asd = st.is_self_dual(eta), st.is_anti_self_dual(eta)
    omega_sd, omega_asd = st.is_self_dual(omega), st.is_anti_self_dual(omega)
    # F is flow-invariant for every A exactly when eta and omega share a
    # star eigenspace or one of them is zero; only zero is in both.
    expected_stationary = ((dual_sd and dual_asd) or (omega_sd and omega_asd)
                           or (dual_sd and omega_sd) or (dual_asd and omega_asd))

    # The values of 20 random_matrix(rng, 6) calls, in one draw.
    draws = np.random.default_rng(args.seed).standard_normal((20, 2, 6, 6))
    samples = (1.0 / np.sqrt(2.0)) * (draws[:, 0] + 1j * draws[:, 1])
    base = st.stationarity_derivative(sigma, omega, gen, samples)
    # One perturbed family: epsilon cancels from the probe, and at sign +1
    # each probe returns exactly its base value.
    perturbed = st.perturbed_stationarity(sigma, omega, dyn.perturbed_star(gen, 0.1, -1), samples)

    # F is bilinear in (eta, omega).
    scale = frobenius(eta) * frobenius(omega)
    pairing = st.homology_pairing(sigma, omega)
    for name, value in (("stationarity scale ||eta|| ||omega||", scale),
                        ("derivative of F(A) = (A omega, eta)", base),
                        ("derivative of F(A) = (A omega, eta) on the perturbed flow", perturbed),
                        ("homology pairing of sigma and omega", pairing)):
        if not np.isfinite(value):
            raise ValueError(f"{name} leaves the double range")
    pert = max(base, perturbed)
    stationary = (within(base, scale, STATIONARITY_TOL)
                  and within(pert, scale, STATIONARITY_TOL))
    ok = stationary == expected_stationary
    results = {
        "poincare_dual": [float(x) for x in eta],
        "dual_self_dual": dual_sd,
        "omega_self_dual": omega_sd,
        "dual_anti_self_dual": dual_asd,
        "omega_anti_self_dual": omega_asd,
        "max_derivative": base,
        "max_perturbed_derivative": pert,
        "stationary": stationary,
        "expected_stationary": expected_stationary,
        "homology_pairing": complex(pairing),
        "degenerate_pairing": st.pairing_is_degenerate(sigma, omega),
    }
    inputs = {"sigma": list(sigma.coefficients), "omega": args.omega, "check": "stationarity"}
    return _write_report(args, "states", inputs, results,
                         {"identity": tol, "stationarity": STATIONARITY_TOL,
                          "stationarity_scale": scale}, ok)


def _cmd_constants(args) -> int:
    ft = dyn.formal_temperature()
    ratio_gap = abs(ft.temperature_over_planck - 0.5)
    period_gap = abs(ft.period_seconds - 2.0 * dyn.PLANCK_TIME_S)
    ok = within(ratio_gap, 0.5, args.tol) and period_gap == 0.0
    results = {
        "period_seconds": ft.period_seconds,
        "temperature_kelvin": ft.temperature_kelvin,
        "temperature_over_planck": ft.temperature_over_planck,
        "ratio_gap": ratio_gap,
    }
    return _write_report(args, "constants", {}, results, {"identity": args.tol}, ok)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="identity-check tolerance, relative to the operand "
                             f"norms (default {DEFAULT_TOL:g})")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized residual sampling (default 0)")
    common.add_argument("--out", default=None,
                        help="write the report envelope to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="hodgekit",
        description="Verify operator-algebra identities of curvature, star dynamics, "
                    "Clifford towers and GNS representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manifold", parents=[common],
                       help="curvature identities of a named exemplar")
    p.add_argument("name", choices=["s4", "t4_flat", "s2xs2", "cp2"])
    p.add_argument("--params", default="", help="comma-separated parameters")
    p.set_defaults(func=_cmd_manifold)

    p = sub.add_parser("clifford", parents=[common],
                       help="generator relations and span dimensions")
    p.add_argument("signature", help="signature r,s")
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("solve-einstein", parents=[common],
                       help="solve (or just check) the vacuum condition")
    p.add_argument("--input", required=True, help="matrix JSON file with the input operator")
    p.add_argument("--star", required=True, help="matrix JSON file with the refinement star")
    p.add_argument("--check-only", action="store_true",
                   help="treat --input as a candidate solution and only verify it")
    p.set_defaults(func=_cmd_solve_einstein)

    p = sub.add_parser("gns", parents=[common],
                       help="null ideal, induced representation and coupling gamma")
    p.add_argument("--algebra", required=True, help="summands as dim:weight,dim:weight,...")
    p.add_argument("--state", default=None,
                   help="JSON file {'densities': [matrix, ...]}; default is the trace")
    p.set_defaults(func=_cmd_gns)

    p = sub.add_parser("dynamics", parents=[common],
                       help="fixed-point test of the star flow on an exemplar")
    p.add_argument("--manifold", required=True, choices=["s4", "t4_flat", "s2xs2", "cp2"])
    p.add_argument("--params", default="", help="comma-separated parameters")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("states", parents=[common],
                       help="stationarity of a surface-supported state functional")
    p.add_argument("--sigma", required=True, help="six integer surface coefficients")
    p.add_argument("--omega", required=True, help="vector JSON file with 6 form coefficients")
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("constants", parents=[common],
                       help="thermal-time period and formal temperature")
    p.set_defaults(func=_cmd_constants)

    return parser


# Built by the first `main` call, not at import, and reused: parse_args keeps
# no state between calls, and building the parser costs about a millisecond.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
