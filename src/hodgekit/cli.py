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
import functools
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
            raise ValueError(f"algebra summand must look like dim:weight, got {part!r}") from exc
    return gnsmod.FiniteAlgebra(tuple(summands))


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (inputs, results, ok) for `main` to write;
# `states` adds its own tolerances.
# ---------------------------------------------------------------------------


@functools.cache
def _flow(*, split: bool) -> dyn.HodgeGenerator:
    """The split-star or standard-star flow, built on first use and then shared: at import
    it would cost every process, `constants` too, the pages its numpy calls touch."""
    return dyn.hodge_generator(make_refinement(cv.SPLIT_STAR if split else cv.STANDARD_STAR))


def _einstein_probe(r, tol):
    """The split-star flow, the fixed-point report of R under it, ||Ric0||, and
    whether the commutator and Ric0 tests agree, each gated relative to
    ||R||.  The flow residual is the commutator norm, so it adds no leg."""
    flow = _flow(split=True)
    fp = dyn.is_fixed_point(flow, r, tol)
    r0 = cv.ric0_norm(r)
    return flow, fp, r0, fp.fixed == within(r0, frobenius(r), tol)


def _cmd_manifold(args):
    model = cv.exemplar(args.name, *_parse_floats(args.params))
    tol = args.tol
    r = model.matrix
    scale = frobenius(r)
    flow, fp, r0, agree = _einstein_probe(r, tol)

    # The one-point quadrature tau_operator([(1.0, R)]), bit for bit: the
    # 0.0 + keeps its +0.0 accumulator, so an all -0.0 trace gives 0.
    tau = (0.0 + float(np.trace(r).real)) / 6.0
    bianchi = cv.bianchi_residual(r, flow.refinement.product)
    vacuum = check_einstein_vacuum(r, flow.refinement, tol)
    e = dyn.energy(flow, r)

    ok = agree and within(bianchi, scale, tol) and fp.fixed == model.expected_einstein
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
        "is_einstein": fp.fixed,
        "expected_einstein": model.expected_einstein,
        "einstein_tests_agree": agree,
        "vacuum_solves": vacuum.solves,
        "energy": e,
    }
    return {"name": model.name, "params": list(model.params)}, results, ok


def _cmd_clifford(args):
    r, s = _parse_ints(args.signature, 2)
    sig = cl.QuadraticSignature(r, s)
    # Before the tower, whose relation check costs m^2 and whose sqrt(dim) overflows.
    cl.check_span_bound(sig.m)
    tower = cl.build_generators(sig)

    rel = cl.relation_residual(tower)
    span = cl.span_dimension(tower)

    # Trace invariance up the tower, exact on integer-valued samples.  The
    # sample stops at 64 x 64: a full-size one at m = 60 would be 2^30 square.
    rng = np.random.default_rng(args.seed)
    d = min(tower.dim, 64)
    sample = (rng.integers(-9, 10, (d, d))
              + 1j * rng.integers(-9, 10, (d, d))).astype(np.complex128)
    trace_res = max(abs(normalized_trace(cl.embed_up(sample, lv)) - normalized_trace(sample))
                    for lv in (1, 2, 3))

    # Each generator is unitary, of Frobenius norm sqrt(dim).
    ok = within(rel, tower.dim ** 0.5, args.tol) and span == 2**sig.m and trace_res == 0.0
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
    return {"r": r, "s": s}, results, ok


def _cmd_solve_einstein(args):
    b = load_matrix(args.input)
    ref = make_refinement(load_matrix(args.star))
    tol = args.tol
    inputs = {"input": args.input, "star": args.star, "check_only": args.check_only}

    if args.check_only:
        report = check_einstein_vacuum(b, ref, tol)
        return inputs, report.as_dict(), report.solves

    q = solve_einstein_vacuum(b, ref)
    report = check_einstein_vacuum(q, ref, tol)
    trace_gap = abs(normalized_trace(q).real - normalized_trace(b).real)
    ok = report.solves and within(trace_gap, frobenius(b), tol)
    return inputs, {**report.as_dict(), "trace_gap": trace_gap, "solution": matrix_to_dict(q)}, ok


def _cmd_gns(args):
    alg = _parse_algebra(args.algebra)
    if args.state:
        with open(args.state) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload.get("densities"), list):
            raise ValueError("state file needs a 'densities' list of matrix objects")
        densities = [matrix_from_dict(m) for m in payload["densities"]]
    else:
        # Default: the trace phi = tau, faithful; np.eye first, so a huge k is a ValueError.
        densities = [np.eye(k) * (w / k) for k, w in alg.summands]
    state = gnsmod.make_state(alg, densities)
    rep = gnsmod.gns_representation(state)

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
    ideal_res = gnsmod.left_ideal_residual(state, rep.ideal)

    # Scale 1: the state has unit mass, the samples unit scale and gamma lies in [0, 1].
    ok = all(within(res, 1.0, args.tol)
             for res in (mult, star_res, unit_res, ideal_res, -rep.gamma, rep.gamma - 1.0))
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
    return {"algebra": args.algebra, "state": args.state}, results, ok


def _cmd_dynamics(args):
    model = cv.exemplar(args.manifold, *_parse_floats(args.params))
    _, fp, r0, agree = _einstein_probe(model.matrix, args.tol)
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
    return inputs, results, ok


def _cmd_states(args):
    sigma = st.TorusSurfaceClass(_parse_ints(args.sigma, 6))
    omega = load_vector(args.omega, length=6)

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
    base = st.stationarity_derivative(sigma, omega, _flow(split=False), samples)
    # The perturbed flow at sign -1 conjugates by star^(2t), so its probe is
    # twice the base one at doubled times; epsilon cancels, and at sign +1
    # each probe would return exactly its base value.
    perturbed = 2 * st.stationarity_derivative(sigma, omega, _flow(split=False), samples,
                                               [2 * t for t in st.DERIVATIVE_TIMES])

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
    stationary = within(pert, scale, STATIONARITY_TOL)
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
    return inputs, results, ok, {"stationarity": STATIONARITY_TOL, "stationarity_scale": scale}


def _cmd_constants(args):
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
    return {}, results, ok


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


_SEED = ("--seed", {"type": int, "default": 0,
                    "help": "seed for randomized residual sampling (default 0)"})
_PARAMS = ("--params", {"default": "", "help": "comma-separated parameters"})

# name: (handler, help, arguments), in --help order.  Besides the common
# --tol and --out, each entry lists only the arguments its handler reads.
SUBCOMMANDS = {
    "manifold": (_cmd_manifold, "curvature identities of a named exemplar",
                 [("name", {"choices": cv.EXEMPLARS}), _PARAMS]),
    "clifford": (_cmd_clifford, "generator relations and span dimensions",
                 [("signature", {"help": "signature r,s"}), _SEED]),
    "solve-einstein": (
        _cmd_solve_einstein, "solve (or just check) the vacuum condition",
        [("--input", {"required": True, "help": "matrix JSON file with the input operator"}),
         ("--star", {"required": True, "help": "matrix JSON file with the refinement star"}),
         ("--check-only", {"action": "store_true",
                           "help": "treat --input as a candidate solution and only verify it"})]),
    "gns": (_cmd_gns, "null ideal, induced representation and coupling gamma",
            [("--algebra", {"required": True, "help": "summands as dim:weight,dim:weight,..."}),
             ("--state", {"help": "JSON file {'densities': [matrix, ...]}; default is the trace"}),
             _SEED]),
    "dynamics": (_cmd_dynamics, "fixed-point test of the star flow on an exemplar",
                 [("--manifold", {"required": True, "choices": cv.EXEMPLARS}), _PARAMS]),
    "states": (_cmd_states, "stationarity of a surface-supported state functional",
               [("--sigma", {"required": True, "help": "six integer surface coefficients"}),
                ("--omega", {"required": True, "help": "vector JSON file with 6 form coefficients"}),
                _SEED]),
    "constants": (_cmd_constants, "thermal-time period and formal temperature", []),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="identity-check tolerance, relative to the operand "
                             f"norms (default {DEFAULT_TOL:g})")
    common.add_argument("--out", default=None,
                        help="write the report envelope to this file instead of stdout")

    parser = argparse.ArgumentParser(prog="hodgekit", description=(
        "Verify operator-algebra identities of curvature, star dynamics, "
        "Clifford towers and GNS representations."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _brief(text: str) -> str:
    """text with its middle cut out past 160 characters: an error line stays short."""
    return text if len(text) <= 160 else f"{text[:117]}...{text[-40:]}"


# Built by the first `main` call, not at import, and reused: parse_args keeps
# no state between calls, and building the parser costs about a millisecond.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if not 0.0 <= args.tol < np.inf:
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
        inputs, results, ok, *extra = SUBCOMMANDS[args.command][0](args)
        envelope = {"command": args.command, "inputs": inputs, "results": results,
                    "tolerances": {"identity": args.tol, **dict(*extra)}, "pass": bool(ok)}
        # Serialized in full before any write, so a non-finite float prints nothing.
        text = emit_json(envelope) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if ok else 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {_brief(str(exc))}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
