"""Run a fixed grid of CLI inputs and compare the envelopes of two trees.

    python tests/envelope_grid.py --src SRC_DIR --out grid.json
    python tests/envelope_grid.py --compare parent.json change.json

The first form imports hodgekit from SRC_DIR and calls `cli.main` in
process on 222 argvs:

- `constants`;
- `manifold` and `dynamics` on s4, t4_flat, cp2 and s2xs2 at unit and
  extreme radii;
- `clifford` at every signature with 1 <= r+s <= 9, plus 6,6 and 30,30,
  and 2100,0 beyond the span bound;
- `states` on the SD/ASD/mixed/zero grid of surface classes and forms,
  at form scales 1, 150, 1e-10, 1e-300 and 1e300, on two inputs whose
  stationarity scale or perturbed derivative leaves the doubles, and on
  a surface class whose coefficient 10^400 does;
- `solve-einstein` on three random inputs at scales 0.1, 1 and 100,
  under the split and the standard star, on a d = 64 input under a signed
  pairing star and a rotated dense star, on B = 0 and an anti-Hermitian B
  with signed zeros under the pairing star, and on two inputs beyond the
  doubles, each with and without --check-only;
- `solve-einstein` under the signed-permutation stars that the gates
  reject: 1, -1, a 3-cycle, a pair of opposite signs and an unbalanced one;
- `gns` on five trace-state algebras at seeds 0 and 5, plus four states
  of random block rank, two rank-deficient states whose null ideal sees a
  large block (64:1) or a light one (weight 1e-5), one state at
  subnormal scales 1e-310 and 1e-320, two rank-deficient blocks beside a
  zero block, 3:0.5,3:0.5 at ranks (1, 0), the default trace state with
  no --state, and a state on the single block 1:1.

Input files are written to a scratch directory under fixed relative
names, so envelopes that echo a path compare equal across trees.  Each
argv's exit code, stdout and stderr (numpy warnings included) are
stored.  The second form lists every argv whose exit code or stderr
differs, and every envelope key that differs, and exits 1 if any does.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings

import numpy as np

CLASSES = {"SD": (1, 2, -1, -1, -2, 1), "ASD": (1, -1, 2, -2, -1, -1),
           "mixed": (1, 0, 0, 0, 0, 0), "zero": (0, 0, 0, 0, 0, 0)}
FORMS = {"SD": (1, 2j, 0.5, 0.5, -2j, 1), "ASD": (0.3, 1, -1j, 1j, 1, -0.3),
         "mixed": (1, 0.2, -0.7j, 0.4, 0, 2), "zero": (0, 0, 0, 0, 0, 0)}
STARS = {"split": np.diag([1.0, 1, 1, -1, -1, -1]),
         "standard": np.fliplr(np.diag([1.0, -1, 1, 1, -1, 1]))}
TRACE_ALGEBRAS = ("1:1", "2:1", "2:0.5,3:0.5", "4:0.25,4:0.75", "6:0.4,4:0.3,3:0.2,2:0.1")
RANDOM_RANK_ALGEBRA = ((6, 0.4), (4, 0.3), (3, 0.2), (2, 0.1))


def _pairs(a):
    return [[float(z.real), float(z.imag)] for z in np.ravel(np.asarray(a, dtype=complex))]


def _write(name, obj):
    with open(name, "w") as fh:
        json.dump(obj, fh)
    return name


def _matrix(a):
    return {"dim": int(np.shape(a)[0]), "entries": _pairs(a)}


def _density(rng, k, rank):
    if rank == 0:
        return np.zeros((k, k))
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return (q[:, :rank] * rng.uniform(0.5, 1.5, rank)) @ q[:, :rank].conj().T


def grid():
    """The argvs, writing their input files into the current directory."""
    argvs = [["constants"]]
    exemplars = ([("s4", p) for p in ("0.5", "1", "3", "1e-4", "1e5")] + [("t4_flat", "")]
                 + [("cp2", p) for p in ("0.7", "1", "1e-3", "1e4")]
                 + [("s2xs2", p) for p in ("1,1", "1,2", "0.3,0.3", "1e-4,2e-4", "1e5,1e5")])
    for name, p in exemplars:
        params = ["--params", p] if p else []
        argvs.append(["manifold", name, *params])
        argvs.append(["dynamics", "--manifold", name, *params])
    argvs += [["clifford", f"{r},{m - r}"] for m in range(1, 10) for r in range(m + 1)]
    argvs += [["clifford", "6,6"], ["clifford", "30,30"]]
    for scale in (1.0, 150.0, 1e-10, 1e-300, 1e300):
        for sigma in CLASSES.values():
            for o_cls, form in FORMS.items():
                path = _write(f"omega_{o_cls}_{scale:g}.json",
                              {"coefficients": _pairs(scale * np.array(form))})
                argvs.append(["states", "--sigma", ",".join(map(str, sigma)), "--omega", path])
    rng = np.random.default_rng(2024)
    for star_name, star in STARS.items():
        _write(f"star_{star_name}.json", _matrix(star))
    for scale in (0.1, 1.0, 100.0):
        b = scale * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        path = _write(f"input_{scale:g}.json", _matrix(b))
        for star_name in STARS:
            for check in ([], ["--check-only"]):
                argvs.append(["solve-einstein", "--input", path,
                              "--star", f"star_{star_name}.json", *check])
    argvs += _vacuum_grid() + _edge_grid()
    argvs += [["gns", "--algebra", alg, "--seed", seed]
              for alg in TRACE_ALGEBRAS for seed in ("0", "5")]
    text = ",".join(f"{k}:{w}" for k, w in RANDOM_RANK_ALGEBRA)
    for i in range(4):
        blocks = [_density(rng, k, int(rng.integers(0, k + 1))) for k, _ in RANDOM_RANK_ALGEBRA]
        path = _write(f"state_{i}.json", {"densities": [_matrix(d) for d in blocks]})
        argvs.append(["gns", "--algebra", text, "--state", path])
    v = np.random.default_rng(3).standard_normal((16, 15))
    rank3 = _density(np.random.default_rng(4), 4, 3)
    for name, alg, blocks in (("k64", "64:1", [np.diag([1.0] * 63 + [64e-12])]),
                              ("light", "16:1e-5,16:0.99999", [v @ v.T, np.eye(16)]),
                              *((f"subnormal_{scale!r}", "4:0.5,2:0.5",
                                 [scale * rank3, scale * np.eye(2)]) for scale in (1e-310, 1e-320))):
        path = _write(f"state_{name}.json", {"densities": [_matrix(d) for d in blocks]})
        argvs.append(["gns", "--algebra", alg, "--state", path])
    return argvs + _gns_grid()


def _gns_grid():
    """gns on two rank-deficient blocks beside a zero block, on 3:0.5,3:0.5
    at ranks (1, 0), on the default trace state, and on the single block 1:1.
    Its own generator leaves the draws of the other inputs unchanged."""
    rng = np.random.default_rng(20)
    argvs = []
    for name, alg, ranks in (("deficient", "4:0.4,3:0.35,2:0.25", (2, 1, 0)),
                             ("halves", "3:0.5,3:0.5", (1, 0)), ("single", "1:1", (1,))):
        dims = [int(term.split(":")[0]) for term in alg.split(",")]
        blocks = [_density(rng, k, r) for k, r in zip(dims, ranks)]
        path = _write(f"state_{name}.json", {"densities": [_matrix(d) for d in blocks]})
        argvs.append(["gns", "--algebra", alg, "--state", path])
    return argvs + [["gns", "--algebra", "5:0.6,1:0.4"]]


def _vacuum_grid():
    """solve-einstein at d = 64 under a signed pairing star and a rotated
    dense star, and on two 6x6 inputs beyond the doubles: 1e308 times a
    random matrix of largest entry 1, and 1e308 entries with one -1e308.
    Its own generator leaves the draws of the other inputs unchanged."""
    rng = np.random.default_rng(64)
    d = 64
    pairing = np.zeros((d, d))
    perm = rng.permutation(d)
    pairing[perm[0::2], perm[1::2]] = pairing[perm[1::2], perm[0::2]] = rng.choice((-1.0, 1.0), d // 2)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rotated = (q * np.repeat([1.0, -1.0], d // 2)) @ q.conj().T
    rotated = 0.5 * (rotated + rotated.conj().T)
    _write("star_pairing_64.json", _matrix(pairing))
    _write("star_rotated_64.json", _matrix(rotated))
    _write("input_64.json", _matrix(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    _write("input_1e308.json", _matrix(1e308 * (g / np.abs(g).max())))
    big = np.full((6, 6), 1e308)
    big[0, 1] = -1e308
    _write("input_overflow.json", _matrix(big))
    runs = [("input_64.json", "star_pairing_64.json"), ("input_64.json", "star_rotated_64.json"),
            ("input_1e308.json", "star_split.json"), ("input_overflow.json", "star_split.json")]
    return [["solve-einstein", "--input", path, "--star", star, *check]
            for path, star in runs for check in ([], ["--check-only"])]


def _edge_grid():
    """solve-einstein on B = 0 and an anti-Hermitian B under the d = 64 pairing
    star, with a random sign on each zero part; under the signed-permutation
    stars each gate rejects; states where a number leaves the doubles; and
    clifford beyond the span bound.  Its own generator leaves the draws of
    the other inputs unchanged."""
    rng = np.random.default_rng(22)
    d = 64
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    argvs = []
    for name, b in (("zero", np.zeros((d, d), dtype=complex)), ("antiherm", g - g.conj().T)):
        for part in (b.real, b.imag):
            zero = part == 0
            part[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
        path = _write(f"input_{name}_64.json", _matrix(b))
        argvs += [["solve-einstein", "--input", path, "--star", "star_pairing_64.json", *check]
                  for check in ([], ["--check-only"])]
    for k in (2, 4):
        _write(f"input_{k}.json", _matrix(rng.standard_normal((k, k))))
    cycle = np.array([[0.0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    for name, star in (("identity", np.eye(4)), ("minus_identity", -np.eye(4)), ("cycle", cycle),
                       ("opposite_pair", np.array([[0.0, 1], [-1, 0]])),
                       ("unbalanced", np.diag([1.0, 1, 1, -1]))):
        path = _write(f"star_{name}.json", _matrix(star))
        argvs.append(["solve-einstein", "--input", f"input_{len(star)}.json", "--star", path])
    beyond = "1" + "0" * 400 + ",0,0,0,0,0"
    for sigma, scale in (("1,0,0,0,0,1", 1e308), ("1,0,0,0,0,-1", 1e307), (beyond, 1.0)):
        path = _write(f"omega_beyond_{scale:g}.json",
                      {"coefficients": _pairs(scale * np.array([1.0, 0, 0, 0, 0, 1]))})
        argvs.append(["states", "--sigma", sigma, "--omega", path])
    return argvs + [["clifford", "2100,0"]]


def run(src):
    sys.path.insert(0, os.path.abspath(src))
    from hodgekit import cli

    records = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv in grid():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except Exception:
                    code = None
                    traceback.print_exc()
            records.append({"argv": argv, "code": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def _differing_keys(a, b):
    """Envelope keys (results keys one level down) whose values differ."""
    try:
        ea, eb = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return ["stdout"]
    keys = []
    for top in dict.fromkeys([*ea, *eb]):
        va, vb = ea.get(top), eb.get(top)
        if isinstance(va, dict) and isinstance(vb, dict):
            keys += [f"{top}.{k}: {va.get(k)!r} -> {vb.get(k)!r}"
                     for k in dict.fromkeys([*va, *vb]) if va.get(k) != vb.get(k)]
        elif va != vb:
            keys.append(f"{top}: {va!r} -> {vb!r}")
    return keys


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = {json.dumps(r["argv"]): r for r in json.load(fh)}
    with open(path_b) as fh:
        b = {json.dumps(r["argv"]): r for r in json.load(fh)}
    differing = 0
    for argv in dict.fromkeys([*a, *b]):
        ra, rb = a.get(argv), b.get(argv)
        if ra is None or rb is None:
            print(f"{argv}: only in {path_a if rb is None else path_b}")
            differing += 1
            continue
        lines = []
        if ra["code"] != rb["code"]:
            lines.append(f"exit code: {ra['code']} -> {rb['code']}")
        if ra["stderr"] != rb["stderr"]:
            lines.append(f"stderr: {ra['stderr']!r} -> {rb['stderr']!r}")
        if ra["stdout"] != rb["stdout"]:
            lines += _differing_keys(ra["stdout"], rb["stdout"]) or ["stdout bytes"]
        if lines:
            differing += 1
            print(argv)
            for line in lines:
                print("   ", line)
    print(f"{len(a)} inputs, {differing} differ")
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory that holds the hodgekit package")
    parser.add_argument("--out", help="file to write the grid's records to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two record files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.src and args.out):
        parser.error("give --src and --out, or --compare A B")
    out = os.path.abspath(args.out)
    records = run(args.src)
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} inputs, {sum(r['code'] == 0 for r in records)} exit 0, wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
