"""Einstein verdicts do not depend on units or on the frame.

Block data is drawn over the whole 20-dimensional space of algebraic
curvature operators: scal (1), W+ (5), W- (5) and Ric0 (9).  An
orientation-preserving frame change acts on the 2-forms through a pair
(A, B) in SO(3) x SO(3), sending (W+, W-, Ric0) to (A W+ A^T, B W- B^T,
A Ric0 B^T), and the whole operator is then scaled by 10^k.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodgekit import cli
from hodgekit import curvature as cv
from hodgekit import dynamics as dyn
from hodgekit import linalg
from hodgekit.einstein import make_refinement

from envelope_grid import CLASSES, FORMS
from gns_oracle import density_block

GEN = dyn.hodge_generator(make_refinement(cv.SPLIT_STAR))

unit = st.floats(-1.0, 1.0)


def _traceless(p):
    a, b, c, d, e = p
    return np.array([[a, b, c], [b, d, e], [c, e, -a - d]])


@st.composite
def rotations(draw):
    """A rotation from a unit quaternion."""
    q = np.array(draw(st.tuples(unit, unit, unit, unit)))
    assume(np.linalg.norm(q) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def curvature_operators(draw):
    """(R, einstein): Ric0 is exactly zero or at least 1e-6 ||R||."""
    scal = draw(unit)
    wp = _traceless(draw(st.tuples(*[unit] * 5)))
    wm = _traceless(draw(st.tuples(*[unit] * 5)))
    einstein = draw(st.booleans())
    ric0 = np.zeros((3, 3)) if einstein else np.array(draw(st.lists(unit, min_size=9,
                                                                    max_size=9))).reshape(3, 3)
    a, b = draw(rotations()), draw(rotations())
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    op = cv.CurvatureOperator(scale * scal, scale * (a @ wp @ a.T), scale * (b @ wm @ b.T),
                              scale * (a @ ric0 @ b.T))
    r = cv.assemble_curvature(op)
    if not einstein:
        assume(linalg.frobenius(op.ric0) >= 1e-6 * linalg.frobenius(r))
    return r, einstein


@settings(max_examples=300, deadline=None)
@given(curvature_operators())
def test_einstein_probes_agree_at_every_scale_and_frame(drawn):
    r, einstein = drawn
    scale = linalg.frobenius(r)
    fp = dyn.is_fixed_point(GEN, r)
    assert fp.fixed == einstein
    assert bool(linalg.within(cv.ric0_norm(r), scale)) == einstein
    assert bool(linalg.within(fp.flow_residual, scale)) == einstein
    assert linalg.within(cv.bianchi_residual(r), scale)


def _verdict(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0, argv
    res = json.loads(out.getvalue())["results"]
    return {k: res[k] for k in ("is_einstein", "fixed", "einstein_tests_agree",
                                "einstein_agrees", "vacuum_solves") if k in res}


EXEMPLARS = (("s4", lambda r: [r]), ("cp2", lambda r: [r]),
             ("s2xs2", lambda r: [r, r]), ("s2xs2", lambda r: [r, 2.0 * r]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXEMPLARS), st.floats(-6.0, 6.0))
def test_cli_verdicts_do_not_depend_on_the_radius(exemplar, log_radius):
    name, params = exemplar
    text = ",".join(repr(p) for p in params(10.0 ** log_radius))
    unit_text = ",".join(repr(p) for p in params(1.0))
    for argv in (["manifold", name, "--params"], ["dynamics", "--manifold", name, "--params"]):
        assert _verdict(argv + [text]) == _verdict(argv + [unit_text])


def _power_of_ten_scan(argv):
    """Exit codes of argv + [name, --params] at every power of ten from
    1e-170 to 1e170, on the four exemplars: a passing envelope whose
    flow_residual is its commutator_norm, or exit 2 naming the parameter.
    Never a failed verdict, a traceback or a floating-point warning."""
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(-170, 171):
            r = 10.0 ** e
            for name, params in EXEMPLARS:
                text = ",".join(repr(p) for p in params(r))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main([*argv, name, "--params", text])
                if rc == 0:
                    payload = json.loads(out.getvalue())
                    assert payload["pass"] is True, text
                    res = payload["results"]
                    assert res["flow_residual"] == res["commutator_norm"], (name, text)
                else:
                    assert rc == 2, (name, text)
                    assert any(f"parameter {p!r} has no finite nonzero curvature" in err.getvalue()
                               for p in params(r)), (name, text)
                outcomes.append(rc)
    return outcomes


def test_manifold_verdicts_at_every_power_of_ten():
    outcomes = _power_of_ten_scan(["manifold"])
    assert len(outcomes) == 1364
    assert outcomes.count(0) == 1264


def test_dynamics_verdicts_at_every_power_of_ten():
    outcomes = _power_of_ten_scan(["dynamics", "--manifold"])
    assert len(outcomes) == 1364
    assert outcomes.count(0) == 1264


def test_states_verdicts_across_the_double_range(tmp_path):
    # The SD/ASD/mixed/zero grid of surface classes and forms, with the form
    # scaled by 10^k for k = -300, -290, ..., 300: stationary exactly when
    # both are in one eigenspace or one is zero, with a clean stderr.
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(-300, 301, 10):
            for o_cls, form in FORMS.items():
                path = tmp_path / f"omega_{o_cls}_{e}.json"
                linalg.save_vector(path, 10.0 ** e * np.array(form))
                for s_cls, sigma in CLASSES.items():
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(["states", "--sigma", ",".join(map(str, sigma)),
                                       "--omega", str(path)])
                    payload = json.loads(out.getvalue())
                    res = payload["results"]
                    assert (rc, payload["pass"], err.getvalue()) == (0, True, ""), (s_cls, o_cls, e)
                    assert res["stationary"] == res["expected_stationary"] == (
                        "zero" in (s_cls, o_cls) or s_cls == o_cls != "mixed"), (s_cls, o_cls, e)
                    seen += 1
    assert seen == 976


def _gns_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert err.getvalue() == "", (argv, err.getvalue())
    res = json.loads(out.getvalue())["results"]
    return rc, {k: v for k, v in res.items() if k == "gamma" or isinstance(v, (bool, int, list))}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.floats(-8.0, 0.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=4),
       st.floats(-300.0, 300.0), st.integers(0, 2**32 - 1))
def test_gns_verdicts_do_not_depend_on_the_scale_of_the_densities(blocks, log_scale, seed):
    # Each block is (k, log10 of its raw weight, share of full rank); ranks
    # may be 0 or k.  The densities of both runs differ by 10^log_scale only.
    ranks = [round(share * k) for k, _, share in blocks]
    assume(any(ranks))
    total = sum(10.0 ** w for _, w, _ in blocks)
    algebra = ",".join(f"{k}:{10.0 ** w / total!r}" for k, w, _ in blocks)
    rng = np.random.default_rng(seed)
    densities = [density_block(rng, k, r) for (k, _, _), r in zip(blocks, ranks)]
    with tempfile.TemporaryDirectory() as work:
        runs = []
        for scale in (1.0, 10.0 ** log_scale):
            path = os.path.join(work, f"state_{scale!r}.json")
            with open(path, "w") as fh:
                json.dump({"densities": [linalg.matrix_to_dict(scale * d) for d in densities]}, fh)
            runs.append(_gns_run(["gns", "--algebra", algebra, "--state", path, "--seed", "3"]))
    assert runs[0] == runs[1]
