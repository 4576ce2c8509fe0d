"""One verdict rule: linalg holds every tolerance, and gates are relative.

The guard parses each module of the package and fails on a tolerance
decided outside `hodgekit.linalg`: a module-level name ending in `_TOL`,
or a positive float literal below 1e-6 in code (docstrings hold no float
nodes, so they are never flagged).  The CODATA constants in
`hodgekit.dynamics` are the only small literals that are not tolerances.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hodgekit
from hodgekit import cli, linalg

SOURCES = sorted(Path(hodgekit.__file__).parent.glob("*.py"))
PHYSICAL_CONSTANTS = {"HBAR_JS", "BOLTZMANN_J_PER_K", "PLANCK_TIME_S"}


def _tolerance_decisions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    exempt = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                found.append(f"{path.name}:{node.lineno} defines {target.id}")
            if isinstance(target, ast.Name) and target.id in PHYSICAL_CONSTANTS:
                exempt.add(id(node.value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-6 and id(node) not in exempt):
            found.append(f"{path.name}:{node.lineno} uses the literal {node.value!r}")
    return found


def test_sources_are_found():
    assert {"linalg.py", "cli.py", "curvature.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_tolerance_is_decided_outside_linalg(path):
    assert _tolerance_decisions(path) == []


def test_linalg_holds_the_three_tolerances():
    names = sorted(n for n in vars(linalg) if n.endswith("_TOL"))
    assert names == ["DEFAULT_TOL", "INPUT_TOL", "STATIONARITY_TOL"]
    assert (linalg.DEFAULT_TOL, linalg.INPUT_TOL, linalg.STATIONARITY_TOL) == (1e-10, 1e-12, 1e-8)


def test_guard_flags_a_local_tolerance(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('"""Docstring 1e-12."""\n_SOME_TOL = 1e-3\nPLANCK_TIME_S = 5e-44\n'
                    'EPS = 1e-30\n\ndef f(x):\n    return x < -1e-12\n')
    assert _tolerance_decisions(path) == ["mod.py:2 defines _SOME_TOL",
                                          "mod.py:4 uses the literal 1e-30",
                                          "mod.py:7 uses the literal 1e-12"]


def test_cli_tolerance_default_reads_the_rule():
    args = cli.build_parser().parse_args(["constants"])
    assert args.tol == linalg.DEFAULT_TOL
    assert cli.STATIONARITY_TOL is linalg.STATIONARITY_TOL


def test_within_is_relative_and_exact_at_zero():
    assert linalg.within(1e-11, 1.0)
    assert not linalg.within(1e-9, 1.0)
    assert linalg.within(1e-3, 1e8)
    assert not linalg.within(1e-3, 1e6)
    # A zero operand needs an exactly zero residual.
    assert linalg.within(0.0, 0.0)
    assert not linalg.within(5e-324, 0.0)
    assert linalg.within(0.5, 1.0, tol=0.5)
    np.testing.assert_array_equal(linalg.within(np.array([0.0, 1e-10, 1e-9]), 1.0),
                                  [True, True, False])


def _takes_tol(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.stem}.{node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "tol" in {a.arg for a in node.args.posonlyargs + node.args.args
                          + node.args.kwonlyargs}}


def test_only_the_cli_tolerance_path_takes_a_tol():
    # The CLI's --tol reaches the identity gates through these four; every
    # other gate uses the constant that linalg fixes for it.
    found = set().union(*map(_takes_tol, SOURCES))
    assert found == {"linalg.within", "dynamics.is_fixed_point",
                     "einstein.check_einstein_vacuum", "cli._einstein_probe"}
