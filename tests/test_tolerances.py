"""The tolerance policy: every numerical decision reads a named value.

Library-wide tolerances are defined once, in ``mheight/tolerances.py``;
thresholds local to one module are named at its top level.  A bare float
literal inside a function body that is tiny (``0 < |x| <= 1e-3``) or huge
(``|x| >= 1e6``) is an unnamed tolerance or cap, and fails the guard.
"""

import ast
from pathlib import Path

import pytest

import mheight
from mheight import exact_mheight, from_columns, is_mds, tolerances

_SRC = Path(mheight.__file__).resolve().parent
_MODULES = sorted(_SRC.glob("*.py"))
_NAMES = [name for name in vars(tolerances) if name.isupper()]


def _bare_tolerances(source: str) -> list[tuple[int, float]]:
    """``(line, value)`` of each tiny or huge float literal in a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in fn.body:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Constant) and type(node.value) is float
                            and (0 < abs(node.value) <= 1e-3 or abs(node.value) >= 1e6)):
                        found.add((node.lineno, node.value))
    return sorted(found)


def test_guard_flags_bare_literals():
    source = ("def f(x):\n    return x > 1e-12 and (lambda y: y < -2e6)(x)\n"
              "LIMIT = 1e-9\n"
              "def g(x):\n    return x * 0.5 > LIMIT\n")
    assert _bare_tolerances(source) == [(2, 1e-12), (2, 2e6)]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_bare_tolerance_literals(path):
    assert _bare_tolerances(path.read_text()) == []


def test_policy_names():
    assert _NAMES == ["RANK_TOL", "FEAS_TOL", "NEAR_TOL", "TIE_TOL",
                      "ROUNDOFF_SLACK", "HEIGHT_SLACK"]


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "tolerances.py"],
                         ids=lambda p: p.name)
def test_policy_names_defined_only_in_tolerances(path):
    tree = ast.parse(path.read_text())
    assigned = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not assigned & set(_NAMES)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("eps,finite", [
    (1e-6, True), (1e-8, True), (2e-9, True), (5e-10, False), (1e-12, False)])
def test_near_parallel_sweep(eps, finite, scale):
    # The unit columns (1, 0) and ~(1, eps) span a |det| of about eps, so
    # RANK_TOL = 1e-9 is where the huge but finite m=1 height, 2/eps at
    # x = (-eps/2, 1), becomes inf and the code stops being MDS, at any scale.
    g = from_columns([[scale, 0.0], [scale, scale * eps], [0.0, scale]])
    height = exact_mheight(g, 1)
    assert is_mds(g) is finite
    assert height.infinite is not finite
    if finite:
        assert height.value == pytest.approx(2.0 / eps, rel=1e-9)
