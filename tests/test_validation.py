"""One validation path: every count goes through ``_check_count``, every
exponent p through ``_check_p`` and every tolerance through ``_check_tol``;
one quadrature rule, ``_tanh_sinh``; and one theta recursion, ``_thetas``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from nodal import bubbles as bb
from nodal import constants as cn
from nodal import radial_ode as rd
from nodal import verify as vf

_SRC = Path(cn.__file__).resolve().parent


def _plane():
    """A whole-plane solve with four regions, memoized after the first call."""
    return rd.solve_whole_plane(100.0, 0.0, 4)


def _prefetch(workers):
    # the key is memoized first, so no accepted worker count forks a pool
    _plane()
    return rd.prefetch_solutions([(100.0, 0.0, 4)], workers=workers)


def _rescaled(i):
    # sigma_3 lies inside the last nodal annulus of the four-region disc at p = 100
    grid = np.array([bb.bubble_spec(3).sigma_i_alpha])
    return rd.rescaled_profile(rd.dirichlet_solution(_plane(), 4), i, grid)


#: every public entry that takes a count, called with that count n
_COUNT_ENTRIES = {
    "theta_sequence": cn.theta_sequence,
    "constant_table": cn.constant_table,
    "m0_product_formula": cn.m0_product_formula,
    "m0_sequence": cn.m0_sequence,
    "m0_over_sqrt_m": cn.m0_over_sqrt_m,
    "neumann_constants": cn.neumann_constants,
    "whole_plane_limits": cn.whole_plane_limits,
    "whole_plane_limits_suite": cn.whole_plane_limits_suite,
    "energy_limit": lambda n: cn.energy_limit(n, 0.0, "dirichlet"),
    "gamma_alpha_m": lambda n: cn.gamma_alpha_m(0.0, n),
    "theta_bounds_check": cn.theta_bounds_check,
    "theta_bounds_suite": cn.theta_bounds_suite,
    "m0_bounds_check": cn.m0_bounds_check,
    "m0_bounds_suite": cn.m0_bounds_suite,
    "sup_norm_bounds": cn.sup_norm_bounds,
    "sup_norm_bounds_suite": cn.sup_norm_bounds_suite,
    "morse_conjecture": cn.morse_conjecture,
    "bubble_morse": cn.bubble_morse,
    "bubble_spec": bb.bubble_spec,
    "solve_whole_plane": lambda n: rd.solve_whole_plane(100.0, 0.0, n),
    "prefetch_solutions": _prefetch,
    "dirichlet_solution": lambda n: rd.dirichlet_solution(_plane(), n),
    "neumann_solution": lambda n: rd.neumann_solution(_plane(), n),
    "rescaled_profile": _rescaled,
    "convergence_report": lambda n: vf.convergence_report(n, 0.0, "dirichlet", [100.0, 200.0]),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, math.nan, math.inf],
                         ids=["2.5", "3.0", "True", "nan", "inf"])
@pytest.mark.parametrize("entry", list(_COUNT_ENTRIES))
def test_count_must_be_an_integer(entry, value):
    with pytest.raises(ValueError, match=f"^{entry}: .* must be an integer \\(got "):
        _COUNT_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", list(_COUNT_ENTRIES))
def test_numpy_integer_count_accepted(entry):
    _COUNT_ENTRIES[entry](np.int64(3))


def test_rejected_count_leaves_the_memo_unchanged():
    keys = set(rd._CACHE)
    with pytest.raises(ValueError, match="^solve_whole_plane: m_max must be an integer"):
        rd.solve_whole_plane(100.0, 0.0, 2.5)
    assert set(rd._CACHE) == keys


@pytest.mark.parametrize("call, message", [
    (lambda: cn._check_count("f", "m", 0, 1), "f: m must be >= 1 (got 0)"),
    (lambda: cn._check_count("f", "m", 5, 1, 4), "f: m=5 out of range 1..4"),
    (lambda: cn._check_count("f", "m", np.int64(-2), 0), "f: m must be >= 0 (got -2)"),
    (lambda: cn._check_count("f", "m", np.True_, 0), "f: m must be an integer (got np.True_)"),
    (lambda: cn._check_p("f", math.nan), "f: p must be finite and > 1 (got nan)"),
    (lambda: cn._check_p("f", 1.0), "f: p must be finite and > 1 (got 1.0)"),
    (lambda: cn._check_p("f", math.inf), "f: p must be finite and > 1 (got inf)"),
    (lambda: cn._check_tol("f", math.nan), "f: tol must be in (0, 1) (got nan)"),
    (lambda: cn._check_tol("f", 0.0), "f: tol must be in (0, 1) (got 0.0)"),
    (lambda: cn._check_tol("f", 1.0), "f: tol must be in (0, 1) (got 1.0)"),
    (lambda: cn._check_tol("f", -math.inf), "f: tol must be in (0, 1) (got -inf)"),
    (lambda: rd.solve_whole_plane(100.0, 0.0, 1, 2.0),
     "prefetch_solutions: tol must be in (0, 1) (got 2.0)"),
])
def test_rule_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _is_value_error(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
            and isinstance(stmt.exc.func, ast.Name) and stmt.exc.func.id == "ValueError")


def _message(call: ast.Call) -> str:
    """The literal text of a ``ValueError(...)`` message, f-string parts included."""
    return "".join(node.value for arg in call.args for node in ast.walk(arg)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def _orders_against_int(test: ast.expr) -> bool:
    """Whether ``test`` orders a value against an integer literal, as ``m < 1`` does."""
    return any(isinstance(node, ast.Compare)
               and all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
               and any(type(x) is ast.Constant and type(x.value) is int
                       for x in (node.left, *node.comparators))
               for node in ast.walk(test))


def _hand_written_checks() -> list[tuple[str, str, int, str]]:
    """``(file, function, line, rule)`` of each ``if ...: raise ValueError(...)`` in
    the package that does a rule's work outside it: a count ordered against an
    integer bound with the count rule's words, or a test on the name ``p`` or
    ``tol``."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.If):
                    continue
                for stmt in filter(_is_value_error, node.body):
                    text = _message(stmt.exc)
                    if (func.name != "_check_count" and _orders_against_int(node.test)
                            and ("must be >=" in text or "out of range" in text)):
                        found.append((path.name, func.name, node.lineno, "count"))
                    for name, rule in (("p", "_check_p"), ("tol", "_check_tol")):
                        if func.name != rule and any(isinstance(n, ast.Name) and n.id == name
                                                     for n in ast.walk(node.test)):
                            found.append((path.name, func.name, node.lineno, name))
    return found


def test_counts_and_exponents_have_one_rule_each():
    assert _hand_written_checks() == []


#: the p -> infinity half of the package, which runs without SciPy
_SCIPY_FREE = {"bubbles.py", "constants.py", "specfun.py"}


def _scipy_quadratures() -> list[tuple[str, int, str]]:
    """``(file, line, module)`` of each import in the package that brings in a
    SciPy quadrature routine, or any ``scipy`` module into ``_SCIPY_FREE``;
    ``bubbles._tanh_sinh`` is the package's one quadrature rule."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if modules[0] == "scipy.integrate" and any(
                        alias.name in {"quad", "quad_vec", "tanhsinh"} for alias in node.names):
                    found.append((path.name, node.lineno, modules[0]))
            else:
                continue
            if path.name in _SCIPY_FREE:
                found += [(path.name, node.lineno, m) for m in modules
                          if m == "scipy" or m.startswith("scipy.")]
    return found


def test_one_quadrature_rule():
    assert _scipy_quadratures() == []


def _theta_steps_outside_thetas() -> list[tuple[str, int]]:
    """``(file, line)`` of each reference to ``_theta_step`` in the package outside
    ``constants._thetas``, the one place the theta recursion runs."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for func in ast.walk(tree)
                  if path.name == "constants.py" and isinstance(func, ast.FunctionDef)
                  and func.name == "_thetas" for node in ast.walk(func)}
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if id(node) not in inside and "_theta_step" in (
                      getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "name", None) if isinstance(node, ast.alias) else None)]
    return found


def test_one_theta_recursion():
    assert _theta_steps_outside_thetas() == []
