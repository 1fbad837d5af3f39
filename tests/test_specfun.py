"""Tests for the scalar special functions."""

import math

import numpy as np
import pytest

from nodal.specfun import lambert_w0, ln_gamma


def _newton_w(x: float) -> float:
    # independent oracle: plain Newton on w*exp(w) - x = 0
    w = 0.5
    for _ in range(200):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1.0))
        w -= step
        if abs(step) < 1e-17:
            break
    return w


def test_trivial_values():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) < 1e-15


def test_omega_constant_against_newton():
    oracle = _newton_w(1.0)
    assert abs(oracle - 0.5671432904097838) < 1e-15  # frozen from the oracle
    assert abs(lambert_w0(1.0) - oracle) < 1e-15


def test_small_argument_value():
    # W(0.5*exp(-0.5)) starts the alternative recursion; known to ~4 digits
    x = 0.5 * math.exp(-0.5)
    assert abs(x - 0.3032653298563167) < 1e-15
    w = lambert_w0(x)
    assert abs(w - 0.2388) < 5e-5
    assert abs(w - 0.23883503113160776) < 1e-15  # frozen from Newton oracle
    assert abs(w - _newton_w(x)) < 1e-15


def test_residual_and_sandwich_random():
    rng = np.random.default_rng(1234)
    xs = rng.uniform(0.0, 1.0, 10_000)
    xs = xs[xs > 0]
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-13 * x
        assert x - x * x < w < x


def test_monotone_increasing():
    grid = np.linspace(1e-6, 0.999, 2000)
    vals = [lambert_w0(float(x)) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_against_scipy_reference():
    special = pytest.importorskip("scipy.special")
    grid = np.concatenate([
        np.linspace(1e-8, 0.99, 500),
        np.linspace(1.0, 50.0, 100),
        [-0.3, -0.1, -0.01],
    ])
    for x in grid:
        ref = float(special.lambertw(float(x)).real)
        assert abs(lambert_w0(float(x)) - ref) <= 1e-13 * (1.0 + abs(ref))


def test_residual_tolerance_tight():
    # relative residual of w*e^w against x stays below 1e-14 on the used range
    for x in np.geomspace(1e-6, 0.999, 300):
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-14 * x


def test_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-1.0)
    with pytest.raises(ValueError):
        lambert_w0(-math.exp(-1.0) * 1.0000001)
    assert lambert_w0(-math.exp(-1.0)) == -1.0
    with pytest.raises(ValueError, match="^lambert_w0: argument is NaN$"):
        lambert_w0(math.nan)


def test_ln_gamma_trivials():
    assert ln_gamma(1.0) == 0.0
    assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-15
    assert abs(ln_gamma(5.0) - math.log(24.0)) < 1e-14


def test_ln_gamma_recurrence():
    # x*Gamma(x) = Gamma(x+1) via lgamma differences
    for x in np.geomspace(0.1, 100.0, 400):
        lhs = ln_gamma(float(x)) + math.log(x)
        rhs = ln_gamma(float(x) + 1.0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_ln_gamma_functional_equation_tight():
    for x in (0.25, 1.0, 2.5, 10.0, 1e4):
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-13 * max(
            1.0, abs(ln_gamma(x + 1.0))
        )


def test_ln_gamma_domain_error():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-3.0)
