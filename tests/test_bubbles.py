"""Tests for the limit bubble profiles and their integral identities."""

import math
import sys

import numpy as np
import pytest

from nodal import bubbles as bb
from nodal.constants import theta_sequence


def test_spec_parameters():
    s0 = bb.bubble_spec(0, 0.0)
    assert s0.theta_i == 2.0
    assert abs(s0.beta_i - 2.0 * math.sqrt(2.0)) < 1e-15
    assert s0.sigma_i_alpha == 0.0
    s1 = bb.bubble_spec(1, 0.0)
    th = theta_sequence(1).theta[1]
    assert abs(s1.sigma_i_alpha - math.sqrt((th * th - 4.0) / 2.0)) < 1e-12
    assert abs(s1.sigma_i_alpha - 7.197898327767511) < 1e-12  # frozen
    # alpha rescales sigma through the 1/(2+alpha) power
    s1a = bb.bubble_spec(1, 2.0)
    assert abs(s1a.sigma_i_alpha - s1.sigma_i_alpha ** 0.5) < 1e-13


def test_profile_values_at_anchor_points():
    s0 = bb.bubble_spec(0, 0.0)
    assert bb.bubble_profile(s0, 0.0) == 0.0
    # closed form for the first bubble: log(64/(8+r^2)^2)
    for r in (0.5, 1.0, 3.0, 10.0):
        expected = math.log(64.0 / (8.0 + r * r) ** 2)
        assert abs(bb.bubble_profile(s0, r) - expected) < 1e-13
    s1 = bb.bubble_spec(1, 0.0)
    assert abs(bb.bubble_profile(s1, s1.sigma_i_alpha)) < 1e-12
    assert bb.bubble_profile(s1, 0.0) == -math.inf
    with pytest.raises(ValueError):
        bb.bubble_profile(s1, -1.0)


def test_profile_nonpositive_with_peak_at_sigma():
    for i in (1, 2, 5):
        spec = bb.bubble_spec(i, 0.0)
        sig = spec.sigma_i_alpha
        grid = np.geomspace(sig / 50.0, 50.0 * sig, 800)
        vals = np.array([bb.bubble_profile(spec, float(r)) for r in grid])
        assert np.all(vals <= 0.0)
        assert np.all(vals[np.abs(grid - sig) > 0.05 * sig] < -1e-5)
        # derivative vanishes at sigma
        h = 1e-6 * sig
        dz = (bb.bubble_profile(spec, sig + h) - bb.bubble_profile(spec, sig - h)) / (2 * h)
        assert abs(dz) < 1e-6


def test_first_bubble_tail_decreasing():
    s0 = bb.bubble_spec(0, 0.0)
    grid = np.linspace(1.0, 100.0, 200)
    vals = [bb.bubble_profile(s0, float(r)) for r in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # tail behaves like -2*log of the leading power
    assert abs(bb.bubble_profile(s0, 1e6) - math.log(64.0 / 1e24)) < 1e-9


def test_alpha_change_of_variable_identity():
    # Z_{i,alpha}(r) == Z_{i,0}(r^((alpha+2)/2)) exactly
    for i in (0, 1, 3):
        base = bb.bubble_spec(i, 0.0)
        for alpha in (0.5, 1.0, 2.0):
            spec = bb.bubble_spec(i, alpha)
            for r in np.geomspace(0.01, 50.0, 60):
                lhs = bb.bubble_profile(spec, float(r))
                rhs = bb.bubble_profile(base, float(r) ** ((alpha + 2.0) / 2.0))
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_mass_first_bubble_exact():
    s0 = bb.bubble_spec(0, 0.0)
    mass = bb.bubble_mass(s0)
    assert abs(mass - 8.0 * math.pi) <= 1e-10 * 8.0 * math.pi


def test_mass_matches_formula():
    for i in (0, 1, 2, 4):
        for alpha in (0.0, 1.0, 2.0):
            spec = bb.bubble_spec(i, alpha)
            expected = 8.0 * math.pi * spec.theta_i / (alpha + 2.0)
            mass = bb.bubble_mass(spec)
            assert abs(mass - expected) <= 1e-8 * expected


def test_mass_singular_bubble_value():
    s1 = bb.bubble_spec(1, 0.0)
    mass = bb.bubble_mass(s1)
    assert abs(mass - 4.0 * math.pi * s1.theta_i) <= 1e-8 * mass
    assert abs(mass - 130.36328931724) < 1e-9  # frozen from the formula


def test_split_integrals():
    th = theta_sequence(2).theta
    for i in (1, 2):
        spec = bb.bubble_spec(i, 0.0)
        split = bb.bubble_split_integrals(spec)
        assert abs(split.inner - (th[i] - 2.0)) <= 1e-8 * (th[i] - 2.0)
        assert abs(split.outer - (th[i] + 2.0)) <= 1e-8 * (th[i] + 2.0)
        assert abs(split.inner + split.outer - 2.0 * th[i]) <= 1e-8 * th[i]


@pytest.mark.parametrize("i", [*range(41), 100, 1000])
def test_mass_and_split_closed_forms_to_roundoff(i):
    # the mass 8 pi theta/(alpha+2) for alpha from 0 to the largest alpha with
    # a finite (alpha+2)*theta, and the split theta -+ 2, each from the
    # quadrature at its full precision
    tol = 5e-11 if i == 1000 else 1e-12
    th = bb.bubble_spec(i).theta_i
    edge = sys.float_info.max / th
    while not math.isfinite((edge + 2.0) * th):
        edge = math.nextafter(edge, 0.0)
    with pytest.raises(ValueError, match="^bubble_spec: "):
        bb.bubble_spec(i, math.nextafter(edge, math.inf))
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.7, 1e6, 1e300, edge):
        spec = bb.bubble_spec(i, alpha)
        expected = 8.0 * math.pi * spec.theta_i / (alpha + 2.0)
        assert abs(bb.bubble_mass(spec) - expected) <= tol * expected, alpha
    if 1 <= i <= 100:
        spec = bb.bubble_spec(i)
        th = spec.theta_i
        split = bb.bubble_split_integrals(spec)
        assert abs(split.inner - (th - 2.0)) <= 1e-12 * (th - 2.0)
        assert abs(split.outer - (th + 2.0)) <= 1e-12 * (th + 2.0)


@pytest.mark.parametrize("call", [
    # round-off in the profile's terms of size theta ln theta keeps the level sums apart
    pytest.param(lambda: bb.bubble_split_integrals(bb.bubble_spec(100000)), id="split"),
])
def test_underflowed_quadrature_raises(call):
    with pytest.raises(bb.QuadratureError, match="bubble quadrature did not converge"):
        call()


@pytest.mark.parametrize("i", [2, 3])
def test_overflowing_alpha_rejected(i):
    # (alpha+2)*theta_i is inf, and so would be every profile coefficient
    with pytest.raises(ValueError, match=f"^bubble_spec: .* at i={i}, alpha=1e\\+307$"):
        bb.bubble_spec(i, 1e307)


def test_split_integrals_domain():
    with pytest.raises(ValueError):
        bb.bubble_split_integrals(bb.bubble_spec(0, 0.0))
    with pytest.raises(ValueError):
        bb.bubble_split_integrals(bb.bubble_spec(1, 1.0))


def test_pde_residual_small_on_grid():
    grid = np.linspace(0.1, 10.0, 25)
    for i, cap in ((0, 1e-5), (1, 2e-4), (2, 5e-4)):
        spec = bb.bubble_spec(i, 0.0)
        assert bb.bubble_pde_residual(spec, grid) <= cap


def test_pde_residual_order_two():
    grid = np.linspace(0.1, 10.0, 25)
    for i, h in ((0, 8e-3), (1, 2e-3), (2, 2e-3)):
        spec = bb.bubble_spec(i, 0.0)
        r_h = bb.bubble_pde_residual(spec, grid, h)
        r_half = bb.bubble_pde_residual(spec, grid, h / 2.0)
        assert 3.4 <= r_h / r_half <= 4.6


def test_pde_residual_henon_weight():
    grid = np.linspace(0.2, 5.0, 15)
    spec = bb.bubble_spec(1, 1.0)
    assert bb.bubble_pde_residual(spec, grid, 2e-3) <= 1e-2
    r1 = bb.bubble_pde_residual(spec, grid, 2e-3)
    r2 = bb.bubble_pde_residual(spec, grid, 1e-3)
    assert 3.4 <= r1 / r2 <= 4.6


def test_pde_residual_grid_validation():
    spec = bb.bubble_spec(1, 0.0)
    for grid in ([0.0, 1.0], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError):
            bb.bubble_pde_residual(spec, np.array(grid))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, r_max", [(1e150, 1.5), (1e155, 1.5), (1e300, 1.5),
                                          (1e306, 10.0)])
@pytest.mark.parametrize("i", [0, 10])
def test_pde_residual_at_large_alpha(i, alpha, r_max):
    # any alpha bubble_spec accepts gives a finite residual, or names alpha when it overflows
    spec, grid = bb.bubble_spec(i, alpha), np.linspace(0.5, r_max, 50)
    if (i, alpha) == (10, 1e306):
        with pytest.raises(ValueError, match=r"^bubble_pde_residual: .*alpha=1e\+306"):
            bb.bubble_pde_residual(spec, grid)
    else:
        assert math.isfinite(bb.bubble_pde_residual(spec, grid))


def test_profile_samples_shape():
    spec = bb.bubble_spec(1, 0.0)
    out = bb.profile_samples(spec, np.linspace(0.0, 10.0, 11))
    assert out.shape == (11, 3)
    assert out[0, 1] == -math.inf and out[0, 2] == 0.0
    assert np.allclose(out[1:, 2], np.exp(out[1:, 1]))


@pytest.mark.parametrize("i", [0, 1, 3, 40])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_profile_array_call_equals_scalar_calls(i, alpha):
    spec = bb.bubble_spec(i, alpha)
    radius = spec.concentration_radius
    grid = np.concatenate([[0.0], np.linspace(0.0, 4.0 * radius, 97),
                           np.geomspace(1e-8, 1e8, 64) * radius])
    vals = bb.bubble_profile(spec, grid)
    assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
    scalars = [bb.bubble_profile(spec, float(r)) for r in grid]
    assert all(type(z) is float for z in scalars)
    scalars = np.array(scalars)
    at_origin = grid == 0.0
    assert np.all(vals[at_origin] == (0.0 if i == 0 else -math.inf))
    assert np.array_equal(scalars[at_origin], vals[at_origin])
    np.testing.assert_allclose(vals[~at_origin], scalars[~at_origin], rtol=1e-15, atol=0.0)
    # any shape in, the same shape out
    square = grid[: 16 * 10].reshape(16, 10)
    assert np.array_equal(bb.bubble_profile(spec, square), vals[: 160].reshape(16, 10))
    assert np.array_equal(bb.profile_samples(spec, grid)[:, 1], vals)
    for bad in (-1e-300, math.nan, math.inf):
        for call in (bb.bubble_profile, bb.profile_samples):
            with pytest.raises(ValueError, match="r must be >= 0"):
                call(spec, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="r must be >= 0"):
            bb.bubble_profile(spec, bad)


def test_large_index_no_overflow():
    # theta ~ 8i makes direct powers overflow; log-space evaluation must not
    spec = bb.bubble_spec(40, 0.0)
    sig = spec.sigma_i_alpha
    val = bb.bubble_profile(spec, sig)
    assert abs(val) < 1e-9
    assert math.isfinite(bb.bubble_profile(spec, 1e-3))
    assert math.isfinite(bb.bubble_profile(spec, 1e3))
