"""Tests for the whole-plane solver and its Dirichlet/Neumann rescalings."""

import functools
import gc
import logging
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nodal import _dop853
from nodal import bubbles as bb
from nodal import cli
from nodal import constants as cn
from nodal import radial_ode as ro
from nodal import verify as vf
from rhs_oracle import boundary_points, min_clamp_rhs

SQRT_E = math.exp(0.5)


def test_validation():
    with pytest.raises(ValueError):
        ro.solve_whole_plane(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        ro.solve_whole_plane(10.0, -0.5, 1)
    with pytest.raises(ValueError):
        ro.solve_whole_plane(10.0, 0.0, 0)
    with pytest.raises(ValueError):
        ro.solve_whole_plane(10.0, 0.0, 1, tol=0.0)


def test_normalization_at_origin():
    w = ro.solve_whole_plane(50.0, 0.0, 1)
    assert abs(w.eval_u(w.t_start) - 1.0) < 1e-10
    assert abs(w.eval_u(w.t_start - 20.0) - 1.0) < 1e-12
    assert w.eval_ut(w.t_start) < 0.0


def test_interlacing_and_decay():
    w = ro.solve_whole_plane(50.0, 0.0, 5)
    seq = np.empty(2 * 5 - 1)
    seq[0::2] = w.log_zeros
    seq[1::2] = w.log_crit
    assert np.all(np.diff(seq) > 0.0)
    vals = np.abs(w.crit_values)
    assert np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_memoized():
    a = ro.solve_whole_plane(42.0, 0.0, 2)
    b = ro.solve_whole_plane(42.0, 0.0, 2)
    assert a is b


def test_first_zero_scaling_toward_limit():
    # rho_1^(2/(p-1)) approaches sqrt(e) (within a few percent at p = 200)
    w = ro.solve_whole_plane(200.0, 0.0, 1)
    val = math.exp(2.0 * w.log_zeros[0] / 199.0)
    assert abs(val - SQRT_E) / SQRT_E < 0.02


def test_solution_pickles():
    w = ro.solve_whole_plane(60.0, 0.0, 2)
    clone = pickle.loads(pickle.dumps(w))
    t_mid = 0.5 * (w.log_zeros[0] + w.log_crit[0])
    assert clone.eval_u(t_mid) == w.eval_u(t_mid)


def test_dirichlet_structure():
    w = ro.solve_whole_plane(80.0, 0.0, 3)
    d1 = ro.dirichlet_solution(w, 1)
    assert d1.m == 1
    assert d1.log_zeros.shape == (1,) and d1.log_zeros[0] == 0.0
    assert d1.log_crit.shape == (0,)
    assert d1.crit_values[0] == d1.amplitude_scale
    assert d1.crit_values[0] > 1.0
    d3 = ro.dirichlet_solution(w, 3)
    assert d3.log_zeros[-1] == 0.0
    assert len(d3.log_crit) == len(d3.crit_values) - 1  # s_0 = 0 is implicit
    # signs alternate: u(0) > 0 > u(s_1), u(s_2) > 0
    assert d3.crit_values[0] > 0 > d3.crit_values[1]
    assert d3.crit_values[2] > 0
    ordering = np.append(np.column_stack([d3.log_zeros[:-1], d3.log_crit]), 0.0)
    assert np.all(np.diff(ordering) > 0)  # r_1 < s_1 < r_2 < s_2 < r_3 = 1
    with pytest.raises(ValueError):
        ro.dirichlet_solution(w, 4)
    with pytest.raises(ValueError):
        ro.dirichlet_solution(w, 2.5)


def test_neumann_structure():
    w = ro.solve_whole_plane(80.0, 0.0, 3)
    n2 = ro.neumann_solution(w, 2)
    assert n2.log_crit[-1] == 0.0  # boundary critical point at r = 1
    assert abs(n2.boundary_derivative) < 1e-9
    assert n2.crit_values[0] > 0 > n2.crit_values[1]
    # |u(1)| below 1 at finite p, approaching 1 from below as p grows
    assert 0.9 < abs(n2.crit_values[1]) < 1.0
    with pytest.raises(ValueError):
        ro.neumann_solution(w, 1)
    with pytest.raises(ValueError):
        ro.neumann_solution(w, 4)
    with pytest.raises(ValueError):
        ro.neumann_solution(w, 2.5)


def test_neumann_value_approaches_one():
    # the approach to 1 is not monotone: the value dips near p ~ 150
    # before climbing back toward 1, so compare on the monotone branch
    vals = []
    for p in (200.0, 800.0):
        w = ro.solve_whole_plane(p, 0.0, 2)
        vals.append(abs(ro.neumann_solution(w, 2).crit_values[1]))
    assert all(0.97 < v < 1.0 for v in vals)
    assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0)


def test_m1_center_value_tracks_limit():
    w = ro.solve_whole_plane(200.0, 0.0, 2)
    d = ro.dirichlet_solution(w, 1)
    assert abs(d.crit_values[0] - SQRT_E) / SQRT_E < 0.02
    d2 = ro.dirichlet_solution(w, 2)
    assert abs(d2.crit_values[0] - 2.46075) / 2.46075 < 0.02


def test_energies_match():
    for p, m in ((50.0, 1), (100.0, 2), (100.0, 3)):
        w = ro.solve_whole_plane(p, 0.0, m)
        d = ro.dirichlet_solution(w, m)
        eg, ep = ro.energies(d)
        assert abs(eg - ep) <= 1e-8 * ep
        # within sight of the limit at these p
        lim = cn.energy_limit(m, 0.0, "dirichlet")
        assert abs(eg - lim) / lim < 0.1


def test_pohozaev_residual():
    for p in (50.0, 100.0):
        w = ro.solve_whole_plane(p, 0.0, 3)
        for m in (1, 2, 3):
            d = ro.dirichlet_solution(w, m)
            assert ro.pohozaev_residual(d) <= 1e-7
    n = ro.neumann_solution(ro.solve_whole_plane(50.0, 0.0, 2), 2)
    with pytest.raises(ValueError):
        ro.pohozaev_residual(n)


def test_pohozaev_residual_henon():
    # the identity generalizes to alpha > 0 with the 1/(2(2+alpha)) factor
    w = ro.solve_whole_plane(100.0, 1.0, 2)
    for m in (1, 2):
        assert ro.pohozaev_residual(ro.dirichlet_solution(w, m)) <= 1e-7


def test_flux_identity():
    w = ro.solve_whole_plane(100.0, 0.0, 2)
    d = ro.dirichlet_solution(w, 2)
    s_last = float(np.exp(d.log_crit[-1]))
    # the pair (s_{m-1}, 1) reproduces the boundary-derivative identity
    assert ro.flux_identity_residual(d, s_last, 1.0) <= 1e-8
    assert ro.flux_identity_residual(d, s_last * 7.0, 0.5) <= 1e-8
    assert ro.flux_identity_residual(d, 0.3, 0.31) <= 1e-8
    with pytest.raises(ValueError):
        ro.flux_identity_residual(d, 0.5, 0.5)
    with pytest.raises(ValueError):
        ro.flux_identity_residual(d, 0.0, 0.5)


def test_flux_boundary_pair_matches_derivative():
    # u'(s_last) = 0, so the integral over (s_last, 1) equals -u'(1)*1
    w = ro.solve_whole_plane(100.0, 0.0, 2)
    d = ro.dirichlet_solution(w, 2)
    s_last = float(np.exp(d.log_crit[-1]))
    res = ro.flux_identity_residual(d, s_last, 1.0)
    assert res <= 1e-8


def test_henon_crosscheck_identity_and_dual_path():
    w0 = ro.solve_whole_plane(100.0, 0.0, 3)
    assert ro.henon_crosscheck(w0, 0.0) == 0.0
    assert ro.henon_crosscheck(w0, 1.0) <= 1e-8
    wa = ro.solve_whole_plane(100.0, 1.0, 3)
    with pytest.raises(ValueError):
        ro.henon_crosscheck(wa, 1.0)


def test_henon_log_zero_relation():
    # ln rho_{m,alpha} = (2/(alpha+2)) (ln rho_{m,0} + ln((alpha+2)/2))
    alpha = 2.0
    w0 = ro.solve_whole_plane(80.0, 0.0, 2)
    wa = ro.solve_whole_plane(80.0, alpha, 2)
    c = math.log((alpha + 2.0) / 2.0)
    for j in range(2):
        mapped = 2.0 / (alpha + 2.0) * (w0.log_zeros[j] + c)
        assert abs(mapped - wa.log_zeros[j]) < 1e-9


def test_rescaled_profile_anchors():
    w = ro.solve_whole_plane(150.0, 0.0, 2)
    d = ro.dirichlet_solution(w, 2)
    prof = ro.rescaled_profile(d, 1, np.linspace(4.0, 12.0, 50))
    s_over_eps = math.exp(d.log_crit[0] - prof.log_eps)
    xi_at_crit = ro.rescaled_profile(d, 1, np.array([s_over_eps])).samples[0, 1]
    assert abs(xi_at_crit) < 1e-9
    assert np.all(prof.samples[:, 1] <= 1e-9)
    # first region: xi(0) = 0 by normalization
    prof0 = ro.rescaled_profile(d, 0, np.array([0.0, 0.5, 1.0]))
    assert prof0.samples[0, 1] == 0.0
    assert prof0.samples[1, 1] < 0.0


def test_rescaled_profile_domain_rejection():
    w = ro.solve_whole_plane(150.0, 0.0, 2)
    d = ro.dirichlet_solution(w, 2)
    with pytest.raises(ValueError):
        ro.rescaled_profile(d, 1, np.array([1e9]))
    with pytest.raises(ValueError):
        ro.rescaled_profile(d, 1, np.array([0.0]))
    with pytest.raises(ValueError):
        ro.rescaled_profile(d, 5, np.array([1.0]))
    with pytest.raises(ValueError):
        ro.rescaled_profile(d, 0.5, np.array([1.0]))


def test_scale_separation():
    # eps_i / eps_{i+1} is small and shrinks with p
    ratios = []
    for p in (60.0, 240.0):
        w = ro.solve_whole_plane(p, 0.0, 2)
        d = ro.dirichlet_solution(w, 2)
        e0 = ro.rescaled_profile(d, 0, np.array([1.0])).log_eps
        e1 = ro.rescaled_profile(d, 1, np.array([7.0])).log_eps
        ratios.append(e0 - e1)
    assert ratios[0] < 0.0
    assert ratios[1] < ratios[0]


def test_nonlinearity_peak_bounded():
    # p r^(2+alpha) |u|^(p-1) stays below twice the bubble-coefficient peak
    p, alpha, m = 100.0, 0.0, 3
    w = ro.solve_whole_plane(p, alpha, m)
    q = 2.0 + alpha
    mask = w.t <= w.log_zeros[m - 1]
    with np.errstate(divide="ignore"):
        ln_au = np.where(np.abs(w.u[mask]) > 0, np.log(np.abs(w.u[mask])), -np.inf)
    product = p * np.exp(q * w.t[mask] + (p - 1.0) * ln_au)
    cap = 0.0
    for i in range(m):
        spec = bb.bubble_spec(i, alpha)
        grid = np.geomspace(1e-3, 1e3, 4000)
        zs = np.array([bb.bubble_profile(spec, float(r)) for r in grid])
        peak = np.max((q / 2.0) ** 2 * grid ** q * np.exp(zs))
        cap = max(cap, float(peak))
    assert np.max(product) <= 2.0 * cap


def test_scaled_derivative_bounded():
    # p |u'(r)| r stays below twice the largest derivative constant
    p, m = 100.0, 3
    w = ro.solve_whole_plane(p, 0.0, m)
    d = ro.dirichlet_solution(w, m)
    mask = w.t <= w.log_zeros[m - 1]
    scaled = p * d.amplitude_scale * np.abs(w.ut[mask])
    cap = np.nanmax(cn.constant_table(m).D)
    assert np.max(scaled) <= 2.0 * cap


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_no_uniform_a_priori_bound_at_finite_p(alpha):
    # the paper's headline contrast at p = 1e4: for every m <= 30 the sup norm
    # is u(0), close to M0(m), which grows like sqrt(m) inside its Gamma-ratio
    # sandwich, and every |critical value| sits within 1e-3 of its limit
    w = ro.solve_whole_plane(1e4, alpha, 30)
    for m in range(1, 31):
        tab = cn.constant_table(m, alpha)
        dirichlet = np.abs(ro.dirichlet_solution(w, m).crit_values)
        assert np.max(np.abs(dirichlet - tab.M) / tab.M) <= 1e-3, m
        assert np.argmax(dirichlet) == 0, m
        if m == 1:
            continue
        mbar = cn.neumann_constants(m).Mbar
        neumann = np.abs(ro.neumann_solution(w, m).crit_values)
        assert np.max(np.abs(neumann - mbar) / mbar) <= 1e-3, m
        assert np.argmax(neumann) == 0, m
        sandwich = cn.m0_bounds_check(m - 1)
        assert sandwich.lower < dirichlet[0] < sandwich.upper, m


def test_solution_dump_keys():
    w = ro.solve_whole_plane(50.0, 0.0, 2)
    d = cli._dump(w, "dirichlet", 2, samples=16)
    assert set(d) == {
        "p", "alpha", "bc", "m", "log_zeros", "log_crit", "crit_values",
        "boundary_derivative", "energy_grad", "energy_pot", "samples",
    }
    assert len(d["samples"]["r"]) <= 16
    wp = cli._dump(w, "plane", 2)
    assert wp["bc"] == "plane" and "samples" not in wp


def test_nodal_tol_env_changes_nothing(monkeypatch):
    for env in ("1e-8", "bogus", "2.0"):
        monkeypatch.setenv("NODAL_TOL", env)
        assert ro.default_tolerance() == 1e-10
        assert ro.solve_whole_plane(50.0, 0.0, 2).tol == 1e-10


# (p, alpha, m) -> (log_zeros, log_crit), recorded with the earlier
# solve_ivp-based solver at the default tolerance 1e-10
_SEED_EVENTS = {
    (50.0, 0.0, 3): (
        [12.233809504360432, 22.890925452741122, 28.726149995141917],
        [18.556396507416835, 26.11426001578743],
    ),
    (400.0, 1.0, 4): (
        [66.12352505484262, 119.95058271111867, 149.46715321982043, 169.90453816740649],
        [98.20345582346842, 136.30327542667837, 160.45491801267985],
    ),
    (1e4, 0.0, 3): (
        [2497.1839721008128, 4500.154524628954, 5598.756635032944],
        [3691.7122147834543, 5109.061347780021],
    ),
}


@pytest.mark.parametrize("key", sorted(_SEED_EVENTS))
def test_events_match_frozen_reference(key):
    zeros, crit = (np.array(v) for v in _SEED_EVENTS[key])
    w = ro.solve_whole_plane(*key, tol=1e-10)
    if key[0] <= 400.0:
        assert np.max(np.abs(w.log_zeros - zeros)) <= 1e-10
        assert np.max(np.abs(w.log_crit - crit)) <= 1e-10
    else:
        assert np.all(np.abs(w.log_zeros - zeros) <= 1e-11 * np.abs(zeros))
        assert np.all(np.abs(w.log_crit - crit) <= 1e-11 * np.abs(crit))


#: the keys of test_scipy_oracle.KEYS: small and huge p, the three weights,
#: and (200, 0, 30), whose bracketing rebuild spans 59 steps
_ORACLE_KEYS = [(50.0, 0.0, 3), (200.0, 1.0, 4), (400.0, 0.0, 4), (1e4, 0.0, 3),
                (1234.5, 1.0, 4), (3.0, 2.0, 5), (1e8, 0.0, 4), (200.0, 0.0, 30)]


@pytest.mark.parametrize("key", _ORACLE_KEYS, ids=str)
def test_step_interpolant_depends_on_that_step_alone(key, monkeypatch):
    # the bracketing rebuild of _solve_impl, and a rebuild of a random subset
    # of steps, give the same coefficients as those steps of a full rebuild
    records, rebuilds = [], []
    stepper, dense = _dop853.solve_to_zeros, _dop853.DenseOutput
    monkeypatch.setattr(_dop853, "solve_to_zeros",
                        lambda *args: records.append(stepper(*args)) or records[-1])
    monkeypatch.setattr(_dop853, "DenseOutput",
                        lambda *args: rebuilds.append(dense(*args)) or rebuilds[-1])
    ro._solve_impl(*key, ro.default_tolerance())
    [(rows, zero_steps, crit_steps, _)], [bracket] = records, rebuilds
    nodes = np.array(rows).T
    t, y = nodes[0], nodes[1:]
    p, q = key[0], 2.0 + key[1]
    full = dense(p, q, t[:-1], y[:, :-1], t[1:], y[:, 1:])
    steps = np.array(sorted({*zero_steps, *crit_steps}))
    assert bracket.t0.tobytes() == t[steps].tobytes()
    assert bracket.f.tobytes() == full.f[steps].tobytes()
    subset = np.sort(np.random.default_rng(17).choice(len(t) - 1, len(t) // 3, replace=False))
    part = dense(p, q, t[subset], y[:, subset], t[subset + 1], y[:, subset + 1])
    assert part.f.tobytes() == full.f[subset].tobytes()


@pytest.mark.parametrize("key", _ORACLE_KEYS, ids=str)
def test_events_read_the_same_double_as_eval_state(key):
    w = ro.solve_whole_plane(*key)
    assert w.eval_state(w.log_zeros).T.tobytes() == w.zero_states.tobytes()
    assert w.eval_state(w.log_crit).T.tobytes() == w.crit_states.tobytes()


def test_dense_output_reproduces_nodes():
    w = ro.solve_whole_plane(120.0, 1.0, 3)
    state = w.eval_state(w.t)
    assert state.shape == (4, len(w.t))
    assert np.max(np.abs(state[0] - w.u)) <= 1e-12 * np.max(np.abs(w.u))
    assert np.max(np.abs(state[1] - w.ut)) <= 1e-12 * np.max(np.abs(w.ut))
    # a scalar is a 0-d array on the same path and must agree point by point
    mid = np.concatenate([[w.t_start - 2.0], 0.5 * (w.t[1:] + w.t[:-1])])
    by_point = np.column_stack([w.eval_state(float(x)) for x in mid])
    assert w.eval_state(float(mid[1])).shape == (4,)
    assert by_point.tobytes() == w.eval_state(mid).tobytes()
    # the trajectory ends at the last zero, like a terminal event
    assert w.t_end == w.log_zeros[-1]
    with pytest.raises(ValueError):
        w.eval_state(w.t_end + 1e-6)


def test_eval_state_any_shape():
    w = ro.solve_whole_plane(120.0, 1.0, 3)
    grid = np.linspace(w.t_start - 3.0, w.t_end, 60).reshape(4, 3, 5)
    state = w.eval_state(grid)
    assert state.shape == (4, 4, 3, 5)
    assert np.array_equal(state.reshape(4, -1), w.eval_state(grid.ravel()))


def test_eval_state_rejects_nan():
    w = ro.solve_whole_plane(120.0, 1.0, 3)
    with pytest.raises(ValueError, match="eval_state: log-radius is NaN"):
        w.eval_state(math.nan)
    with pytest.raises(ValueError, match="eval_state: log-radius is NaN"):
        w.eval_state(np.array([w.t_start, math.nan, w.t_end]))
    # t = -inf is r = 0, where the series gives u = 1 and u_t = 0
    assert w.eval_state(-math.inf).tolist() == [1.0, 0.0, 0.0, 0.0]
    state = w.eval_state(np.array([-math.inf, w.t_end]))
    assert state[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0] and np.all(np.isfinite(state))


def test_eval_u_at_origin_is_series_limit():
    w = ro.solve_whole_plane(120.0, 1.0, 3)
    for d in (ro.dirichlet_solution(w, 3), ro.neumann_solution(w, 3)):
        u0 = d.eval_u(0.0)
        assert type(u0) is float
        assert u0 == d.crit_values[0]
        assert d.eval_u(np.array([0.0, 0.5]))[0] == d.crit_values[0]
        prof = ro.rescaled_profile(d, 0, np.array([0.0, 1.0]))
        assert prof.samples[0, 1] == 0.0


def test_flux_quadrature_failure_raises(monkeypatch):
    w = ro.solve_whole_plane(150.517, 1.0, 4)
    d = ro.dirichlet_solution(w, 4)
    s_last = float(np.exp(d.log_crit[-1]))
    assert ro.flux_identity_residual(d, s_last, 1.0) <= 1e-10
    # a relative ripple of 1e-6 on a 1e7-per-unit scale keeps the level sums
    # apart, so every pass up to the top level has an open interval
    real, passes = ro._rhs_array, []

    def rippled(p, q, t, y):
        passes.append(t.size)
        out = real(p, q, t, y)
        out[1] *= 1.0 + 1e-6 * np.sin(1e7 * t)
        return out

    monkeypatch.setattr(ro, "_rhs_array", rippled)
    with pytest.raises(bb.QuadratureError, match="flux quadrature did not converge"):
        ro.flux_identity_residual(d, s_last, 1.0)
    assert len(passes) == 1 + bb._TS_TOP - bb._TS_FIRST


def _flux_pieces(d, s, t):
    """The integrand and sub-intervals that flux_identity_residual integrates."""
    plane = d.plane
    ta, tb = d.log_scale + math.log(s), d.log_scale + math.log(t)
    breaks = np.sort(np.concatenate([plane.log_zeros, plane.log_crit]))
    edges = np.concatenate([[ta], breaks[(breaks > ta) & (breaks < tb)], [tb]])
    q = d.alpha + 2.0
    return (lambda x: -ro._rhs_array(d.p, q, x, plane.eval_state(x))[1]), edges[:-1], edges[1:]


def test_tanh_sinh_matches_scipy_on_flux_shells():
    # the criterion-7 shells; SciPy's tanhsinh with the gauge's tolerances is the oracle
    tanhsinh = pytest.importorskip("scipy.integrate").tanhsinh
    checked = 0
    for p in (50.0, 100.0, 200.0):
        w = ro.solve_whole_plane(p, 0.0, 3, tol=1e-10)
        for m in (1, 2, 3):
            d = ro.dirichlet_solution(w, m)
            pairs = [(math.exp(d.log_crit[-1]) if m >= 2 else 0.05, 1.0)]
            if m >= 2:
                pairs.append((math.exp(0.75 * d.log_zeros[0]), math.exp(0.25 * d.log_zeros[0])))
            for s, t in pairs:
                f, a, b = _flux_pieces(d, s, t)
                ours, err, done = bb._tanh_sinh(f, a, b)
                ref = tanhsinh(f, a, b, atol=1e-15, rtol=1e-12, minlevel=5)
                assert done.all() and ref.success.all()
                assert np.all(err <= np.maximum(bb._TS_ATOL, bb._TS_RTOL * np.abs(ours)))
                assert np.all(np.abs(ours - ref.integral) <= 1e-11 * np.abs(ref.integral))
                checked += a.size
    assert checked >= 15


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: x**-0.5, 0.0, 1.0, 2.0),           # integrable singularity at 0
    (np.log, 0.0, 1.0, -1.0),                     # logarithmic singularity at 0
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: np.log1p(-x), 0.0, 1.0, -1.0),     # -inf where nodes round onto 1
    (lambda x: 1.0 / (x * x + 0.01), -1.0, 1.0, 20.0 * math.atan(10.0)),  # needs level 7
])
def test_tanh_sinh_closed_forms(f, a, b, exact):
    total, err, done = bb._tanh_sinh(f, a, b)
    assert done.tolist() == [True]
    assert abs(total[0] - exact) <= 1e-12 * abs(exact)
    assert err[0] <= 1e-12 * abs(exact)


def test_tanh_sinh_intervals_close_independently():
    # the flat intervals close in the first pass, the ones across the peak
    # of 1 / (x^2 + 0.01) levels later; each keeps its own sum
    a = np.array([3.0, -1.0, -0.5, 5.0])
    b = np.array([4.0, 1.0, 0.25, 5.0])
    total, err, done = bb._tanh_sinh(lambda x: 1.0 / (x * x + 0.01), a, b)
    exact = 10.0 * (np.arctan(10.0 * b) - np.arctan(10.0 * a))
    assert done.all() and total[3] == 0.0
    assert np.all(np.abs(total - exact) <= 1e-12 * np.abs(exact))


def test_tanh_sinh_levels_nest():
    # levels 0..k together are the full grid of step h0 / 2^k, built once
    for k in range(6):
        jh = (bb._TS_H0 / 2**k) * np.arange(8 * 2**k + 1)
        u = 0.5 * math.pi * np.sinh(jh)
        xc, w = bb._ts_upto(k)
        order = np.argsort(-xc)
        assert np.array_equal(xc[order], 1.0 / (np.exp(u) * np.cosh(u)))
        full = 0.5 * math.pi * np.cosh(jh) / np.cosh(u) ** 2
        full[0] *= 0.5
        assert np.allclose(w[order], full, rtol=1e-15, atol=0.0)
    assert bb._ts_level(3) is bb._ts_level(3)
    assert not any(arr.flags.writeable for arr in (*bb._ts_level(3), *bb._ts_upto(3)))


@pytest.mark.parametrize("t, u", [
    (1.0, -0.4),        # ordinary point
    (2.0, 1e-301),      # |u| < 1e-300: the nonlinearity underflows to zero
    (60.0, 0.9),        # both exponents clamped at _EXP_CAP
    (-400.0, 0.5),      # both exponents below -700
    (-319.65, -0.3),    # ex above -700, ex + ln|u| below it
])
def test_rhs_scalar_and_array_agree(t, u):
    p, q = 50.0, 2.0
    y = np.array([u, 0.3, 1.5, 2.5])
    scalar = np.array(min_clamp_rhs(p, q)(t, y))
    array = ro._rhs_array(p, q, np.array([t, t]), np.column_stack([y, y]))
    assert array.shape == (4, 2)
    for col in array.T:
        np.testing.assert_allclose(col, scalar, rtol=1e-14, atol=0.0)
        assert np.array_equal(col == 0.0, scalar == 0.0)


@pytest.mark.parametrize("p, alpha", [(1.5, 0.0), (50.0, 0.0), (400.0, 1.0), (1e4, 2.5)])
def test_float_rhs_bitwise_equals_min_clamp_oracle(p, alpha):
    # the stepper's inline right-hand side is checked bit for bit against the
    # oracle through SciPy (test_scipy_oracle.py); here its array form takes
    # the same branch at every point, and forms u_t and u_t^2 bit for bit; its
    # two exponentials are NumPy's exp and log, not libm's, so within 1e-14
    q = 2.0 + alpha
    rng = np.random.default_rng(int(p) + 7)
    n = 2000
    ts = rng.uniform(-400.0, 120.0, n)
    us = np.exp(rng.uniform(-700.0, 2.0, n)) * rng.choice([-1.0, 1.0], n)
    vs = rng.normal(0.0, 3.0, n)
    points = [(float(t), float(u), float(v)) for t, u, v in zip(ts, us, vs)]
    points += [(t, u, 0.7) for t, u in boundary_points(p, q)]
    ref = min_clamp_rhs(p, q)
    want = np.array([ref(t, (u, v)) for t, u, v in points]).T
    t, u, v = np.array(points).T
    got = ro._rhs_array(p, q, t, np.stack([u, v, np.full(len(t), 1.25), np.full(len(t), -2.5)]))
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_rhs_calls_per_stored_step(monkeypatch):
    # DOP853 spends 12 RHS evaluations per accepted step and 11 per rejected
    # trial, counted in nfcn; the stabilized step control keeps the pooled
    # ratio near 13.1 (14.5 without)
    stepper, nfcn = _dop853.solve_to_zeros, []

    def counting_stepper(*args):
        out = stepper(*args)
        nfcn.append(out[3][0])
        return out

    monkeypatch.setattr(_dop853, "solve_to_zeros", counting_stepper)
    nodes = 0
    keys = [(50.0, 0.0, 3), (200.0, 1.0, 4), (1234.5, 1.0, 4), (1e4, 0.0, 3), (7.7, 2.5, 6)]
    for key in keys:
        nodes += len(ro._solve_impl(*key, 1e-10).t)
    assert len(nfcn) == len(keys)
    assert sum(nfcn) / nodes <= 13.5


def test_disc_rescaling_overflow_is_solver_error():
    # u(0) = exp(372.7) on the unit disc: both solutions build and every
    # scale-free quantity is readable; a value past the double range raises
    w = ro.solve_whole_plane(1.03, 19.5, 8)
    for rescale in (ro.dirichlet_solution, ro.neumann_solution):
        d = rescale(w, 8)
        assert math.isfinite(d.log_scale)
        assert np.all(np.isfinite(d.log_zeros)) and np.all(np.isfinite(d.log_crit))
        with pytest.raises(ro.SolverError, match="leaves the double range"):
            d.energy_pot
    assert ro.pohozaev_residual(ro.dirichlet_solution(w, 8)) <= 1e-7
    # the first zero's rescaling still fits: u(0) = exp(kappa ln rho_1) < 1e154
    d = ro.dirichlet_solution(w, 1)
    assert math.isfinite(d.energy_pot) and ro.pohozaev_residual(d) <= 1e-7


@pytest.mark.parametrize("alpha", [1e62, 1e78, 1e300])
def test_huge_alpha_is_solver_error(alpha):
    # (2 + alpha)**5 in the start series overflows from about 4.6e61, **4 from 1.3e77
    with pytest.raises(ro.SolverError, match=re.escape(f"(p=2.0, alpha={alpha})")):
        ro.solve_whole_plane(2.0, alpha, 1)


def test_alpha_below_series_overflow_solves():
    w = ro.solve_whole_plane(2.0, 1e61, 1)
    assert len(w.log_zeros) == 1 and math.isfinite(w.log_zeros[0])


def _eager_disc_fields(w, bc, m):
    """The disc fields as once stored: every value scaled when rescaled."""
    if bc == "dirichlet":
        n_zeros, L, state = m, float(w.log_zeros[m - 1]), w.zero_states[m - 1]
    else:
        n_zeros, L, state = m - 1, float(w.log_crit[m - 2]), w.crit_states[m - 2]
    kappa = (w.alpha + 2.0) / (w.p - 1.0)
    amp = math.exp(kappa * L)
    pref = w.p * math.exp(2.0 * kappa * L)
    return {
        "log_scale": L,
        "log_zeros": w.log_zeros[:n_zeros] - L,
        "log_crit": w.log_crit[: m - 1] - L,
        "crit_values": np.concatenate([[amp], amp * w.crit_states[: m - 1, 0]]),
        "deriv_at_zeros": w.p * amp * np.abs(w.zero_states[:n_zeros, 1]),
        "boundary_derivative": float(amp * state[1]),
        "energy_grad": float(pref * state[2]),
        "energy_pot": float(pref * state[3]),
        "amplitude_scale": amp,
    }, amp


@pytest.mark.parametrize("p", [1.5, 3.0, 50.0, 200.0, 1234.5, 1e4])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_disc_view_matches_eager_rescaling(p, alpha):
    w = ro.solve_whole_plane(p, alpha, 5)
    for bc, rescale, ms in (("dirichlet", ro.dirichlet_solution, range(1, 6)),
                            ("neumann", ro.neumann_solution, range(2, 6))):
        for m in ms:
            d = rescale(w, m)
            fields, amp = _eager_disc_fields(w, bc, m)
            for name, value in fields.items():
                assert np.array_equal(getattr(d, name), value), (bc, m, name)
            dump = cli._dump(w, bc, m, samples=40)
            for name in ("log_zeros", "log_crit", "crit_values"):
                assert dump[name] == fields[name].tolist(), (bc, m, name)
            for name in ("boundary_derivative", "energy_grad", "energy_pot"):
                assert dump[name] == fields[name], (bc, m, name)
            mask = w.t <= fields["log_scale"]
            idx = np.unique(np.linspace(0, int(mask.sum()) - 1, 40).astype(int))
            assert dump["samples"] == {
                "r": np.exp(w.t[mask][idx] - fields["log_scale"]).tolist(),
                "u": (amp * w.u[mask][idx]).tolist(),
            }


@pytest.mark.parametrize("check", [
    lambda d: d.eval_u(np.array([math.nan, 0.5])),
    lambda d: vf.green_profile_check(d, np.array([math.nan, 0.5])),
    lambda d: ro.rescaled_profile(d, 1, np.array([math.nan, 1.0])),
], ids=["eval_u", "green_profile_check", "rescaled_profile"])
def test_nan_radii_rejected(check):
    d = ro.dirichlet_solution(ro.solve_whole_plane(150.0, 0.0, 2), 2)
    with pytest.raises(ValueError):
        check(d)


def test_solution_pickle_is_small_and_dense_free():
    w = ro.solve_whole_plane(200.0, 0.0, 3)
    grid = np.linspace(w.t_start - 1.0, w.t_end, 257)
    before = pickle.dumps(w)
    assert len(before) < 32 * 1024
    values = w.eval_state(grid)
    after = pickle.dumps(w)
    assert len(after) < 32 * 1024
    for blob in (before, after):
        clone = pickle.loads(blob)
        assert np.array_equal(clone.eval_state(grid), values)
        assert np.array_equal(clone.log_zeros, w.log_zeros)


@pytest.mark.parametrize("p, alpha", [
    (math.nan, 0.0), (math.inf, 0.0), (50.0, math.nan), (50.0, math.inf),
    (50.0, -math.inf),
])
def test_non_finite_inputs_rejected(p, alpha):
    with pytest.raises(ValueError, match="finite"):
        ro.solve_whole_plane(p, alpha, 2)
    with pytest.raises(ValueError, match="finite"):
        ro.prefetch_solutions([(60.0, 0.0, 2), (p, alpha, 2)])


def test_step_limit_raises_solver_error(monkeypatch):
    monkeypatch.setattr(ro, "_MAX_STEPS", 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ro.SolverError, match="larger nsteps is needed"):
            ro.solve_whole_plane(77.5, 0.0, 2)


def test_nan_right_hand_side_fails_within_bounded_steps(monkeypatch, capsys):
    # a NaN start state makes the right-hand side NaN, which fails every trial
    # step's error test; each rejection cuts the step to 0.3 h, so after a
    # bounded number of trials the step falls below the roundoff of t: a
    # SolverError, and exit 2 from the CLI.  The step-size test ends the solve,
    # well inside a step limit of 100.
    series = ro._series_state
    monkeypatch.setattr(ro, "_series_state", lambda p, alpha, t: math.nan * series(p, alpha, t))
    monkeypatch.setattr(ro, "_MAX_STEPS", 100)
    message = "step controller failed: dop853: step size becomes too small (p=77.375, alpha=0.0)"
    with pytest.raises(ro.SolverError, match=f"^{re.escape(message)}$"):
        ro._solve_impl(77.375, 0.0, 2, 1e-10)
    assert cli.run(["solve", "--p", "77.375", "--m", "2", "--bc", "dirichlet"]) == 2
    assert capsys.readouterr().err == f"nodal: numerical failure: {message}\n"


def test_solver_refuses_a_gap_without_one_critical_point(monkeypatch):
    stepper = _dop853.solve_to_zeros

    def no_critical_points(*args):
        rows, zero_steps, _, counts = stepper(*args)
        return rows, zero_steps, [], counts

    monkeypatch.setattr(_dop853, "solve_to_zeros", no_critical_points)
    with pytest.raises(ro.SolverError, match=r"^expected exactly one critical point between "
                                             r"zeros 1 and 2, found 0 \(p=3.0, alpha=0.0\)$"):
        ro._solve_impl(3.0, 0.0, 2, 1e-10)


def test_solver_refuses_critical_values_that_do_not_decay(monkeypatch):
    series = ro._series_state
    # started at u(0) = 5, the first critical value is about -2.1
    monkeypatch.setattr(ro, "_series_state", lambda p, alpha, t: 5.0 * series(p, alpha, t))
    with pytest.raises(ro.SolverError, match=r"^critical values fail to decay strictly from "
                                             r"u\(0\)=1 \(p=3.0, alpha=0.0\): \[2\.1"):
        ro._solve_impl(3.0, 0.0, 2, 1e-10)


def test_solver_refuses_too_few_zeros_before_the_t_cap(monkeypatch):
    # with M0 = 1 the cap is the bare slack of 25, short of the second zero at p = 60
    monkeypatch.setattr(ro, "m0_product_formula", lambda n: 1.0)
    message = ("found 1 of 3 zeros before t cap 25.0 (p=60.0, alpha=0.0); "
               "the solution decayed or the cap is too tight")
    with pytest.raises(ro.SolverError, match=f"^{re.escape(message)}$"):
        ro._solve_impl(60.0, 0.0, 3, 1e-10)


def test_concurrent_solves_leave_the_warnings_filters_as_they_were(monkeypatch):
    # no solve touches the process's warnings filters: two in-process solves
    # that run as A enters, B enters, A leaves, B leaves leave them as they were
    stepper = _dop853.solve_to_zeros
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    p_a, p_b = 57.125, 58.125

    def paused(p, *args):
        if p == p_a:
            a_in.set()
            b_in.wait(0.2)  # hold A inside its solve until B has entered
        else:
            b_in.set()
            a_out.wait(0.2)  # hold B inside its solve until A has left
        return stepper(p, *args)

    monkeypatch.setattr(_dop853, "solve_to_zeros", paused)
    before, solved = list(warnings.filters), {}

    def solve(p, done=None):
        solved[p] = ro.solve_whole_plane(p, 0.0, 1)
        if done is not None:
            done.set()

    thread_a = threading.Thread(target=solve, args=(p_a, a_out))
    thread_b = threading.Thread(target=solve, args=(p_b,))
    thread_a.start()
    assert a_in.wait(30.0)
    thread_b.start()
    thread_a.join()
    thread_b.join()
    assert sorted(solved) == [p_a, p_b]
    assert warnings.filters == before


@pytest.fixture
def closed_pool():
    """No solve pool across the test: a pool forked earlier would not see the
    test's patches, and one forked during it would keep them."""
    ro._close_pool()
    yield
    ro._close_pool()


def _failing_solve(log, p, alpha, m_max, tol):
    with open(log, "a") as fh:
        fh.write(f"{p}\n")
    raise ro.SolverError(f"injected failure at p={p}")


def test_prefetch_propagates_worker_errors(closed_pool, monkeypatch, tmp_path):
    log = tmp_path / "calls.txt"
    # the pool pickles the job's function by reference, so it must be importable
    monkeypatch.setattr(ro, "_solve_impl", functools.partial(_failing_solve, log))
    params = [(91.5, 0.0, 2), (92.5, 0.0, 2), (93.5, 0.0, 2)]
    with pytest.raises(ro.SolverError, match="injected failure"):
        ro.prefetch_solutions(params, workers=2)
    # each key solved once in the pool, with no sequential re-solve
    assert sorted(log.read_text().split()) == ["91.5", "92.5", "93.5"]
    log.unlink()
    with pytest.raises(ro.SolverError, match="injected failure at p=91.5"):
        ro.prefetch_solutions(params, workers=1)
    assert log.read_text().split() == ["91.5"]


@pytest.mark.parametrize("workers", [0, -4])
def test_prefetch_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ro.prefetch_solutions([(96.5, 0.0, 1)], workers=workers)
    assert (96.5, 0.0, ro.default_tolerance()) not in ro._CACHE


def test_prefetch_falls_back_when_pool_unavailable(closed_pool, monkeypatch, caplog):
    def no_pool(*args, **kwargs):
        raise NotImplementedError("no process support")

    monkeypatch.setattr(ro, "ProcessPoolExecutor", no_pool)
    params = [(94.5, 0.0, 1), (95.5, 0.0, 1)]
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        ro.prefetch_solutions(params, workers=2)
    assert "NotImplementedError: no process support" in caplog.text
    for p, alpha, m in params:
        assert ro._CACHE[p, alpha, ro.default_tolerance()].m_max == m


def _batch_records(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "nodal"]


def _assert_same_solution(a, b) -> None:
    for name in ("t", "u", "ut", "log_zeros", "zero_states", "log_crit", "crit_states"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_prefetch_reuses_pool_workers(closed_pool, caplog):
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        ro.prefetch_solutions([(101.5, 0.0, 1), (102.5, 0.0, 1)], workers=2)
        pool, first = ro._POOL, set(ro._POOL._processes)
        ro.prefetch_solutions([(103.5, 0.0, 1), (104.5, 0.0, 1), (105.5, 0.0, 1)], workers=2)
        ro.prefetch_solutions([(106.5, 0.0, 1), (107.5, 0.0, 1)], workers=1)
    assert ro._POOL is pool and set(pool._processes) == first and len(first) == 2
    assert _batch_records(caplog) == [
        "prefetch_solutions: 2 jobs on the newly forked pool of 2 workers",
        "prefetch_solutions: 3 jobs on the reused pool of 2 workers",
        "prefetch_solutions: 2 jobs sequentially (one worker)",
    ]
    for p in (101.5, 102.5, 103.5, 104.5, 105.5, 106.5, 107.5):
        assert (p, 0.0, ro.default_tolerance()) in ro._CACHE


def test_prefetch_replaces_pool_on_new_worker_count(closed_pool, caplog):
    ro.prefetch_solutions([(108.5, 0.0, 1), (109.5, 0.0, 1)], workers=2)
    pool = ro._POOL
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        ro.prefetch_solutions([(110.5, 0.0, 1), (111.5, 0.0, 1), (112.5, 0.0, 1)], workers=3)
    assert ro._POOL is not pool and len(ro._POOL._processes) == 3
    assert _batch_records(caplog) == [
        "prefetch_solutions: 3 jobs on the newly forked pool of 3 workers"]


def test_prefetch_recovers_from_killed_worker(closed_pool, caplog):
    ro.prefetch_solutions([(113.5, 0.0, 2), (114.5, 0.0, 2)], workers=2)
    pool = ro._POOL
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    # let the pool notice, so the next batch meets it broken
    deadline = time.monotonic() + 30.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    params = [(115.5, 0.0, 2), (116.5, 0.0, 2)]
    keys = [(p, alpha, m, ro.default_tolerance()) for p, alpha, m in params]
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        ro.prefetch_solutions(params, workers=2)
        [broken] = _batch_records(caplog)
        ro.prefetch_solutions([(117.5, 0.0, 2), (118.5, 0.0, 2)], workers=2)
    assert broken.startswith("prefetch_solutions: 2 jobs sequentially (process pool "
                             "unavailable or broken, BrokenProcessPool: ")
    for p, alpha, m, tol in keys:
        _assert_same_solution(ro._CACHE[p, alpha, tol], ro._solve_impl(p, alpha, m, tol))
    assert _batch_records(caplog)[1:] == [
        "prefetch_solutions: 2 jobs on the newly forked pool of 2 workers"]
    assert ro._POOL is not pool and len(ro._POOL._processes) == 2


_REAL_SOLVE = ro._solve_impl


def _mark_result(marks, future) -> None:
    """Done callback, run in the parent: mark each solution it has received."""
    if future.exception() is None:
        (marks / f"done_{future.result().p}").touch()


def _dying_solve(marks, parent, last, others, p, alpha, m_max, tol):
    """A solve that records each in-process run; in a pool worker, the job
    for p = ``last`` ends its worker once the parent holds every other
    solution of the batch."""
    if os.getpid() == parent:
        with open(marks / "in_process.txt", "a") as fh:
            fh.write(f"{p}\n")
    elif p == last:
        deadline = time.monotonic() + 60.0
        while (not all((marks / f"done_{q}").exists() for q in others)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(1)
    return _REAL_SOLVE(p, alpha, m_max, tol)


def test_prefetch_solves_the_whole_batch_in_process_when_a_worker_dies(
        closed_pool, monkeypatch, caplog, tmp_path):
    params = [(125.5, 0.0, 1), (126.5, 0.0, 1), (127.5, 0.0, 1)]
    keys = [(p, alpha, m, ro.default_tolerance()) for p, alpha, m in params]
    wait = ro.wait

    def wait_marking_results(futures):
        for future in futures:
            future.add_done_callback(functools.partial(_mark_result, tmp_path))
        return wait(futures)

    monkeypatch.setattr(ro, "wait", wait_marking_results)
    # the pool pickles the job's function by reference, so it must be importable
    monkeypatch.setattr(ro, "_solve_impl", functools.partial(
        _dying_solve, tmp_path, os.getpid(), 127.5, (125.5, 126.5)))
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        sols = ro.prefetch_solutions(params, workers=2)
    # the last job's worker died after the parent held the other solutions, and
    # none of them is kept: every key is solved in-process once
    assert sorted(mark.name for mark in tmp_path.glob("done_*")) == ["done_125.5", "done_126.5"]
    assert sorted((tmp_path / "in_process.txt").read_text().split()) == ["125.5", "126.5", "127.5"]
    for (p, alpha, m, tol), sol in zip(keys, sols):
        assert ro._CACHE[p, alpha, tol] is sol
        _assert_same_solution(sol, _REAL_SOLVE(p, alpha, m, tol))
    [record] = _batch_records(caplog)
    assert record.startswith("prefetch_solutions: 3 jobs sequentially (process pool "
                             "unavailable or broken, BrokenProcessPool: ")
    assert ro._POOL is None


_POOL_PIDS_SCRIPT = """
import sys
from nodal import cli, radial_ode as ro
code = cli.run(["verify", "--m", "2", "--bc", "plane", "--p", "40,80", "--out", sys.argv[1]])
print(*ro._POOL._processes)
sys.exit(code)
"""


def _proc_state(pid: str) -> str | None:
    """The state letter of a process, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]  # after the parenthesized name


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="verify forks no pool on one CPU")
def test_pool_workers_end_with_their_process(tmp_path):
    src = os.path.dirname(os.path.dirname(ro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # output goes to a file: a worker outliving the process would hold a pipe open
    log = tmp_path / "out.txt"
    with open(log, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", _POOL_PIDS_SCRIPT, str(tmp_path / "report.csv")],
                              stdout=fh, stderr=fh, env=env, timeout=120, check=False)
    assert proc.returncode == 0, log.read_text()
    states = {pid: _proc_state(pid) for pid in log.read_text().split()}
    for pid, state in states.items():
        if state not in (None, "Z"):
            os.kill(int(pid), signal.SIGKILL)  # leave no orphan behind a failed run
    assert len(states) == 2 and set(states.values()) <= {None, "Z"}, states


_KILLED_PARENT_SCRIPT = """
import os, signal
from nodal import radial_ode as ro
ro.prefetch_solutions([(40.0, 0.0, 1), (41.0, 0.0, 1)], workers=2)
print(*ro._POOL._processes, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    src = os.path.dirname(os.path.dirname(ro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    log = tmp_path / "out.txt"
    with open(log, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", _KILLED_PARENT_SCRIPT],
                              stdout=fh, stderr=fh, env=env, timeout=120, check=False)
    assert proc.returncode == -signal.SIGKILL, log.read_text()
    pids = log.read_text().split()
    deadline = time.monotonic() + 5.0
    while (any(_proc_state(pid) not in (None, "Z") for pid in pids)
           and time.monotonic() < deadline):
        time.sleep(0.05)
    states = {pid: _proc_state(pid) for pid in pids}
    for pid, state in states.items():
        if state not in (None, "Z"):
            os.kill(int(pid), signal.SIGKILL)  # leave no orphan behind a failed run
    assert len(states) == 2 and set(states.values()) <= {None, "Z"}, states


_FORKED_BATCH_SCRIPT = """
import logging, os, pickle, sys, time
from nodal import radial_ode as ro

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

def worker_modules():
    time.sleep(0.2)  # hold this worker, so that the other one takes the next job
    return os.getpid(), scipy_modules()

records = []
handler = logging.Handler(logging.DEBUG)
handler.emit = lambda record: records.append(record.getMessage())
logging.getLogger("nodal").addHandler(handler)
logging.getLogger("nodal").setLevel(logging.DEBUG)
keys = [(60.5, 0.0, 2), (61.5, 1.0, 2), (62.5, 0.0, 3)]
before = scipy_modules()
sols = ro.prefetch_solutions(keys, workers=2)
after = scipy_modules()
pids, workers = set(ro._POOL._processes), {}
for _ in range(5):  # until both workers have answered
    workers.update(f.result() for f in [ro._POOL.submit(worker_modules) for _ in pids])
    if set(workers) == pids:
        break
with open(sys.argv[1], "wb") as fh:
    pickle.dump((before, after, pids, workers, records, keys, sols), fh)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_forked_workers_inherit_the_solver_modules(tmp_path):
    src = os.path.dirname(os.path.dirname(ro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    log, result = tmp_path / "out.txt", tmp_path / "result.pickle"
    with open(log, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", _FORKED_BATCH_SCRIPT, str(result)],
                              stdout=fh, stderr=fh, env=env, timeout=120, check=False)
    assert proc.returncode == 0, log.read_text()
    with open(result, "rb") as fh:  # written by the script above
        before, after, pids, workers, records, keys, sols = pickle.load(fh)
    # the batch ran on a forked pool, and neither the parent nor either worker
    # loaded any scipy module
    assert records == ["prefetch_solutions: 3 jobs on the newly forked pool of 2 workers"]
    assert before == [] and after == []
    assert len(pids) == 2 and workers == dict.fromkeys(pids, [])
    for key, sol in zip(keys, sols):
        _assert_same_solution(sol, ro._solve_impl(*key, ro.default_tolerance()))


@pytest.mark.parametrize("workers", [1, 2])
def test_prefetch_returns_solutions_in_params_order(closed_pool, caplog, workers):
    # distinct p per parametrization, so each run has the same two misses
    hit = ro.solve_whole_plane(121.25 + workers, 0.0, 1)
    params = [(122.25 + workers, 0.0, 1), (121.25 + workers, 0.0, 1),
              (120.25 + workers, 0.0, 2), (122.25 + workers, 0.0, 1),
              (121.25 + workers, 0.0, 1)]
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        sols = ro.prefetch_solutions(params, workers=workers)
    assert [(w.p, w.alpha, w.m_max) for w in sols] == params
    assert sols[1] is hit and sols[4] is hit and sols[0] is sols[3]
    for (p, alpha, m), w in zip(params, sols):
        assert ro._CACHE[p, alpha, ro.default_tolerance()] is w
        _assert_same_solution(w, ro._solve_impl(p, alpha, m, ro.default_tolerance()))
    assert _batch_records(caplog) == [
        "prefetch_solutions: 2 jobs sequentially (one worker)" if workers == 1
        else "prefetch_solutions: 2 jobs on the newly forked pool of 2 workers"]


def test_prefetch_all_hits_log_nothing_and_fork_no_pool(closed_pool, caplog):
    params = [(123.25, 0.0, 1), (124.25, 0.0, 1)]
    first = ro.prefetch_solutions(params, workers=1)
    with caplog.at_level(logging.DEBUG, logger="nodal"):
        again = ro.prefetch_solutions([*params, params[0]], workers=2)
        one = ro.solve_whole_plane(*params[1])
    assert [id(w) for w in again] == [id(first[0]), id(first[1]), id(first[0])]
    assert one is first[1]
    assert _batch_records(caplog) == [] and ro._POOL is None


@pytest.mark.parametrize("p", [1.5, 3.0, 10.0, 40.0, 77.5, 200.0, 1000.0, 1e4])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_every_m_is_a_prefix_of_one_solve(p, alpha, monkeypatch):
    # the step bound and the first step do not depend on m_max, and t_cap
    # only stops a run: a solve to m zeros is the first m zeros of one to
    # more, bit for bit, and the memo serves each m from one m = 6 solve
    tol, ms = ro.default_tolerance(), (1, 2, 3, 5)
    solves = []
    monkeypatch.setattr(ro, "_CACHE", {})
    monkeypatch.setattr(ro, "_solve_impl", lambda *job: solves.append(job) or _REAL_SOLVE(*job))
    views = ro.prefetch_solutions([(p, alpha, 6), *((p, alpha, m) for m in ms)], workers=1)
    assert solves == [(p, alpha, 6, tol)]
    for m, view in zip(ms, views[1:]):
        direct = _REAL_SOLVE(p, alpha, m, tol)
        assert view.m_max == m
        _assert_same_solution(view, direct)
        assert view._energy.tobytes() == direct._energy.tobytes()
        assert view._step_end.tobytes() == direct._step_end.tobytes()
        t = np.linspace(direct.t_start, direct.t_end, 257)
        assert view.eval_state(t).tobytes() == direct.eval_state(t).tobytes()


def test_prefetch_solves_each_p_alpha_once_at_its_largest_m(monkeypatch):
    solves = []
    monkeypatch.setattr(ro, "_solve_impl", lambda *job: solves.append(job) or _REAL_SOLVE(*job))
    sols = ro.prefetch_solutions([(88.25, 0.0, 6), (88.25, 0.0, 1), (88.25, 0.0, 3)], workers=1)
    assert solves == [(88.25, 0.0, 6, ro.default_tolerance())]
    assert [w.m_max for w in sols] == [6, 1, 3]
    assert ro._CACHE[88.25, 0.0, ro.default_tolerance()] is sols[0]
    # a later request for fewer zeros is a prefix of the memo's solve, with no new solve
    assert ro.solve_whole_plane(88.25, 0.0, 2).m_max == 2 and len(solves) == 1


def test_repeated_solves_release_their_steps():
    # a solve keeps only its solution: the stepper's record of about 270 rows,
    # some 60 kB here, must not outlive it; the first solve warms the caches
    ro._solve_impl(70.0, 0.0, 3, 1e-10)
    gc.collect()
    n = 3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            ro._solve_impl(70.5 + i, 0.0, 3, 1e-10)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < n * 10_000
