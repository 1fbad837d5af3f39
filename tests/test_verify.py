"""Tests for the convergence reports and profile comparisons."""

import math

import numpy as np
import pytest

from nodal import constants as cn
from nodal import verify as vf
from nodal.radial_ode import dirichlet_solution, solve_whole_plane

SQRT_E = math.exp(0.5)


def test_richardson_exact_first_order():
    rows = [(p, 3.5 + 12.0 / p) for p in (50.0, 100.0, 200.0, 400.0)]
    assert abs(vf.richardson_extrapolate(rows) - 3.5) < 1e-12


def test_richardson_constant_data():
    rows = [(p, 2.25) for p in (10.0, 20.0, 40.0)]
    assert abs(vf.richardson_extrapolate(rows) - 2.25) < 1e-12


def test_richardson_degenerate():
    with pytest.raises(ValueError):
        vf.richardson_extrapolate([(50.0, 1.0)])
    with pytest.raises(ValueError):
        vf.richardson_extrapolate([(50.0, 1.0), (50.0, 2.0)])
    # two distinct p whose 1/p round to the same double
    ps = (2.0660353362554698e21, 2.06603533625547e21)
    assert ps[0] != ps[1] and 1.0 / ps[0] == 1.0 / ps[1]
    with pytest.raises(ValueError, match=r"degenerate fit \(rank deficient\)$"):
        vf.richardson_extrapolate([(ps[0], 1.0), (ps[1], 2.0)])


@pytest.mark.parametrize("errors", [(0.0, 0.0, 0.0), (0.0, 0.1, 0.0), (0.2,)])
def test_fit_rate_needs_two_nonzero_errors(errors):
    rows = [vf.ConvergenceRow(p, 1.0 + err, 1.0, err)
            for p, err in zip((50.0, 100.0, 200.0), errors)]
    assert math.isnan(vf._fit_rate(rows))


def test_convergence_report_validation():
    with pytest.raises(ValueError):
        vf.convergence_report(1, 0.0, "robin", [50.0, 100.0])
    with pytest.raises(ValueError):
        vf.convergence_report(1, 0.0, "dirichlet", [100.0, 50.0])
    with pytest.raises(ValueError):
        vf.convergence_report(1, 0.0, "dirichlet", [0.5, 2.0])
    with pytest.raises(ValueError):
        vf.convergence_report(1, 0.0, "neumann", [50.0, 100.0])
    with pytest.raises(ValueError):
        vf.convergence_report(1, 0, "neumann", [1.0001])
    with pytest.raises(ValueError, match="^convergence_report: p must be finite"):
        vf.convergence_report(2, 0.0, "dirichlet", [50.0, math.inf])
    with pytest.raises(ValueError, match="^convergence_report: m must be an integer"):
        vf.convergence_report(2.5, 0.0, "dirichlet", [50.0, 100.0])
    with pytest.raises(ValueError, match="^convergence_report: p_list is empty"):
        vf.convergence_report(2, 0.0, "dirichlet", [])


def test_convergence_report_m1_dirichlet():
    reps = vf.convergence_report(1, 0.0, "dirichlet", [60.0, 120.0])
    by_q = {(r.quantity, r.i): r for r in reps}
    center = by_q[("|u(s_i)|", 0)]
    assert center.rows[0].limit == pytest.approx(SQRT_E, rel=1e-12)
    assert all(abs(row.computed - SQRT_E) / SQRT_E < 0.03 for row in center.rows)
    deriv = by_q[("p|u'(r_i)|r_i", 1)]
    assert deriv.rows[0].limit == pytest.approx(4.0 * SQRT_E, rel=1e-12)
    energy = by_q[("energy", None)]
    assert energy.rows[0].limit == pytest.approx(4.0 * math.e, rel=1e-12)
    # quantity set: no interior zeros/criticals at m = 1
    assert set(by_q) == {("|u(s_i)|", 0), ("p|u'(r_i)|r_i", 1), ("energy", None)}


def test_convergence_report_m2_limits():
    reps = vf.convergence_report(2, 0.0, "dirichlet", [60.0, 120.0])
    by_q = {(r.quantity, r.i): r for r in reps}
    tab = cn.constant_table(2)
    th = cn.theta_sequence(1).theta[1]
    assert by_q[("r_i^(2/(p-1))", 1)].rows[0].limit == pytest.approx(tab.R[1])
    assert by_q[("s_i^(2/(p-1))", 1)].rows[0].limit == pytest.approx(tab.S[1])
    assert by_q[("|u(s_i)|", 1)].rows[0].limit == pytest.approx(
        math.exp(2.0 / (th + 2.0)))
    # the scaled derivative at the interior zero tends to D^(2)_1
    d1 = by_q[("p|u'(r_i)|r_i", 1)].rows[0].limit
    assert d1 == pytest.approx((th - 2.0) * math.exp(2.0 / (th + 2.0)), rel=1e-12)
    assert d1 == pytest.approx(9.8429785, rel=1e-6)


def test_convergence_report_neumann():
    reps = vf.convergence_report(2, 0.0, "neumann", [60.0, 120.0])
    by_q = {(r.quantity, r.i): r for r in reps}
    ntab = cn.neumann_constants(2)
    assert by_q[("|u(s_i)|", 1)].rows[0].limit == pytest.approx(1.0)
    assert by_q[("|u(s_i)|", 0)].rows[0].limit == pytest.approx(ntab.Mbar[0])
    assert by_q[("energy", None)].rows[0].limit == pytest.approx(
        cn.energy_limit(2, 0.0, "neumann"))


def test_convergence_report_plane():
    reps = vf.convergence_report(1, 0.0, "plane", [60.0, 120.0])
    by_q = {r.quantity: r for r in reps}
    lims = cn.whole_plane_limits(1, 0.0)
    assert by_q["rho_m"].rows[0].limit == pytest.approx(lims.rho_lim)
    assert by_q["p|w'(rho_m)|rho_m"].rows[0].limit == pytest.approx(lims.drv_lim)
    assert by_q["delta_m"].rows[0].limit == pytest.approx(lims.delta_lim)
    assert by_q["|w(delta_m)|"].rows[0].limit == pytest.approx(lims.val_lim)
    for rep in reps:
        assert all(row.abs_err < 0.25 * abs(row.limit) for row in rep.rows)


def test_report_monotone_flag_is_accurate():
    reps = vf.convergence_report(1, 0.0, "dirichlet", [60.0, 120.0])
    for rep in reps:
        errs = [r.abs_err for r in rep.rows]
        assert rep.monotone == all(b < a for a, b in zip(errs, errs[1:]))
        assert math.isfinite(rep.extrapolated)


def test_alpha_powers_in_limits():
    reps = vf.convergence_report(2, 1.0, "dirichlet", [60.0, 120.0])
    by_q = {(r.quantity, r.i): r for r in reps}
    tab = cn.constant_table(2)
    assert by_q[("r_i^(2/(p-1))", 1)].rows[0].limit == pytest.approx(
        tab.R[1] ** (2.0 / 3.0))
    assert by_q[("p|u'(r_i)|r_i", 1)].rows[0].limit == pytest.approx(
        1.5 * tab.D[1])


def test_green_profile_check():
    w = solve_whole_plane(300.0, 0.0, 1)
    d = dirichlet_solution(w, 1)
    sup = vf.green_profile_check(d)
    # p*u(0.5) is within ~2% of 4*sqrt(e)*log(2) at p = 300
    val = 300.0 * d.eval_u(0.5)
    ref = 4.0 * SQRT_E * math.log(2.0)
    assert abs(val - ref) / ref < 0.02
    assert sup < 0.2
    # r = 1 contributes ~0 (both sides vanish)
    assert vf.green_profile_check(d, np.array([1.0])) < 1e-6


def test_green_profile_decreases_in_p():
    sups = []
    for p in (100.0, 300.0):
        d = dirichlet_solution(solve_whole_plane(p, 0.0, 1), 1)
        sups.append(vf.green_profile_check(d))
    assert sups[1] < sups[0]


def test_green_profile_sign_flips_with_parity():
    d2 = dirichlet_solution(solve_whole_plane(150.0, 0.0, 2), 2)
    # gamma < 0 for m = 2: p*u(r) is negative in the outer region
    assert cn.gamma_alpha_m(0.0, 2) < 0
    assert d2.eval_u(0.5) < 0
    assert vf.green_profile_check(d2) < 0.5


def test_green_profile_validation():
    d = dirichlet_solution(solve_whole_plane(60.0, 0.0, 2), 2)
    with pytest.raises(ValueError):
        vf.green_profile_check(d, np.array([0.001]))
    from nodal.radial_ode import neumann_solution

    n = neumann_solution(solve_whole_plane(60.0, 0.0, 2), 2)
    with pytest.raises(ValueError):
        vf.green_profile_check(n)


def test_bubble_convergence_check_m2():
    d = dirichlet_solution(solve_whole_plane(150.0, 0.0, 2), 2)
    chk = vf.bubble_convergence_check(d, 1)
    assert abs(chk.s_over_eps - chk.sigma) / chk.sigma < 0.05
    assert chk.r_over_eps < 1e-3
    assert chk.eps_over_next < 1e-3
    assert chk.sup_err < 0.5


def test_bubble_convergence_sup_shrinks():
    sups = []
    for p in (100.0, 250.0):
        d = dirichlet_solution(solve_whole_plane(p, 0.0, 2), 2)
        sups.append(vf.bubble_convergence_check(d, 1).sup_err)
    assert sups[1] < sups[0]


def test_bubble_convergence_first_region():
    d = dirichlet_solution(solve_whole_plane(150.0, 0.0, 2), 2)
    chk = vf.bubble_convergence_check(d, 0)
    assert chk.s_over_eps == 0.0 and chk.sigma == 0.0
    assert chk.sup_err < 0.5


def test_sup_norm_growth_within_bounds():
    # computed u(0) at p = 300 grows with m and stays inside the sup-norm
    # growth sandwich widened by 10% slack
    w = solve_whole_plane(300.0, 0.0, 5)
    prev = 0.0
    for m in range(1, 6):
        u0 = dirichlet_solution(w, m).crit_values[0]
        assert u0 > prev
        prev = u0
        rep = next(r for r in cn.sup_norm_bounds(m) if r.check == "dirichlet_sup")
        assert 0.9 * rep.lower < u0 < 1.1 * rep.upper


def test_bubble_convergence_interval_rejected():
    d = dirichlet_solution(solve_whole_plane(150.0, 0.0, 2), 2)
    with pytest.raises(ValueError):
        vf.bubble_convergence_check(d, 1, compact_interval=(1.0, 1e12))
    for interval in ((-1.0, 2.0), (0.1, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="^bubble_convergence_check: "):
            vf.bubble_convergence_check(d, 1, compact_interval=interval)
