"""Finite-exponent solver output against the asymptotic constants.

For a sweep of exponents p this module tabulates every tracked quantity
(zeros and critical points in the stable power 2/(p-1), values at
critical points, scaled boundary/zero derivatives, energies, whole-plane
data) next to its p -> infinity limit, fits a first-order 1/p model for
extrapolation, and reports the empirical convergence rate.  The limits
are only o(1) statements, so rates are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cn
from .bubbles import bubble_profile, bubble_spec
from .radial_ode import (
    RadialSolution,
    dirichlet_solution,
    neumann_solution,
    prefetch_solutions,
    rescaled_profile,
    solve_whole_plane,  # noqa: F401  perfbench/layertrace.py wraps this binding
)

__all__ = [
    "ConvergenceRow",
    "ConvergenceReport",
    "BubbleCheck",
    "convergence_report",
    "green_profile_check",
    "bubble_convergence_check",
    "richardson_extrapolate",
]

#: grid points on the compact interval of a bubble convergence check
_BUBBLE_POINTS = 400


@dataclass(frozen=True)
class ConvergenceRow:
    """One finite-p value next to its limit; ``abs_err`` is ``|computed - limit|``."""

    p: float
    computed: float
    limit: float
    abs_err: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-quantity table of finite-p values against the asymptotic limit.

    ``monotone`` records whether abs_err strictly decreased along the
    sweep; the approach is not monotone for every quantity at moderate p
    (finite-p values can cross their limit), so this is reported data,
    not an enforced invariant.  ``rate`` is the least-squares slope of
    log(abs_err) against log(p).
    """

    quantity: str
    bc: str
    m: int
    alpha: float
    i: int | None
    rows: tuple[ConvergenceRow, ...]
    extrapolated: float
    rate: float
    monotone: bool


def richardson_extrapolate(rows: list[tuple[float, float]]) -> float:
    """Least-squares fit of ``value(p) = L + c/p``; returns L.

    The limits behave empirically like first-order in 1/p, which is why
    this model is used; with exact ``L + c/p`` data the fit recovers L to
    machine precision, and constant data returns the constant.
    """
    if len(rows) < 2:
        raise ValueError("richardson_extrapolate: need at least 2 rows")
    ps = np.array([float(p) for p, _ in rows])
    vals = np.array([float(v) for _, v in rows])
    if len(np.unique(ps)) < 2:
        raise ValueError("richardson_extrapolate: degenerate fit (duplicate p)")
    design = np.column_stack([np.ones_like(ps), 1.0 / ps])
    coef, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 2:
        raise ValueError("richardson_extrapolate: degenerate fit (rank deficient)")
    return float(coef[0])


def _fit_rate(rows: list[ConvergenceRow]) -> float:
    pts = [(math.log(r.p), math.log(r.abs_err)) for r in rows if r.abs_err > 0.0]
    if len(pts) < 2:
        return math.nan
    x = np.array([a for a, _ in pts])
    y = np.array([b for _, b in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def _pow_stable(log_r: float, p: float) -> float:
    """r^(2/(p-1)) from the log-radius, avoiding the extreme radii."""
    return math.exp(2.0 * log_r / (p - 1.0))


def _tracked_dirichlet(sol: RadialSolution, tab, q: float) -> dict:
    out = {}
    m, p = sol.m, sol.p
    for i in range(m):
        out[("|u(s_i)|", i)] = (abs(sol.crit_values[i]), tab.M[i])
    for i in range(1, m):
        out[("s_i^(2/(p-1))", i)] = (
            _pow_stable(sol.log_crit[i - 1], p), tab.S[i] ** (2.0 / q))
        out[("r_i^(2/(p-1))", i)] = (
            _pow_stable(sol.log_zeros[i - 1], p), tab.R[i] ** (2.0 / q))
    for i in range(1, m + 1):
        out[("p|u'(r_i)|r_i", i)] = (sol.deriv_at_zeros[i - 1], q / 2.0 * tab.D[i])
    out[("energy", None)] = (
        sol.energy_grad, cn.energy_limit(m, sol.alpha, "dirichlet"))
    return out


def _tracked_neumann(sol: RadialSolution, ntab, q: float) -> dict:
    out = {}
    m, p = sol.m, sol.p
    for i in range(m):
        out[("|u(s_i)|", i)] = (abs(sol.crit_values[i]), ntab.Mbar[i])
    for i in range(1, m - 1):
        out[("s_i^(2/(p-1))", i)] = (
            _pow_stable(sol.log_crit[i - 1], p), ntab.Sbar[i] ** (2.0 / q))
    for i in range(1, m):
        out[("r_i^(2/(p-1))", i)] = (
            _pow_stable(sol.log_zeros[i - 1], p), ntab.Rbar[i] ** (2.0 / q))
        out[("p|u'(r_i)|r_i", i)] = (sol.deriv_at_zeros[i - 1], q / 2.0 * ntab.Dbar[i])
    out[("energy", None)] = (
        sol.energy_grad, cn.energy_limit(m, sol.alpha, "neumann"))
    return out


def _tracked_plane(w, m: int, lims) -> dict:
    p = w.p
    return {
        ("rho_m", None): (_pow_stable(w.log_zeros[m - 1], p), lims.rho_lim),
        ("p|w'(rho_m)|rho_m", None): (
            p * abs(w.zero_states[m - 1, 1]), lims.drv_lim),
        ("delta_m", None): (_pow_stable(w.log_crit[m - 1], p), lims.delta_lim),
        ("|w(delta_m)|", None): (abs(w.crit_states[m - 1, 0]), lims.val_lim),
    }


def convergence_report(
    m: int,
    alpha: float,
    bc: str,
    p_list: list[float],
    tol: float | None = None,
) -> list[ConvergenceReport]:
    """Solve at every p in the sweep and compare the tracked quantities.

    ``bc`` is one of ``dirichlet``, ``neumann`` (m >= 2) or ``plane``.
    ``p_list`` must be strictly increasing with every entry > 1.  Per-p
    solves are dispatched concurrently; report assembly is deterministic.
    """
    ps = [float(p) for p in p_list]
    if len(ps) == 0 or any(not p > 1.0 for p in ps):
        raise ValueError("convergence_report: p_list entries must be > 1")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("convergence_report: p_list must be strictly increasing")
    cn._check_bc("convergence_report", bc, m)
    q = alpha + 2.0
    m_max = m + 1 if bc == "plane" else m
    sols = prefetch_solutions([(p, alpha, m_max) for p in ps], tol)

    if bc == "dirichlet":
        tab = cn.constant_table(m, alpha)
    elif bc == "neumann":
        tab = cn.neumann_constants(m)
    else:
        tab = cn.whole_plane_limits(m, alpha)

    per_key: dict = {}
    for p, w in zip(ps, sols):
        if bc == "dirichlet":
            tracked = _tracked_dirichlet(dirichlet_solution(w, m), tab, q)
        elif bc == "neumann":
            tracked = _tracked_neumann(neumann_solution(w, m), tab, q)
        else:
            tracked = _tracked_plane(w, m, tab)
        for key, (val, lim) in tracked.items():
            val, lim = float(val), float(lim)
            per_key.setdefault(key, []).append(ConvergenceRow(p, val, lim, abs(val - lim)))

    reports = []
    for (quantity, i), rows in per_key.items():
        errs = [r.abs_err for r in rows]
        reports.append(
            ConvergenceReport(
                quantity=quantity,
                bc=bc,
                m=m,
                alpha=float(alpha),
                i=i,
                rows=tuple(rows),
                extrapolated=richardson_extrapolate([(r.p, r.computed) for r in rows])
                if len(rows) >= 2 else math.nan,
                rate=_fit_rate(rows),
                monotone=all(b < a for a, b in zip(errs, errs[1:])),
            )
        )
    return reports


def green_profile_check(sol: RadialSolution, radii: np.ndarray | None = None) -> float:
    """Sup over radii of ``|p u(r) - gamma * log(1/r)|``.

    ``gamma`` is the signed strength of the logarithmic limit profile;
    radii default to [0.2, 1] (the comparison needs compact sets away
    from the concentration point at the origin).
    """
    if sol.bc != "dirichlet":
        raise ValueError("green_profile_check: defined for Dirichlet solutions")
    if radii is None:
        radii = np.linspace(0.2, 1.0, 161)
    radii = np.asarray(radii, dtype=float)
    if not np.all((0.05 <= radii) & (radii <= 1.0)):
        raise ValueError("green_profile_check: radii must lie in [0.05, 1]")
    gamma = cn.gamma_alpha_m(sol.alpha, sol.m)
    pu = sol.p * sol.eval_u(radii)
    return float(np.max(np.abs(pu - gamma * np.log(1.0 / radii))))


@dataclass(frozen=True)
class BubbleCheck:
    """Rescaled-profile comparison of one nodal region with its bubble.

    ``sup_err`` is the sup over the compact interval of |xi - Z|;
    the scale ratios all tend to 0 as p grows (``s_over_eps`` approaches
    the bubble's vanishing radius sigma, so its deviation is reported).
    """

    i: int
    sup_err: float
    r_over_eps: float
    s_over_eps: float
    sigma: float
    eps_over_next: float


def bubble_convergence_check(
    sol: RadialSolution,
    i: int,
    compact_interval: tuple[float, float] | None = None,
) -> BubbleCheck:
    """Compare the i-th rescaled nodal region against its limit bubble.

    The default interval is [sigma/2, 4*sigma] for i >= 1 and a fixed
    window around the concentration scale for i = 0; intervals outside
    the image of the nodal annulus are rejected by the rescaler.
    """
    spec = bubble_spec(i, sol.alpha)
    if compact_interval is None:
        radius = spec.concentration_radius
        lo, hi = radius / (2.0 if i >= 1 else 4.0), 4.0 * radius
    else:
        lo, hi = compact_interval
    if not 0.0 < lo < hi:
        raise ValueError("bubble_convergence_check: need 0 < lo < hi")
    grid = np.linspace(lo, hi, _BUBBLE_POINTS)
    prof = rescaled_profile(sol, i, grid)
    z = bubble_profile(spec, grid)
    sup_err = float(np.max(np.abs(prof.samples[:, 1] - z)))

    log_eps = prof.log_eps
    r_over_eps = (
        math.exp(sol.log_zeros[i - 1] - log_eps) if i >= 1 else math.nan)
    s_over_eps = (
        math.exp(sol.log_crit[i - 1] - log_eps) if i >= 1 else 0.0)
    hi_rel = float(sol.log_zeros[i]) if i < len(sol.log_zeros) else 0.0
    return BubbleCheck(
        i=i,
        sup_err=sup_err,
        r_over_eps=r_over_eps,
        s_over_eps=s_over_eps,
        sigma=spec.sigma_i_alpha,
        eps_over_next=math.exp(log_eps - hi_rel),
    )
