"""Radial ODE solver for -Delta u = |x|^alpha |u|^(p-1) u in log-radius.

The whole-plane radial solution normalized to u(0) = 1 is integrated in
t = ln r, where the equation becomes ``u_tt + e^((2+alpha) t) |u|^(p-1) u = 0``.
This removes both the coefficient singularity at r = 0 and the
astronomically large zero radii (for m nodal regions the m-th zero grows
like ``M^((p-1)/2)``); radii are kept as log-radii throughout and only
exponentiated in reported ratios.

Dirichlet, Neumann and Henon solutions in the unit disc are exact
rescalings of the same whole-plane trajectory, so one integration serves
every boundary condition at fixed (p, alpha).

Energies and the flux integral are carried as augmented quadrature
states.  The integration runs in SciPy's compiled DOP853, which hands
back only the accepted steps.  Zeros and critical points are located by
root finding on DOP853's 7th-order interpolant of the one step that
brackets each sign change; the interpolant is rebuilt after the fact
from the step's endpoints and re-evaluated stages (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6).  The same rebuild over every step gives
the dense output, which is built on first use and never pickled.
"""

from __future__ import annotations

import bisect
import logging
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, ode, quad
from scipy.optimize import brentq

from .constants import _check_alpha, m0_product_formula

__all__ = [
    "SolverError",
    "WholePlaneSolution",
    "RadialSolution",
    "RescaledProfile",
    "default_tolerance",
    "solve_whole_plane",
    "prefetch_solutions",
    "dirichlet_solution",
    "neumann_solution",
    "henon_crosscheck",
    "energies",
    "pohozaev_residual",
    "flux_identity_residual",
    "rescaled_profile",
]

#: start the integration where the equation coefficient is this small
_START_COEFF = 1e-12

#: on-trajectory combined exponents stay below ~30; clamp trial steps here
_EXP_CAP = 100.0

#: step limit (NMAX) handed to DOP853; a run past it is a SolverError
_MAX_STEPS = 1_000_000

#: event-localization tolerance, as in scipy.integrate.solve_ivp
_EVENT_XTOL = 4.0 * np.finfo(float).eps

_LOG = logging.getLogger("nodal")


class SolverError(RuntimeError):
    """Integration failed: step controller stalled or events missing."""


def default_tolerance() -> float:
    """Default solver tolerance; NODAL_TOL in the environment overrides."""
    env = os.environ.get("NODAL_TOL")
    if env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise ValueError(f"NODAL_TOL is not a float: {env!r}") from exc
        if not 0.0 < tol < 1.0:
            raise ValueError(f"NODAL_TOL out of range (0, 1): {tol!r}")
        return tol
    return 1e-10


@dataclass(frozen=True)
class WholePlaneSolution:
    """Normalized radial solution on the whole plane, sampled in log-radius.

    State components are ``(u, u_t, Eg, Ep)`` where ``Eg/Ep`` are the
    cumulative gradient/potential energy integrals from t = -inf.

    ``log_zeros[j]`` is ln(rho_(j+1)) for the first ``m_max`` zeros;
    ``log_crit[j]`` is ln(delta_(j+1)) for the critical points strictly
    between consecutive zeros (the critical point at the origin,
    delta_0 = 0 with u = 1, is implicit).
    """

    p: float
    alpha: float
    m_max: int
    tol: float
    t: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    log_zeros: np.ndarray
    zero_states: np.ndarray
    log_crit: np.ndarray
    crit_states: np.ndarray
    #: (Eg, Ep) at the stored nodes ``t``
    _energy: np.ndarray = field(repr=False, compare=False)
    #: (t, u, u_t, Eg, Ep) at the end of the accepted step holding the last
    #: zero; that step's interpolant also covers the truncated final segment
    _step_end: np.ndarray = field(repr=False, compare=False)
    _dense: _DenseOutput | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for arr in (self.t, self.u, self.ut, self.log_zeros, self.zero_states,
                    self.log_crit, self.crit_states, self._energy, self._step_end):
            arr.setflags(write=False)

    def __getstate__(self) -> dict:
        # the dense output is rebuilt on demand, so pickles stay small
        return {**self.__dict__, "_dense": None}

    @property
    def crit_values(self) -> np.ndarray:
        """Signed u at the detected critical points delta_1, delta_2, ..."""
        return self.crit_states[:, 0]

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def eval_state(self, t) -> np.ndarray:
        """Dense-output state at log-radius t (series continuation below
        the start point); accepts scalars or arrays, returns shape (4, ...)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr > self.t_end + 1e-9):
            raise ValueError("eval_state: log-radius beyond the integrated range")
        if self._dense is None:
            nodes = np.vstack([self.t, self.u, self.ut, self._energy])
            nodes[:, -1] = self._step_end
            object.__setattr__(self, "_dense", _DenseOutput(self.p, self.alpha, nodes))
        if t_arr.ndim == 0:
            if t_arr < self.t_start:
                return _series_state(self.p, self.alpha, t_arr)
            return self._dense.at(float(t_arr))
        out = np.empty((4, t_arr.size))
        early = t_arr < self.t_start
        if np.any(~early):
            out[:, ~early] = self._dense(t_arr[~early])
        if np.any(early):
            out[:, early] = _series_state(self.p, self.alpha, t_arr[early])
        return out

    def eval_u(self, t):
        return self.eval_state(t)[0]

    def eval_ut(self, t):
        return self.eval_state(t)[1]

    def to_dict(self, samples: int = 0) -> dict:
        out = {
            "p": self.p,
            "alpha": self.alpha,
            "bc": "plane",
            "m": self.m_max,
            "log_zeros": self.log_zeros.tolist(),
            "log_crit": self.log_crit.tolist(),
            "crit_values": self.crit_values.tolist(),
        }
        if samples > 0:
            idx = np.unique(np.linspace(0, len(self.t) - 1, samples).astype(int))
            out["samples"] = {
                "t": self.t[idx].tolist(),
                "u": self.u[idx].tolist(),
                "ut": self.ut[idx].tolist(),
            }
        return out


def _series_state(p: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Two-term small-radius expansion of the state (valid where e^(qt) is tiny)."""
    q = 2.0 + alpha
    e = np.exp(q * t)
    u = 1.0 - e / q**2 + p * e * e / (4.0 * q**4)
    ut = -e / q + p * e * e / (2.0 * q**3)
    eg = e * e / (2.0 * q**3) - p * e**3 / (3.0 * q**5)
    ep = e / q - (p + 1.0) * e * e / (2.0 * q**3)
    return np.stack([u, ut, eg, ep])


def _make_rhs(p: float, q: float):
    log = math.log
    exp = math.exp
    copysign = math.copysign

    def rhs(t: float, y) -> tuple:
        u = y[0]
        v = y[1]
        au = abs(u)
        if au < 1e-300:
            return (v, 0.0, v * v, 0.0)
        lu = log(au)
        ex = q * t + p * lu
        f = copysign(exp(min(ex, _EXP_CAP)), u) if ex > -700.0 else 0.0
        exg = ex + lu
        g = exp(min(exg, _EXP_CAP)) if exg > -700.0 else 0.0
        return (v, -f, v * v, g)

    return rhs


def _rhs_array(p: float, q: float, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The right-hand side of ``_make_rhs`` at many points: t (n,), y (4, n)."""
    u, v = y[0], y[1]
    au = np.abs(u)
    live = au >= 1e-300
    lu = np.log(np.where(live, au, 1.0))
    ex = q * t + p * lu
    f = np.where(live & (ex > -700.0), np.copysign(np.exp(np.minimum(ex, _EXP_CAP)), u), 0.0)
    exg = ex + lu
    g = np.where(live & (exg > -700.0), np.exp(np.minimum(exg, _EXP_CAP)), 0.0)
    return np.stack([v, -f, v * v, g])


def _step_coeffs(p: float, q: float, t0: np.ndarray, y0: np.ndarray,
                 t1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """DOP853 dense-output coefficients of the accepted steps t0 -> t1.

    The twelve stages of each step are re-evaluated from its start point,
    then the three extra interpolation stages, exactly as DOP853 does when
    it forms its continuous output; all steps go through the RHS at once.
    Returns F with shape (n, 7, 4): step k's interpolant at the step
    fraction x is ``y0[k] + _basis(x) @ F[k]``.
    """
    h = t1 - t0
    k = np.empty((16, 4, len(h)))
    k[0] = _rhs_array(p, q, t0, y0)
    for s in range(1, DOP853.n_stages):
        k[s] = _rhs_array(p, q, t0 + DOP853.C[s] * h,
                          y0 + h * np.tensordot(DOP853.A[s, :s], k[:s], axes=1))
    k[DOP853.n_stages] = _rhs_array(p, q, t1, y1)
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA),
                               start=DOP853.n_stages + 1):
        k[s] = _rhs_array(p, q, t0 + c * h, y0 + h * np.tensordot(a[:s], k[:s], axes=1))
    dy = y1 - y0
    f = np.empty((7, 4, len(h)))
    f[0] = dy
    f[1] = h * k[0] - dy
    f[2] = 2.0 * dy - h * (k[DOP853.n_stages] + k[0])
    f[3:] = h * np.tensordot(DOP853.D, k, axes=1)
    return np.moveaxis(f, 2, 0)


def _basis(x):
    """DOP853's interpolation basis x, x(1-x), x^2(1-x), ..., x^4(1-x)^3.

    DOP853 evaluates its interpolant in the nested form
    ``x(F0 + (1-x)(F1 + x(F2 + ...)))``; this is the same sum multiplied
    out.  x is a float or an array; returns a list of seven of the same.
    """
    out = [x]
    for j in range(1, 7):
        out.append(out[-1] * (1.0 - x if j % 2 else x))
    return out


class _DenseOutput:
    """Piecewise DOP853 interpolant over every accepted step."""

    def __init__(self, p: float, alpha: float, nodes: np.ndarray) -> None:
        # nodes: (t, u, u_t, Eg, Ep) rows at the accepted steps
        t, y = nodes[0], nodes[1:]
        self.t = t
        self.knots = t.tolist()
        self.y0 = y[:, :-1].T
        self.f = _step_coeffs(p, 2.0 + alpha, t[:-1], y[:, :-1], t[1:], y[:, 1:])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """States, shape (4, n), at the log-radii t."""
        k = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, len(self.t) - 2)
        x = ((t - self.t[k]) / (self.t[k + 1] - self.t[k]))[:, None, None]
        return (self.y0[k] + (np.concatenate(_basis(x), axis=2) @ self.f[k])[:, 0]).T

    def at(self, t: float) -> np.ndarray:
        """The state at one log-radius; a scalar path for quadrature loops."""
        k = min(max(bisect.bisect_right(self.knots, t) - 1, 0), len(self.knots) - 2)
        x = (t - self.knots[k]) / (self.knots[k + 1] - self.knots[k])
        return self.y0[k] + np.dot(_basis(x), self.f[k])


def _resolve_tol(tol: float | None) -> float:
    if tol is None:
        return default_tolerance()
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol out of range (0, 1): {tol!r}")
    return float(tol)


def _solve_key(p: float, alpha: float, m_max: int, tol: float) -> tuple:
    """Validated memo key (p, alpha, m_max, tol) of one whole-plane solve."""
    if not (math.isfinite(p) and math.isfinite(alpha)):
        raise ValueError(
            f"solve_whole_plane: p and alpha must be finite (p={p!r}, alpha={alpha!r})")
    if not p > 1.0:
        raise ValueError("solve_whole_plane: p must be > 1")
    if alpha < 0.0:
        raise ValueError("solve_whole_plane: alpha must be >= 0")
    if m_max < 1:
        raise ValueError("solve_whole_plane: m_max must be >= 1")
    return (float(p), float(alpha), int(m_max), tol)


_CACHE: dict[tuple, WholePlaneSolution] = {}
_CACHE_MAX = 64


def _cache_put(key: tuple, sol: WholePlaneSolution) -> None:
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = sol


def solve_whole_plane(
    p: float, alpha: float, m_max: int, tol: float | None = None
) -> WholePlaneSolution:
    """Integrate the normalized whole-plane solution up to its m_max-th zero.

    Integration stops at the step holding the ``m_max``-th sign change;
    zeros and the critical points strictly between them are located by
    root finding on the interpolant of the bracketing step
    (machine-accurate in t).  Results are immutable and memoized on
    (p, alpha, m_max, tol).

    Raises
    ------
    ValueError
        If p or alpha is not finite, p <= 1, alpha < 0 or m_max < 1.
    SolverError
        If the step controller fails, fewer than ``m_max`` zeros are found
        before the t cap, or the zero/critical interlacing is violated.
    """
    key = _solve_key(p, alpha, m_max, _resolve_tol(tol))
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    sol = _solve_impl(*key)
    _cache_put(key, sol)
    return sol


def _crosses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sign change from a to b, touching zero included (solve_ivp's rule)."""
    return ((a <= 0.0) & (b >= 0.0)) | ((a >= 0.0) & (b <= 0.0))


def _solve_impl(p: float, alpha: float, m_max: int, tol: float) -> WholePlaneSolution:
    q = 2.0 + alpha
    # predicted location of the last zero, with 20% margin plus slack for small p
    ln_m0 = math.log(m0_product_formula(m_max - 1))
    t_cap = 1.2 * (p - 1.0) / q * ln_m0 + 25.0
    t0 = math.log(_START_COEFF) / q
    y0 = _series_state(p, alpha, np.array([t0]))[:, 0]

    ts: list[float] = []
    ys: list[np.ndarray] = []
    crossings = 0

    def record_step(t: float, y: np.ndarray) -> int:
        nonlocal crossings
        if ys and _crosses(ys[-1][0], y[0]):
            crossings += 1
        ts.append(t)
        ys.append(y.copy())
        return -1 if crossings == m_max else 0

    solver = ode(_make_rhs(p, q)).set_integrator(
        "dop853", rtol=max(tol * 1e-2, 1e-13), atol=tol * 1e-4, nsteps=_MAX_STEPS)
    solver.set_solout(record_step)
    solver.set_initial_value(y0, t0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.integrate(t_cap)
    finally:
        # SciPy's DOP853 wrapper keeps a reference to every solout callback
        # it is handed (about 90 kB per solve with the recorded steps), so
        # detach the recorder; what stays behind is about 2 kB per solve
        solver.set_solout(None)
    if solver.get_return_code() < 0:
        detail = "; ".join(str(w.message) for w in caught)
        raise SolverError(
            f"step controller failed: {detail or solver.get_return_code()} "
            f"(p={p}, alpha={alpha})")

    t = np.array(ts)
    y = np.array(ys).T
    zero_steps = np.flatnonzero(_crosses(y[0, :-1], y[0, 1:]))
    if len(zero_steps) < m_max:
        raise SolverError(
            f"found {len(zero_steps)} of {m_max} zeros before t cap {t_cap:.1f} "
            f"(p={p}, alpha={alpha}); the solution decayed or the cap is too tight"
        )
    zero_steps = zero_steps[:m_max]
    # critical points before the first zero are roundoff artifacts of the
    # flat start; the rest must interlace the zeros, exactly one per gap
    crit_steps = np.flatnonzero(_crosses(y[1, :-1], y[1, 1:]))
    crit_steps = crit_steps[crit_steps >= zero_steps[0]]

    # one vectorized interpolant rebuild for every bracketing step
    steps = np.union1d(zero_steps, crit_steps)
    coeffs = _step_coeffs(p, q, t[steps], y[:, steps], t[steps + 1], y[:, steps + 1])

    def locate(k: int, comp: int) -> tuple[float, np.ndarray]:
        """Root of state component ``comp`` inside step k, and the state there."""
        f = coeffs[np.searchsorted(steps, k)]
        ta, tb = float(t[k]), float(t[k + 1])

        def state(s: float) -> np.ndarray:
            return y[:, k] + np.dot(_basis((s - ta) / (tb - ta)), f)

        root = brentq(lambda s: state(s)[comp], ta, tb, xtol=_EVENT_XTOL, rtol=_EVENT_XTOL)
        return root, state(root)

    zeros = [locate(k, 0) for k in zero_steps]
    lam = np.array([z[0] for z in zeros])
    zero_states = np.array([z[1] for z in zeros])

    crits = [locate(k, 1) for k in crit_steps]
    tau_all = np.array([c[0] for c in crits])
    log_crit = np.empty(m_max - 1)
    crit_states = np.empty((m_max - 1, 4))
    for j in range(m_max - 1):
        mask = (tau_all > lam[j]) & (tau_all < lam[j + 1])
        if int(mask.sum()) != 1:
            raise SolverError(
                f"expected exactly one critical point between zeros {j + 1} and "
                f"{j + 2}, found {int(mask.sum())} (p={p}, alpha={alpha})"
            )
        k = int(np.flatnonzero(mask)[0])
        log_crit[j] = tau_all[k]
        crit_states[j] = crits[k][1]

    vals = np.abs(crit_states[:, 0])
    if np.any(vals >= 1.0) or np.any(np.diff(vals) >= 0.0):
        raise SolverError(
            f"critical values fail to decay strictly from u(0)=1 "
            f"(p={p}, alpha={alpha}): {vals}"
        )

    # keep the trajectory up to the last zero, as a terminal event would
    last = int(zero_steps[-1])
    nodes = np.column_stack([np.vstack([t, y])[:, : last + 1],
                             np.concatenate([[lam[-1]], zero_states[-1]])])
    return WholePlaneSolution(
        p=float(p),
        alpha=float(alpha),
        m_max=int(m_max),
        tol=tol,
        t=nodes[0],
        u=nodes[1],
        ut=nodes[2],
        log_zeros=lam,
        zero_states=zero_states,
        log_crit=log_crit,
        crit_states=crit_states,
        _energy=nodes[3:],
        _step_end=np.concatenate([[t[last + 1]], y[:, last + 1]]),
    )


def _solve_job(key: tuple) -> tuple[tuple, WholePlaneSolution]:
    return key, _solve_impl(*key)


def prefetch_solutions(
    params: list[tuple[float, float, int]],
    tol: float | None = None,
    workers: int | None = None,
) -> None:
    """Solve a batch of (p, alpha, m_max) jobs, concurrently when possible.

    Results land in the memo cache used by :func:`solve_whole_plane`, in a
    deterministic order keyed by the inputs.  Errors raised by a solve
    propagate unchanged.  Only when a process pool cannot be created or
    breaks does the batch fall back to sequential solving; each fallback
    is logged at DEBUG on the ``nodal`` logger.
    """
    tol = _resolve_tol(tol)
    keys = sorted({_solve_key(p, alpha, m_max, tol) for p, alpha, m_max in params}
                  - _CACHE.keys())
    if not keys:
        return
    if workers is None:
        workers = min(len(keys), os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for key, sol in pool.map(_solve_job, keys):
                    _cache_put(key, sol)
            return
        except (OSError, NotImplementedError, BrokenProcessPool) as exc:
            _LOG.debug("prefetch_solutions: process pool unavailable (%s: %s); "
                       "solving %d jobs sequentially", type(exc).__name__, exc, len(keys))
    for key in keys:
        if key not in _CACHE:
            _cache_put(key, _solve_impl(*key))


@dataclass(frozen=True)
class RadialSolution:
    """Dirichlet or Neumann radial solution on the unit disc.

    Radii are stored as logs of the ratios to the rescaling radius
    (``log_scale`` in whole-plane coordinates), so they remain meaningful
    when the plain ratios underflow.  ``log_zeros`` covers r_1..r_m for
    Dirichlet (r_m = 1) and the interior zeros r_1..r_(m-1) for Neumann;
    ``log_crit`` covers the critical points s_1..s_(m-1), with the
    Neumann boundary critical point s_(m-1) = 1 included as 0.0 and the
    universal s_0 = 0 implicit.  ``crit_values[i]`` is the signed value
    u(s_i) for i = 0..m-1.
    """

    bc: str
    m: int
    p: float
    alpha: float
    log_scale: float
    log_zeros: np.ndarray
    log_crit: np.ndarray
    crit_values: np.ndarray
    deriv_at_zeros: np.ndarray
    boundary_derivative: float
    energy_grad: float
    energy_pot: float
    plane: WholePlaneSolution = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        for arr in (self.log_zeros, self.log_crit, self.crit_values,
                    self.deriv_at_zeros):
            arr.setflags(write=False)

    @property
    def zeros(self) -> np.ndarray:
        """Zero radii in (0, 1]; may underflow to 0 for extreme p."""
        return np.exp(self.log_zeros)

    @property
    def crit(self) -> np.ndarray:
        """Critical radii, s_0 = 0 included; aligned with crit_values."""
        return np.concatenate([[0.0], np.exp(self.log_crit)])

    @property
    def amplitude_scale(self) -> float:
        """exp(kappa * log_scale): the factor mapping w-values to u-values."""
        kappa = (self.alpha + 2.0) / (self.p - 1.0)
        return math.exp(kappa * self.log_scale)

    def eval_u(self, r):
        """u(r) for r in [0, 1], via the whole-plane dense output."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0.0) or np.any(r_arr > 1.0 + 1e-12):
            raise ValueError("eval_u: radii must lie in [0, 1]")
        scalar = r_arr.ndim == 0
        r_arr = np.atleast_1d(r_arr)
        out = np.empty_like(r_arr)
        at0 = r_arr == 0.0
        out[at0] = self.crit_values[0]
        if np.any(~at0):
            t = self.log_scale + np.log(r_arr[~at0])
            out[~at0] = self.amplitude_scale * self.plane.eval_u(t)
        return float(out[0]) if scalar else out

    def to_dict(self, samples: int = 0) -> dict:
        out = {
            "p": self.p,
            "alpha": self.alpha,
            "bc": self.bc,
            "m": self.m,
            "log_zeros": self.log_zeros.tolist(),
            "log_crit": self.log_crit.tolist(),
            "crit_values": self.crit_values.tolist(),
            "boundary_derivative": self.boundary_derivative,
            "energy_grad": self.energy_grad,
            "energy_pot": self.energy_pot,
        }
        if samples > 0:
            mask = self.plane.t <= self.log_scale
            ts = self.plane.t[mask]
            us = self.plane.u[mask]
            idx = np.unique(np.linspace(0, len(ts) - 1, samples).astype(int))
            r = np.exp(ts[idx] - self.log_scale)
            out["samples"] = {
                "r": r.tolist(),
                "u": (self.amplitude_scale * us[idx]).tolist(),
            }
        return out


def _rescaled(w: WholePlaneSolution, bc: str, m: int, n_zeros: int,
              L: float, state: np.ndarray) -> RadialSolution:
    """w rescaled so that log-radius ``L`` becomes the unit circle.

    ``state`` is w's augmented state (u, u_t, energies) at ``L``; the
    first ``n_zeros`` zeros and the first m-1 critical points are kept.
    """
    kappa = (w.alpha + 2.0) / (w.p - 1.0)
    amp = math.exp(kappa * L)
    pref = w.p * math.exp(2.0 * kappa * L)
    return RadialSolution(
        bc=bc,
        m=m,
        p=w.p,
        alpha=w.alpha,
        log_scale=L,
        log_zeros=w.log_zeros[:n_zeros] - L,
        log_crit=w.log_crit[: m - 1] - L,
        crit_values=np.concatenate([[amp], amp * w.crit_states[: m - 1, 0]]),
        deriv_at_zeros=w.p * amp * np.abs(w.zero_states[:n_zeros, 1]),
        boundary_derivative=float(amp * state[1]),
        energy_grad=float(pref * state[2]),
        energy_pot=float(pref * state[3]),
        plane=w,
    )


def dirichlet_solution(w: WholePlaneSolution, m: int) -> RadialSolution:
    """Dirichlet solution with m nodal regions: w rescaled at its m-th zero."""
    if not 1 <= m <= w.m_max:
        raise ValueError(f"dirichlet_solution: m={m} out of range 1..{w.m_max}")
    return _rescaled(w, "dirichlet", m, m, float(w.log_zeros[m - 1]), w.zero_states[m - 1])


def neumann_solution(w: WholePlaneSolution, m: int) -> RadialSolution:
    """Neumann solution with m nodal regions: w rescaled at delta_(m-1).

    Nontrivial Neumann solutions are necessarily sign-changing, so m = 1 is
    rejected.
    """
    if m < 2:
        raise ValueError("neumann_solution: m must be >= 2 (solutions are nodal)")
    if m > w.m_max:
        raise ValueError(f"neumann_solution: m={m} out of range 2..{w.m_max}")
    return _rescaled(w, "neumann", m, m - 1, float(w.log_crit[m - 2]), w.crit_states[m - 2])


def energies(sol: RadialSolution) -> tuple[float, float]:
    """(gradient, potential) energies ``p * int |u'|^2 r dr`` and
    ``p * int |u|^(p+1) r^(1+alpha) dr``, accumulated as augmented states."""
    return sol.energy_grad, sol.energy_pot


def pohozaev_residual(sol: RadialSolution) -> float:
    """Relative defect of the exact boundary-flux/energy identity.

    For the Dirichlet solution at any finite p,
    ``p * int_0^1 |u|^(p+1) r^(1+alpha) dr
    = (1 + 1/p) * [p u'(1)]^2 / (2 (2 + alpha))``
    (the classical 1/4 factor at alpha = 0).  Being exact at every p, the
    residual gauges pure solver accuracy.
    """
    if sol.bc != "dirichlet":
        raise ValueError("pohozaev_residual: defined for Dirichlet solutions")
    pu1 = sol.p * abs(sol.boundary_derivative)
    rhs = (1.0 + 1.0 / sol.p) * pu1 * pu1 / (2.0 * (2.0 + sol.alpha))
    return abs(sol.energy_pot - rhs) / sol.energy_pot


def flux_identity_residual(sol: RadialSolution, s: float, t: float) -> float:
    """Defect of ``u'(s)s - u'(t)t = int_s^t |u|^(p-1) u r^(1+alpha) dr``.

    The right side is evaluated by independent adaptive quadrature on the
    dense trajectory (in log-radius), so the residual measures how well
    the computed trajectory satisfies the equation in integral form.
    Reported relative to the derivative scale max(|u'(s)s|, |u'(t)t|).
    """
    if not 0.0 < s < t <= 1.0:
        raise ValueError("flux_identity_residual: need 0 < s < t <= 1")
    p, q = sol.p, sol.alpha + 2.0
    plane = sol.plane
    ta = sol.log_scale + math.log(s)
    tb = sol.log_scale + math.log(t)

    def integrand(tt: float) -> float:
        u = float(plane.eval_u(tt))
        au = abs(u)
        if au < 1e-300:
            return 0.0
        ex = q * tt + p * math.log(au)
        return math.copysign(math.exp(ex), u) if ex > -700.0 else 0.0

    breaks = [x for x in np.concatenate([plane.log_zeros, plane.log_crit])
              if ta < x < tb]
    integral, _ = quad(
        integrand, ta, tb, epsabs=1e-14, epsrel=1e-11, limit=800,
        points=sorted(breaks) if breaks else None,
    )
    wt_a = float(plane.eval_ut(ta))
    wt_b = float(plane.eval_ut(tb))
    scale = max(abs(wt_a), abs(wt_b), 1e-300)
    return abs(wt_a - wt_b - integral) / scale


def henon_crosscheck(
    w0: WholePlaneSolution, alpha: float, tol: float | None = None
) -> float:
    """Max log-radius discrepancy between two routes to the weighted problem.

    Route one maps the alpha = 0 solution through r -> r^((alpha+2)/2) and
    renormalizes the center value to 1 (the amplitude correction shifts
    every log-zero by ln((alpha+2)/2) before scaling by 2/(alpha+2));
    route two solves at alpha directly.  Zero and critical sets are
    compared in log-radius.
    """
    if w0.alpha != 0.0:
        raise ValueError("henon_crosscheck: base solution must have alpha = 0")
    _check_alpha("henon_crosscheck", alpha)
    wa = solve_whole_plane(w0.p, alpha, w0.m_max, tol if tol is not None else w0.tol)
    shift = math.log((alpha + 2.0) / 2.0)
    scale = 2.0 / (alpha + 2.0)
    mapped_zeros = scale * (w0.log_zeros + shift)
    mapped_crit = scale * (w0.log_crit + shift)
    res = float(np.max(np.abs(mapped_zeros - wa.log_zeros)))
    if len(mapped_crit):
        res = max(res, float(np.max(np.abs(mapped_crit - wa.log_crit))))
    return res


@dataclass(frozen=True)
class RescaledProfile:
    """Blow-up rescaling of one nodal region against the radial variable.

    ``log_eps`` is the log of the concentration scale; ``samples`` has
    columns (r, xi) with xi vanishing at the image of the critical point
    and xi <= 0 throughout the region.
    """

    i: int
    log_eps: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples.setflags(write=False)

    @property
    def eps(self) -> float:
        """May underflow to 0 for extreme p; use log_eps then."""
        return math.exp(self.log_eps)


def rescaled_profile(sol: RadialSolution, i: int, r_grid: np.ndarray) -> RescaledProfile:
    """Rescale the i-th nodal region of ``sol`` onto its concentration scale.

    The scale is ``eps_i = ((alpha+2)/2)^(2/(alpha+2))
    * [p |u(s_i)|^(p-1)]^(-1/(2+alpha))``, formed in log space, and
    ``xi(r) = p ((-1)^i u(eps_i r) - |u(s_i)|) / |u(s_i)|``.  The grid
    must lie inside the image of the i-th nodal annulus.
    """
    if not 0 <= i <= sol.m - 1:
        raise ValueError(f"rescaled_profile: i={i} out of range 0..{sol.m - 1}")
    p, q = sol.p, sol.alpha + 2.0
    ln_u_crit = math.log(abs(sol.crit_values[i]))
    log_eps = (2.0 / q) * math.log(q / 2.0) - (math.log(p) + (p - 1.0) * ln_u_crit) / q

    lo_rel = -math.inf if i == 0 else float(sol.log_zeros[i - 1])
    hi_rel = float(sol.log_zeros[i]) if i < len(sol.log_zeros) else 0.0

    r = np.asarray(r_grid, dtype=float)
    if np.any(r < 0.0) or (i >= 1 and np.any(r == 0.0)):
        raise ValueError("rescaled_profile: radii must be positive")
    with np.errstate(divide="ignore"):
        log_r_rel = log_eps + np.log(r)
    slack = 1e-9
    if np.any(log_r_rel < lo_rel - slack) or np.any(log_r_rel > hi_rel + slack):
        raise ValueError(
            f"rescaled_profile: grid leaves the nodal annulus of region {i} "
            f"(allowed r in [{math.exp(max(lo_rel - log_eps, -700)):.4g}, "
            f"{math.exp(min(hi_rel - log_eps, 700)):.4g}])"
        )

    w_crit = abs(sol.crit_values[i]) / sol.amplitude_scale
    sign = 1.0 if i % 2 == 0 else -1.0
    t_abs = sol.log_scale + log_r_rel
    w_vals = np.ones_like(r)  # r = 0 only occurs for i = 0, where w(0) = 1
    pos = r > 0.0
    if np.any(pos):
        w_vals[pos] = sol.plane.eval_u(t_abs[pos])
    xi = p * (sign * w_vals - w_crit) / w_crit
    return RescaledProfile(
        i=i, log_eps=float(log_eps), samples=np.column_stack([r, xi])
    )
