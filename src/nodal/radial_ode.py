"""Radial ODE solver for -Delta u = |x|^alpha |u|^(p-1) u in log-radius.

The whole-plane radial solution normalized to u(0) = 1 is integrated in
t = ln r, where the equation becomes ``u_tt + e^((2+alpha) t) |u|^(p-1) u = 0``.
This removes both the coefficient singularity at r = 0 and the
astronomically large zero radii (for m nodal regions the m-th zero grows
like ``M^((p-1)/2)``); radii are kept as log-radii throughout, and a disc
solution reports them only so (``np.exp(log_zeros)``, which underflows to 0
at large p, is the caller's choice).

Dirichlet, Neumann and Henon solutions in the unit disc are exact
rescalings of the same whole-plane trajectory, so one integration serves
every boundary condition at fixed (p, alpha).  A disc solution is a view
of that trajectory; its values are scaled to the disc only when read.

The energies are carried as augmented quadrature states.  All of DOP853
lives in ``nodal._dop853``: its stepper runs on plain floats, evaluates
the right-hand side inline at each stage (``_rhs_array`` is its array
form, and the constants of its branches are defined here, once), and
takes the same steps as SciPy's ``ode('dop853')`` bit for bit,
PI-controlled (Gustafsson, ACM TOMS 17, 1991) with ``beta = 0.04``, which
halves the rejected steps.
It keeps the solve's one record, a row per accepted step, and alone decides
which steps hold a zero of u or of u_t, stopping at the ``m_max``-th zero.
Zeros and critical points are located by Brent's method (``_brentq``, the
same doubles as SciPy's ``brentq``) on DOP853's 7th-order interpolant
(``_dop853.DenseOutput``), rebuilt over the bracketing steps only.  The
same rebuild over every step gives the dense output: built on first use,
never pickled, evaluated on one vectorized path, on which the shell flux
integral is the package's tanh-sinh rule (``bubbles._tanh_sinh``), one
dense evaluation per level from level 5 on.

Every solve goes through :func:`prefetch_solutions`, which returns its
solutions and is the one place that writes the memo;
:func:`solve_whole_plane` is a batch of one.  Batches share one process
pool per process: forked by the first batch that needs more than one
worker, reused by later batches, replaced when a batch asks for another
worker count or when the pool breaks, and shut down at interpreter exit
(a worker whose parent process has gone exits too).

No process loads SciPy.  ``_dop853`` is imported only where the solver
runs, in ``_solve_impl`` and ``WholePlaneSolution.eval_state``: compiling
it took about 5 ms, which the p -> infinity commands need not pay.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .bubbles import QuadratureError, _tanh_sinh
from .constants import _check_alpha, _check_count, _check_p, _check_tol, m0_product_formula

if TYPE_CHECKING:
    from . import _dop853

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

#: the right-hand side's branches: on-trajectory combined exponents stay
#: below ~30, and trial steps clamp them at _EXP_CAP; an exponent at or below
#: _EXP_FLOOR, or |u| below _U_FLOOR, gives a nonlinearity of 0
_EXP_CAP = 100.0
_EXP_FLOOR = -700.0
_U_FLOOR = 1e-300

#: step limit (NMAX) of the DOP853 stepper; a run past it is a SolverError
#: whose message keeps DOP853's "larger nsteps is needed"
_MAX_STEPS = 1_000_000

#: event-localization tolerance of ``_brentq`` (absolute and relative), as in
#: scipy.integrate.solve_ivp
_EVENT_XTOL = 4.0 * np.finfo(float).eps

_LOG = logging.getLogger("nodal")


class SolverError(RuntimeError):
    """Integration failed (start series overflow, step controller stall,
    missing events), or a value read off a disc solution leaves the double range."""


def default_tolerance() -> float:
    """Default solver tolerance."""
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
    _dense: _dop853.DenseOutput | None = field(default=None, repr=False, compare=False)

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
        the start point, down to t = -inf); t of any shape, returns shape
        (4, *t.shape).  A NaN log-radius is a ValueError."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all(t_arr <= self.t_end + 1e-9):
            why = "is NaN" if np.any(np.isnan(t_arr)) else "beyond the integrated range"
            raise ValueError(f"eval_state: log-radius {why}")
        if self._dense is None:
            from . import _dop853

            nodes = np.vstack([self.t, self.u, self.ut, self._energy])
            nodes[:, -1] = self._step_end
            t, y = nodes[0], nodes[1:]
            object.__setattr__(self, "_dense", _dop853.DenseOutput(
                partial(_rhs_array, self.p, 2.0 + self.alpha), t[:-1], y[:, :-1], t[1:], y[:, 1:]))
        flat = t_arr.ravel()
        out = np.empty((4, flat.size))
        early = flat < self.t_start
        if np.any(~early):
            out[:, ~early] = self._dense(flat[~early])
        if np.any(early):
            out[:, early] = _series_state(self.p, self.alpha, flat[early])
        return out.reshape(4, *t_arr.shape)

    def eval_u(self, t):
        return self.eval_state(t)[0]

    def eval_ut(self, t):
        return self.eval_state(t)[1]


def _series_state(p: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Two-term small-radius expansion of the state (valid where e^(qt) is tiny)."""
    q = 2.0 + alpha
    e = np.exp(q * t)
    u = 1.0 - e / q**2 + p * e * e / (4.0 * q**4)
    ut = -e / q + p * e * e / (2.0 * q**3)
    eg = e * e / (2.0 * q**3) - p * e**3 / (3.0 * q**5)
    ep = e / q - (p + 1.0) * e * e / (2.0 * q**3)
    return np.stack([u, ut, eg, ep])


def _rhs_array(p: float, q: float, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The right-hand side ``(u_t, -f, u_t^2, g)`` at many points: t (n,),
    y (4, n).  With ``ex = q t + p ln|u|``, f is e^ex with the sign of u
    and g is e^(ex + ln|u|), each clamped at ``_EXP_CAP`` and 0 for an
    exponent at or below ``_EXP_FLOOR`` or for |u| below ``_U_FLOOR``.
    ``_dop853.solve_to_zeros`` evaluates the same branches inline."""
    u, v = y[0], y[1]
    au = np.abs(u)
    live = au >= _U_FLOOR
    lu = np.log(np.where(live, au, 1.0))
    ex = q * t + p * lu
    f = np.where(live & (ex > _EXP_FLOOR), np.copysign(np.exp(np.minimum(ex, _EXP_CAP)), u), 0.0)
    exg = ex + lu
    g = np.where(live & (exg > _EXP_FLOOR), np.exp(np.minimum(exg, _EXP_CAP)), 0.0)
    return np.stack([v, -f, v * v, g])


def _solve_key(p: float, alpha: float, m_max: int, tol: float) -> tuple:
    """Validated memo key (p, alpha, m_max, tol) of one whole-plane solve."""
    _check_p("solve_whole_plane", p)
    _check_alpha("solve_whole_plane", alpha)
    _check_count("solve_whole_plane", "m_max", m_max, 1)
    return (float(p), float(alpha), int(m_max), tol)


_CACHE: dict[tuple, WholePlaneSolution] = {}
_CACHE_MAX = 64


def solve_whole_plane(
    p: float, alpha: float, m_max: int, tol: float | None = None
) -> WholePlaneSolution:
    """Integrate the normalized whole-plane solution up to its m_max-th zero.

    Integration stops at the step holding the ``m_max``-th sign change;
    zeros and the critical points strictly between them are located by
    root finding on the interpolant of the bracketing step
    (machine-accurate in t).  This is a batch of one for
    :func:`prefetch_solutions`, solved in-process; results are immutable
    and memoized on (p, alpha, m_max, tol).

    Raises
    ------
    ValueError
        If p or alpha is not finite, p <= 1, alpha < 0, m_max is not an
        integer >= 1 or tol is outside (0, 1).
    SolverError
        If the step controller fails, fewer than ``m_max`` zeros are found
        before the t cap, or the zero/critical interlacing is violated.
    """
    return prefetch_solutions([(p, alpha, m_max)], tol)[0]


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f between xa and xb, where f changes sign, by Brent's method
    (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4):
    inverse quadratic or secant steps kept inside a shrinking bracket, else
    bisection.  Step for step SciPy's ``brentq``, so it returns the same double."""
    xpre, xcur, xblk, fblk, spre, scur = xa, xb, 0.0, 0.0, 0.0, 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(f"root finding: no sign change on [{xa!r}, {xb!r}]")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolverError(f"root finding did not converge in 100 iterations (at {xcur!r})")


def _solve_impl(p: float, alpha: float, m_max: int, tol: float) -> WholePlaneSolution:
    from . import _dop853

    q = 2.0 + alpha
    # predicted location of the last zero, with 20% margin plus slack for small p
    ln_m0 = math.log(m0_product_formula(m_max - 1))
    t_cap = 1.2 * (p - 1.0) / q * ln_m0 + 25.0
    t0 = math.log(_START_COEFF) / q
    try:
        y0 = _series_state(p, alpha, np.array([t0]))[:, 0]
    except OverflowError:  # (2 + alpha)**5 in the series, from alpha ~ 4.6e61 up
        raise SolverError(f"start series leaves the double range (p={p}, alpha={alpha})") from None

    # one record: a (t, u, u_t, Eg, Ep) row per accepted node, and the index
    # of each step (node k -> k + 1) that holds a sign change of u or of u_t
    try:
        rows, zero_steps, crit_steps, _ = _dop853.solve_to_zeros(
            p, q, t0, y0.tolist(), t_cap, max(tol * 1e-2, 1e-13), tol * 1e-4, _MAX_STEPS, m_max)
    except _dop853.StepFailure as exc:
        raise SolverError(
            f"step controller failed: dop853: {exc} (p={p}, alpha={alpha})") from None

    if len(zero_steps) < m_max:
        raise SolverError(
            f"found {len(zero_steps)} of {m_max} zeros before t cap {t_cap:.1f} "
            f"(p={p}, alpha={alpha}); the solution decayed or the cap is too tight"
        )
    # the record ends with the step that holds the last zero
    nodes = np.array(rows).T
    t, y = nodes[0], nodes[1:]

    # one vectorized interpolant rebuild for every bracketing step
    steps = np.array(sorted({*zero_steps, *crit_steps}))
    dense = _dop853.DenseOutput(partial(_rhs_array, p, q), t[steps], y[:, steps],
                                t[steps + 1], y[:, steps + 1])

    def locate(k: int, comp: int) -> tuple[float, np.ndarray]:
        """Root of state component ``comp`` inside step k, and the state there."""
        i = int(np.searchsorted(steps, k))
        root = _brentq(lambda s: dense.state(i, s)[comp], float(t[k]), float(t[k + 1]),
                       _EVENT_XTOL, _EVENT_XTOL)
        return root, dense.state(i, root)

    lam, zero_states = map(np.array, zip(*(locate(k, 0) for k in zero_steps)))

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

    # end at the last zero, as a terminal event would; a copy keeps the step's end
    step_end = nodes[:, -1].copy()
    nodes[0, -1], nodes[1:, -1] = lam[-1], zero_states[-1]
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
        _step_end=step_end,
    )


#: the process's one solve pool and its worker count (see prefetch_solutions);
#: every batch holds the lock while it solves, pooled or in-process
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()

#: seconds between a pool worker's checks that its parent process still runs
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: a daemon thread ends the worker once its parent
    process has gone, so a process killed by a signal leaves no idle worker."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="nodal-parent-watch", daemon=True).start()


def _close_pool() -> None:
    """Shut the solve pool down, waiting for its workers; the next batch forks anew."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _solve_on_pool(keys: list[tuple], workers: int) -> tuple[list[Future] | None, str]:
    """Solve ``keys`` on the solve pool and wait until every job has ended.

    Returns every job's future in key order, or None when the pool could
    not be had or broke and the whole batch must run in-process; and the
    words the batch's DEBUG record gives for either.
    """
    global _POOL, _POOL_WORKERS
    pool_errors = (OSError, NotImplementedError, BrokenProcessPool)
    try:
        reused = _POOL is not None and _POOL_WORKERS == workers
        if not reused:
            _close_pool()  # first, so no other pool's threads run while workers fork
            _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
            _POOL_WORKERS = workers
        futures = [_POOL.submit(_solve_impl, *key) for key in keys]
        wait(futures)
        failure = next((f.exception() for f in futures if f.exception() is not None), None)
    except pool_errors as exc:
        failure = exc
    if isinstance(failure, pool_errors):
        _close_pool()
        return None, ("sequentially (process pool unavailable or broken, "
                      f"{type(failure).__name__}: {failure})")
    return futures, f"on the {'reused' if reused else 'newly forked'} pool of {workers} workers"


def prefetch_solutions(
    params: list[tuple[float, float, int]],
    tol: float | None = None,
    workers: int | None = None,
) -> list[WholePlaneSolution]:
    """Solve a batch of (p, alpha, m_max) jobs, concurrently when possible,
    and return their solutions in the order of ``params``.

    This is the one way into the solver and the one writer of the memo:
    every key is validated, memo hits are taken as they are, and each
    other distinct key is solved once; the new solutions enter the memo in
    key order.  Errors raised by a solve propagate unchanged, the first in
    key order, and the solutions before it stay memoized.  ``workers``
    defaults to one per job up to the CPU count; it must be an integer >= 1.

    A batch with more than one worker runs on the process's one solve
    pool: forked by the first such batch and reused by later ones,
    replaced when a batch asks for another worker count, dropped when it
    breaks, and shut down at interpreter exit; a worker also exits once
    its parent process has gone.  A batch whose pool cannot be created or
    breaks is solved in-process as a whole; the next batch forks a new pool.
    Every batch solves and writes the memo under one process-wide lock,
    pooled or not, so no two batches replace the pool or write the memo at once.
    Each batch with something to solve logs one DEBUG record on the
    ``nodal`` logger: its job count and whether it reused the pool, forked
    a new one, or ran sequentially, and why.  A batch served wholly from
    the memo logs nothing.
    """
    if workers is not None:
        _check_count("prefetch_solutions", "workers", workers, 1)
    if tol is None:
        tol = default_tolerance()
    _check_tol("prefetch_solutions", tol)
    keys = [_solve_key(p, alpha, m_max, float(tol)) for p, alpha, m_max in params]
    found = {key: _CACHE[key] for key in keys if key in _CACHE}
    misses = sorted(set(keys) - found.keys())
    if misses:
        if workers is None:
            workers = min(len(misses), os.cpu_count() or 1)
        with _POOL_LOCK:
            futures, how = (_solve_on_pool(misses, workers) if workers > 1
                            else (None, "sequentially (one worker)"))
            _LOG.debug("prefetch_solutions: %d jobs %s", len(misses), how)
            solved = ((_solve_impl(*key) for key in misses) if futures is None
                      else (future.result() for future in futures))
            for key, sol in zip(misses, solved):
                if len(_CACHE) >= _CACHE_MAX:
                    _CACHE.pop(next(iter(_CACHE)))
                _CACHE[key] = found[key] = sol
    return [found[key] for key in keys]


@dataclass(frozen=True)
class RadialSolution:
    """Dirichlet or Neumann solution on the unit disc: a view of ``plane``
    rescaled so that its log-radius ``log_scale`` = L is the unit circle.

    Radii are log-ratios to that radius.  ``log_zeros`` covers r_1..r_m
    for Dirichlet (r_m = 1) and r_1..r_(m-1) for Neumann; ``log_crit``
    covers s_1..s_(m-1), the Neumann s_(m-1) = 1 included as 0.0;
    ``crit_values[i]`` is u(s_i) for i = 0..m-1, s_0 = 0.  Values carry
    u(0) = e^(kappa L), kappa = (2+alpha)/(p-1), and energies e^(2 kappa L),
    applied when read; close to p = 1 a read can raise SolverError.
    """

    bc: str
    m: int
    p: float
    alpha: float
    log_scale: float
    #: the plane's state (u, u_t, Eg, Ep) at ``log_scale``
    _state: np.ndarray = field(repr=False, compare=False)
    plane: WholePlaneSolution = field(repr=False, compare=False)

    def _disc(self, x, k: int = 1, coeff: float = 1.0):
        """``coeff * e^(k kappa L) * x``, or SolverError where that is not finite."""
        kappa = (self.alpha + 2.0) / (self.p - 1.0)
        try:
            with np.errstate(over="ignore"):
                out = coeff * math.exp(k * kappa * self.log_scale) * x
        except OverflowError:
            out = math.inf
        if not np.all(np.isfinite(out)):
            raise SolverError(
                f"the {self.bc} solution leaves the double range: u(0) = "
                f"exp({kappa * self.log_scale:.6g}) (p={self.p}, alpha={self.alpha}, m={self.m})")
        return out

    @property
    def _n_zeros(self) -> int:
        return self.m if self.bc == "dirichlet" else self.m - 1

    @property
    def log_zeros(self) -> np.ndarray:
        return self.plane.log_zeros[: self._n_zeros] - self.log_scale

    @property
    def log_crit(self) -> np.ndarray:
        return self.plane.log_crit[: self.m - 1] - self.log_scale

    @property
    def crit_values(self) -> np.ndarray:
        return self._disc(np.concatenate([[1.0], self.plane.crit_states[: self.m - 1, 0]]))

    @property
    def deriv_at_zeros(self) -> np.ndarray:
        return self._disc(np.abs(self.plane.zero_states[: self._n_zeros, 1]), coeff=self.p)

    @property
    def boundary_derivative(self) -> float:
        return float(self._disc(self._state[1]))

    @property
    def energy_grad(self) -> float:
        return float(self._disc(self._state[2], 2, self.p))

    @property
    def energy_pot(self) -> float:
        return float(self._disc(self._state[3], 2, self.p))

    @property
    def amplitude_scale(self) -> float:
        """exp(kappa * log_scale): the factor mapping w-values to u-values."""
        return self._disc(1.0)

    def eval_u(self, r):
        """u(r) for r in [0, 1], via the whole-plane dense output (r = 0 is
        t = -inf, where the series gives w = 1 exactly)."""
        r_arr = np.asarray(r, dtype=float)
        if not np.all((0.0 <= r_arr) & (r_arr <= 1.0 + 1e-12)):
            raise ValueError("eval_u: radii must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            t = self.log_scale + np.log(r_arr)
        out = self._disc(self.plane.eval_u(t))
        return float(out) if r_arr.ndim == 0 else out


def dirichlet_solution(w: WholePlaneSolution, m: int) -> RadialSolution:
    """Dirichlet solution with m nodal regions: w rescaled at its m-th zero."""
    _check_count("dirichlet_solution", "m", m, 1, w.m_max)
    return RadialSolution("dirichlet", m, w.p, w.alpha, float(w.log_zeros[m - 1]),
                          w.zero_states[m - 1], w)


def neumann_solution(w: WholePlaneSolution, m: int) -> RadialSolution:
    """Neumann solution with m nodal regions: w rescaled at delta_(m-1).

    Nontrivial Neumann solutions are necessarily sign-changing, so m = 1 is
    rejected.
    """
    _check_count("neumann_solution", "m", m, 2, w.m_max)
    return RadialSolution("neumann", m, w.p, w.alpha, float(w.log_crit[m - 2]),
                          w.crit_states[m - 2], w)


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
    residual gauges pure solver accuracy.  Both sides carry e^(2 kappa L),
    so it is formed from the plane's (u_t, Ep) at L, at every p.
    """
    if sol.bc != "dirichlet":
        raise ValueError("pohozaev_residual: defined for Dirichlet solutions")
    _, wt, _, ep = sol._state.tolist()
    pw1 = sol.p * abs(wt)
    rhs = (1.0 + 1.0 / sol.p) * pw1 * pw1 / (2.0 * (2.0 + sol.alpha))
    return abs(sol.p * ep - rhs) / (sol.p * ep)


def flux_identity_residual(sol: RadialSolution, s: float, t: float) -> float:
    """Defect of ``u'(s)s - u'(t)t = int_s^t |u|^(p-1) u r^(1+alpha) dr``.

    The right side is evaluated by independent adaptive quadrature on the
    dense trajectory in log-radius, with the in-repo tanh-sinh rule
    ``_tanh_sinh`` (levels 5 to 10, error estimated from the difference of
    the last two levels), split at the zeros and critical points inside the
    shell, so the residual measures how well the computed trajectory
    satisfies the equation in integral form.  Reported relative to the
    derivative scale max(|u'(s)s|, |u'(t)t|).  Raises QuadratureError
    unless every sub-interval converges.
    """
    if not 0.0 < s < t <= 1.0:
        raise ValueError("flux_identity_residual: need 0 < s < t <= 1")
    p, q = sol.p, sol.alpha + 2.0
    plane = sol.plane
    ta = sol.log_scale + math.log(s)
    tb = sol.log_scale + math.log(t)
    breaks = np.sort(np.concatenate([plane.log_zeros, plane.log_crit]))
    edges = np.concatenate([[ta], breaks[(breaks > ta) & (breaks < tb)], [tb]])
    parts, err, done = _tanh_sinh(lambda tt: -_rhs_array(p, q, tt, plane.eval_state(tt))[1],
                                  edges[:-1], edges[1:])
    if not np.all(done):
        raise QuadratureError("flux quadrature did not converge", float(np.max(err[~done])))
    integral = float(np.sum(parts))
    wt_a, wt_b = plane.eval_ut(np.array([ta, tb])).tolist()
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


def rescaled_profile(sol: RadialSolution, i: int, r_grid: np.ndarray) -> RescaledProfile:
    """Rescale the i-th nodal region of ``sol`` onto its concentration scale.

    The scale is ``eps_i = ((alpha+2)/2)^(2/(alpha+2))
    * [p |u(s_i)|^(p-1)]^(-1/(2+alpha))``, formed in log space, and
    ``xi(r) = p ((-1)^i u(eps_i r) - |u(s_i)|) / |u(s_i)|``.  The grid
    must lie inside the image of the i-th nodal annulus.
    """
    _check_count("rescaled_profile", "i", i, 0, sol.m - 1)
    p, q = sol.p, sol.alpha + 2.0
    # |u(s_i)| = e^(kappa L) |w(delta_i)|, with w(delta_0) = w(0) = 1
    w_crit = 1.0 if i == 0 else abs(float(sol.plane.crit_states[i - 1, 0]))
    ln_u_crit = q / (p - 1.0) * sol.log_scale + math.log(w_crit)
    log_eps = (2.0 / q) * math.log(q / 2.0) - (math.log(p) + (p - 1.0) * ln_u_crit) / q

    lo_rel = -math.inf if i == 0 else float(sol.log_zeros[i - 1])
    hi_rel = float(sol.log_zeros[i]) if i < len(sol.log_zeros) else 0.0

    r = np.asarray(r_grid, dtype=float)
    if not np.all(r > 0.0 if i >= 1 else r >= 0.0):
        raise ValueError("rescaled_profile: radii must be positive")
    with np.errstate(divide="ignore"):
        log_r_rel = log_eps + np.log(r)
    slack = 1e-9
    if not np.all((lo_rel - slack <= log_r_rel) & (log_r_rel <= hi_rel + slack)):
        raise ValueError(
            f"rescaled_profile: grid leaves the nodal annulus of region {i} "
            f"(allowed r in [{math.exp(max(lo_rel - log_eps, -700)):.4g}, "
            f"{math.exp(min(hi_rel - log_eps, 700)):.4g}])"
        )

    sign = 1.0 if i % 2 == 0 else -1.0
    t_abs = sol.log_scale + log_r_rel
    # r = 0 only occurs for i = 0, at t = -inf, where w(0) = 1 exactly
    w_vals = sol.plane.eval_u(t_abs)
    xi = p * (sign * w_vals - w_crit) / w_crit
    return RescaledProfile(i=i, log_eps=float(log_eps), samples=np.column_stack([r, xi]))
