"""Explicit limit bubbles of the rescaled nodal solutions.

Each nodal region of the radial solution concentrates, after rescaling,
onto an explicit radial profile Z_{i,alpha} solving a (singular)
Liouville-type equation.  This module evaluates the profiles in log
space (the exponents grow linearly in the region index, so direct powers
would overflow), and verifies their defining mass and split integrals
with the package's one quadrature rule, the vectorized tanh-sinh rule
``_tanh_sinh`` defined here, in the variable y = (alpha+2)/2 ln s, where
the integrand is a bump of width 1/theta_i for every alpha.  The shell
flux gauge of :mod:`nodal.radial_ode` uses the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import _check_alpha, _check_count, _freeze, _theta_head
from .constants import theta_sequence  # noqa: F401  perfbench/layertrace.py wraps this binding

__all__ = [
    "BubbleSpec",
    "QuadratureError",
    "bubble_spec",
    "bubble_profile",
    "profile_samples",
    "bubble_mass",
    "SplitIntegrals",
    "bubble_split_integrals",
    "bubble_pde_residual",
]

#: e-folds of the bubble integrand kept past the split or the peak on each
#: side; each cut leaves e^-40 (about 4e-18) of the integral
_TAIL_EFOLDS = 40.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


#: tanh-sinh levels: the first pass takes every node up to _TS_FIRST, and an
#: interval still open after _TS_TOP has not converged.  A gauge shell's
#: slowest sub-interval mostly closes at level 5, so a level-4 start costs a
#: second pass, and a level-6 start twice the points
_TS_FIRST = 5
_TS_TOP = 10

#: an interval closes when its last two level sums differ by less than
#: this, absolute or relative to the sum
_TS_ATOL = 1e-15
_TS_RTOL = 1e-12

#: level-0 step: eight steps reach the abscissa whose distance to the end
#: point is four times the smallest normal double, where the sum is cut off
_TS_H0 = math.asinh(math.log(0.5 / np.finfo(float).tiny - 1.0) / math.pi) / 8.0


@functools.cache
def _ts_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances 1 - x_j to the end point and weights of tanh-sinh level k
    (step h0 / 2^k): every j at level 0, the odd j above, so that a level
    holds only the nodes the coarser levels lack.  Cached, so read-only."""
    n = 8 * 2**k
    jh = (_TS_H0 / 2**k) * (np.arange(n + 1) if k == 0 else np.arange(1, n + 1, 2))
    u = 0.5 * math.pi * np.sinh(jh)
    cosh_u = np.cosh(u)
    w = 0.5 * math.pi * np.cosh(jh) / (cosh_u * cosh_u)
    if k == 0:
        w[0] *= 0.5  # x_0 = 0 is reached from both end points
    return _freeze(1.0 / (np.exp(u) * cosh_u)), _freeze(w)


@functools.cache
def _ts_upto(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels 0..k of ``_ts_level``, concatenated; read-only."""
    xc, w = zip(*map(_ts_level, range(k + 1)))
    return _freeze(np.concatenate(xc)), _freeze(np.concatenate(w))


def _ts_terms(f, a: np.ndarray, b: np.ndarray, xc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w_j (f(b - h xc_j) + f(a + h xc_j))`` with h = (b - a) / 2, one row
    per interval, from one call of f on a flat array; a node that rounds
    onto an end point counts as zero."""
    a, b = a[:, None], b[:, None]
    off = 0.5 * (b - a) * xc
    x = np.hstack([b - off, a + off])
    inside = (x > a) & (x < b)
    fx = np.zeros(x.shape)
    fx[inside] = f(x[inside])
    return (fx[:, :xc.size] + fx[:, xc.size:]) * w


def _tanh_sinh(f, a, b):
    """Tanh-sinh quadrature (Takahasi & Mori, Publ. RIMS 9, 1974) of f
    over every interval [a_i, b_i].

    f maps a flat array of abscissae to values.  The first pass sums every
    node up to level ``_TS_FIRST``; each further level halves the step and
    adds only its own nodes, for the intervals still open.  An interval
    closes when the difference of its last two level sums (Bailey,
    Jeyabalan & Li, Experiment. Math. 14, 2005) is below ``_TS_ATOL`` or
    ``_TS_RTOL`` times the sum.  Returns the sums, those differences, and
    which intervals closed by level ``_TS_TOP``.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    terms = _ts_terms(f, a, b, *_ts_upto(_TS_FIRST))
    h = _TS_H0 / 2**_TS_FIRST
    total = h * half * terms.sum(axis=1)
    coarse = 2.0 * h * half * terms[:, :_ts_upto(_TS_FIRST - 1)[1].size].sum(axis=1)
    err = np.abs(total - coarse)
    done = (err < _TS_ATOL) | (err < _TS_RTOL * np.abs(total))
    for k in range(_TS_FIRST + 1, _TS_TOP + 1):
        open_ = np.flatnonzero(~done)
        if open_.size == 0:
            break
        h *= 0.5
        new = 0.5 * total[open_] + h * half[open_] * _ts_terms(
            f, a[open_], b[open_], *_ts_level(k)).sum(axis=1)
        err[open_] = np.abs(new - total[open_])
        total[open_] = new
        done[open_] = (err[open_] < _TS_ATOL) | (err[open_] < _TS_RTOL * np.abs(new))
    return total, err, done


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters of the i-th bubble at weight exponent alpha.

    ``sigma_i_alpha`` is the radius where the profile vanishes (0 for
    i = 0, where the profile instead vanishes at the origin); ``beta_i``
    sets the concentration scale.
    """

    i: int
    alpha: float
    theta_i: float
    beta_i: float
    sigma_i_alpha: float

    @property
    def concentration_radius(self) -> float:
        """Radius that sets the bubble's scale: ``sigma_i_alpha`` for i >= 1,
        ``beta_0^(2/(alpha+2))`` for the first bubble."""
        if self.i >= 1:
            return self.sigma_i_alpha
        return self.beta_i ** (2.0 / (self.alpha + 2.0))

    @property
    def log_beta(self) -> float:
        th = self.theta_i
        if self.i == 0:
            return math.log(2.0) * 1.5  # 2*sqrt(2)
        return (
            -0.5 * math.log(2.0)
            + (th + 2.0) / (2.0 * th) * math.log(th + 2.0)
            + (th - 2.0) / (2.0 * th) * math.log(th - 2.0)
        )


def bubble_spec(i: int, alpha: float = 0.0) -> BubbleSpec:
    """Construct the :class:`BubbleSpec` for region index ``i``; ``alpha``
    must keep ``(alpha+2)*theta_i``, and so every profile coefficient, finite."""
    _check_count("bubble_spec", "i", i, 0)
    _check_alpha("bubble_spec", alpha)
    th = _theta_head(i + 1)[-1]
    if not math.isfinite((float(alpha) + 2.0) * th):
        raise ValueError(f"bubble_spec: (alpha+2)*theta_i overflows a double at i={i}, "
                         f"alpha={alpha!r}")
    if i == 0:
        beta = 2.0 * math.sqrt(2.0)
        sigma = 0.0
    else:
        beta = (
            (th + 2.0) ** ((th + 2.0) / (2.0 * th))
            * (th - 2.0) ** ((th - 2.0) / (2.0 * th))
            / math.sqrt(2.0)
        )
        sigma = ((th * th - 4.0) / 2.0) ** (1.0 / (2.0 + alpha))
    return BubbleSpec(i=i, alpha=float(alpha), theta_i=th, beta_i=beta, sigma_i_alpha=sigma)


def _profile_from_logr(spec: BubbleSpec, log_r) -> np.ndarray | float:
    """Z = c0 + c1*log r - 2*logaddexp(a, c2*log r) from log-radius, on
    scalars and arrays, with c0 = log(2*theta^2) + a, c1 = (alpha+2)(theta-2)/2,
    a = theta*log(beta) and c2 = (alpha+2)*theta/2, so beta**theta is never
    formed."""
    th = spec.theta_i
    q = spec.alpha + 2.0
    a = th * spec.log_beta
    return (math.log(2.0 * th * th) + a + q * (th - 2.0) / 2.0 * log_r
            - 2.0 * np.logaddexp(a, q * th / 2.0 * log_r))


def bubble_profile(spec: BubbleSpec, r):
    """Evaluate the bubble profile Z at radii r (log-space, overflow safe).

    r of any shape: a scalar gives a ``float``, an array an array of the
    same shape.  ``r = 0`` gives 0 for the first bubble (its value at the
    origin) and ``-inf`` for i >= 1, where the origin is a logarithmic
    singularity.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr < math.inf)):
        raise ValueError("bubble_profile: r must be >= 0 and finite")
    # r = 0 is log r = -inf, which may give nan (0 * inf for i = 0); masked below.
    # Where c2*log r overflows, Z lies below -DBL_MAX; it reads -inf, or nan
    # from inf - inf, which is set to -inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _profile_from_logr(spec, np.log(r_arr))
    z = np.where(r_arr == 0.0, 0.0 if spec.i == 0 else -math.inf,
                 np.where(np.isnan(z), -math.inf, z))
    return float(z) if r_arr.ndim == 0 else z


def profile_samples(spec: BubbleSpec, r_grid: np.ndarray) -> np.ndarray:
    """Vectorized profile sampling; returns an (n, 3) array (r, Z, exp(Z))."""
    r = np.asarray(r_grid, dtype=float)
    z = bubble_profile(spec, r)
    return np.column_stack([r, z, np.exp(z)])


def _integrate_weighted(spec: BubbleSpec) -> tuple[float, float]:
    """``int exp(Z(s)) s^(alpha+1) ds`` below and above the split radius.

    In y = (alpha+2)/2 ln s the integrand is 2/(alpha+2) exp(Z + 2y), and
    exp(Z + 2y) = 2 theta^2 e^x/(1 + e^x)^2 = theta^2/(1 + cosh x), x = theta
    (y - ln beta): a bump of height theta^2/2 at y = ln beta that decays like
    e^-|x| on both sides, for every alpha.  Summed in that form, not from Z,
    it is free of the theta ln theta cancellation that kept the rule from
    closing at i = 10^4.  The split is sigma_i for i >= 1 and
    beta_0^(2/(alpha+2)) for i = 0, taken as logs in y (the radius itself
    rounds to 1 for huge alpha).  Each side is cut ``_TAIL_EFOLDS``/theta
    beyond the split or the peak, and the sums stay O(theta): the factor
    2/(alpha+2) is applied after them.
    """
    th, q = spec.theta_i, spec.alpha + 2.0
    y_split = spec.log_beta if spec.i == 0 else 0.5 * math.log((th * th - 4.0) / 2.0)
    lo = min(spec.log_beta, y_split) - _TAIL_EFOLDS / th
    hi = max(spec.log_beta, y_split) + _TAIL_EFOLDS / th
    parts, err, done = _tanh_sinh(lambda y: th * th / (1.0 + np.cosh(th * (y - spec.log_beta))),
                                  [lo, y_split], [y_split, hi])
    inner, outer = parts.tolist()
    total = inner + outer
    if not (done.all() and math.isfinite(total) and total > 0.0):
        raise QuadratureError("bubble quadrature did not converge", float(np.max(err)))
    return 2.0 / q * inner, 2.0 / q * outer


def bubble_mass(spec: BubbleSpec) -> float:
    """Total weighted mass ``int_{R^2} exp(Z) |x|^alpha dx`` by quadrature.

    Equals ``8*pi*theta_i/(alpha+2)`` analytically; the quadrature value is
    returned so callers can check the residual.
    """
    inner, outer = _integrate_weighted(spec)
    return 2.0 * math.pi * (inner + outer)


class SplitIntegrals(NamedTuple):
    inner: float
    outer: float


def bubble_split_integrals(spec: BubbleSpec) -> SplitIntegrals:
    """``int_0^sigma exp(Z) s ds`` and ``int_sigma^inf exp(Z) s ds`` (alpha = 0).

    The two sides equal ``theta_i - 2`` and ``theta_i + 2`` respectively.
    """
    if spec.alpha != 0.0:
        raise ValueError("bubble_split_integrals: defined for alpha = 0 only")
    _check_count("bubble_split_integrals", "i", spec.i, 1)
    inner, outer = _integrate_weighted(spec)
    return SplitIntegrals(inner=inner, outer=outer)


def bubble_pde_residual(spec: BubbleSpec, r_grid: np.ndarray, h: float = 1e-3) -> float:
    """Max defect of Z'' + Z'/r + ((alpha+2)/2)^2 r^alpha e^Z over the grid.

    Derivatives use centered differences with per-point step ``h * r``
    (the profiles vary on a scale proportional to the radius); the
    residual is O(h^2) with a grid-dependent constant, so halving ``h``
    quarters it.  The source term is one exponential, so r^alpha and
    ((alpha+2)/2)^2 are never formed; a residual that still overflows, as
    Z does for alpha near the edge ``bubble_spec`` allows, is a ValueError.
    """
    r = np.asarray(r_grid, dtype=float)
    if not np.all((r > 0.0) & (r < math.inf)):
        raise ValueError("bubble_pde_residual: grid must be positive and finite")
    hr = h * r
    zm = bubble_profile(spec, r - hr)
    z0 = bubble_profile(spec, r)
    zp = bubble_profile(spec, r + hr)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (zp - 2.0 * z0 + zm) / (hr * hr)
        d1 = (zp - zm) / (2.0 * hr)
        source = np.exp(2.0 * math.log((spec.alpha + 2.0) / 2.0) + spec.alpha * np.log(r) + z0)
        res = float(np.max(np.abs(d2 + d1 / r + source), initial=0.0))
    if not math.isfinite(res):
        raise ValueError(f"bubble_pde_residual: the residual overflows at alpha={spec.alpha!r}")
    return res
