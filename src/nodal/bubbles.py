"""Explicit limit bubbles of the rescaled nodal solutions.

Each nodal region of the radial solution concentrates, after rescaling,
onto an explicit radial profile Z_{i,alpha} solving a (singular)
Liouville-type equation.  This module evaluates the profiles in log
space (the exponents grow linearly in the region index, so direct powers
would overflow), and verifies their defining mass and split integrals by
adaptive quadrature.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .constants import _check_alpha, _check_count, _theta_head
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

#: relative tolerance of each half of the mass and split quadratures
_QUAD_EPSREL = 1e-11

_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


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
    """Construct the :class:`BubbleSpec` for region index ``i``."""
    _check_count("bubble_spec", "i", i, 0)
    _check_alpha("bubble_spec", alpha)
    th = _theta_head(i + 1)[-1]
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


def _profile_coefficients(spec: BubbleSpec) -> tuple[float, float, float, float]:
    """``(c0, c1, a, c2)`` with Z = c0 + c1*log r - 2*logaddexp(a, c2*log r).

    c0 = log(2*theta^2) + theta*log(beta), c1 = (alpha+2)(theta-2)/2,
    a = theta*log(beta) and c2 = (alpha+2)*theta/2, so beta**theta is
    never formed.
    """
    th = spec.theta_i
    q = spec.alpha + 2.0
    a = th * spec.log_beta
    return math.log(2.0 * th * th) + a, q * (th - 2.0) / 2.0, a, q * th / 2.0


def _profile_from_logr(spec: BubbleSpec, log_r) -> np.ndarray | float:
    """Z evaluated from log-radius; works on scalars and arrays."""
    c0, c1, a, c2 = _profile_coefficients(spec)
    return c0 + c1 * log_r - 2.0 * np.logaddexp(a, c2 * log_r)


def bubble_profile(spec: BubbleSpec, r):
    """Evaluate the bubble profile Z at radii r (log-space, overflow safe).

    r of any shape: a scalar gives a ``float``, an array an array of the
    same shape.  ``r = 0`` gives 0 for the first bubble (its value at the
    origin) and ``-inf`` for i >= 1, where the origin is a logarithmic
    singularity.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("bubble_profile: r must be >= 0")
    # r = 0 is log r = -inf, which may give nan (0 * inf for i = 0); masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _profile_from_logr(spec, np.log(r_arr))
    z = np.where(r_arr == 0.0, 0.0 if spec.i == 0 else -math.inf, z)
    return float(z) if r_arr.ndim == 0 else z


def profile_samples(spec: BubbleSpec, r_grid: np.ndarray) -> np.ndarray:
    """Vectorized profile sampling; returns an (n, 3) array (r, Z, exp(Z))."""
    r = np.asarray(r_grid, dtype=float)
    z = bubble_profile(spec, r)
    return np.column_stack([r, z, np.exp(z)])


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` on two floats, by NumPy's own formula, bit for bit."""
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0.0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d))


def _weighted_integrand(spec: BubbleSpec, power: float) -> Callable[[float], float]:
    """``s -> exp(Z(s)) * s**power`` on plain floats, 0 where it underflows.

    The profile coefficients are computed once here, not at each node.
    """
    c0, c1, a, c2 = _profile_coefficients(spec)

    def f(s: float) -> float:
        if s <= 0.0:
            return 0.0
        ln_s = math.log(s)
        ex = c0 + c1 * ln_s - 2.0 * _logaddexp(a, c2 * ln_s) + power * ln_s
        return math.exp(ex) if ex > -700.0 else 0.0

    return f


def _integrate_weighted(spec: BubbleSpec, power: float, split: float) -> tuple[float, float]:
    """``int_0^inf exp(Z(s)) * s**power ds`` split at ``split``.

    The unbounded tail is mapped to (0, 1] by s = split/u, which avoids
    an arbitrary cutoff; the integrand decays like a negative power of s
    with exponent > 1 there, so the transformed integrand is bounded.
    """
    f = _weighted_integrand(spec, power)
    inner, err_in = quad(f, 0.0, split, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=200)

    def tail(u: float) -> float:
        if u <= 0.0:
            return 0.0
        s = split / u
        return f(s) * split / (u * u)

    outer, err_out = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=200)
    total = inner + outer
    err = err_in + err_out
    if not (math.isfinite(total) and total > 0.0) or err / total > 1e-9:
        # the integrand is positive, so a zero total means every node underflowed
        why = "underflowed" if total == 0.0 else "did not converge"
        raise QuadratureError(f"bubble quadrature {why}", err)
    return inner, outer


def bubble_mass(spec: BubbleSpec) -> float:
    """Total weighted mass ``int_{R^2} exp(Z) |x|^alpha dx`` by quadrature.

    Equals ``8*pi*theta_i/(alpha+2)`` analytically; the quadrature value is
    returned so callers can check the residual.
    """
    inner, outer = _integrate_weighted(spec, 1.0 + spec.alpha, spec.concentration_radius)
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
    inner, outer = _integrate_weighted(spec, 1.0, spec.sigma_i_alpha)
    return SplitIntegrals(inner=inner, outer=outer)


def bubble_pde_residual(spec: BubbleSpec, r_grid: np.ndarray, h: float = 1e-3) -> float:
    """Max defect of Z'' + Z'/r + ((alpha+2)/2)^2 r^alpha e^Z over the grid.

    Derivatives use centered differences with per-point step ``h * r``
    (the profiles vary on a scale proportional to the radius); the
    residual is O(h^2) with a grid-dependent constant, so halving ``h``
    quarters it.
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0):
        raise ValueError("bubble_pde_residual: grid must be bounded away from 0")
    q = spec.alpha + 2.0
    hr = h * r
    zm = bubble_profile(spec, r - hr)
    z0 = bubble_profile(spec, r)
    zp = bubble_profile(spec, r + hr)
    d2 = (zp - 2.0 * z0 + zm) / (hr * hr)
    d1 = (zp - zm) / (2.0 * hr)
    res = d2 + d1 / r + (q / 2.0) ** 2 * r**spec.alpha * np.exp(z0)
    return float(np.max(np.abs(res), initial=0.0))
