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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .constants import _check_alpha, _theta_prefix
from .constants import theta_sequence  # noqa: F401  perfbench/layertrace.py wraps this binding

__all__ = [
    "BubbleSpec",
    "QuadratureError",
    "bubble_spec",
    "bubble_profile",
    "profile_samples",
    "bubble_mass",
    "bubble_split_integrals",
    "bubble_pde_residual",
]


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

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "alpha": self.alpha,
            "theta_i": self.theta_i,
            "beta_i": self.beta_i,
            "sigma_i_alpha": self.sigma_i_alpha,
        }


def bubble_spec(i: int, alpha: float = 0.0) -> BubbleSpec:
    """Construct the :class:`BubbleSpec` for region index ``i``."""
    if i < 0:
        raise ValueError("bubble_spec: i must be >= 0")
    _check_alpha("bubble_spec", alpha)
    th = float(_theta_prefix(i)[-1])
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
    """Z evaluated from log-radius; works on scalars and arrays.

    Assembled as log(2*theta^2) + theta*log(beta)
    + (alpha+2)(theta-2)/2 * log r - 2*logaddexp(theta*log beta,
    (alpha+2)*theta/2 * log r), which never forms beta**theta directly.
    """
    th = spec.theta_i
    q = spec.alpha + 2.0
    a = th * spec.log_beta
    b = q * th / 2.0 * log_r
    return (
        math.log(2.0 * th * th)
        + a
        + q * (th - 2.0) / 2.0 * log_r
        - 2.0 * np.logaddexp(a, b)
    )


def bubble_profile(spec: BubbleSpec, r: float) -> float:
    """Evaluate the bubble profile Z at radius r (log-space, overflow safe).

    ``r = 0`` returns 0 for the first bubble (its value at the origin) and
    ``-inf`` for i >= 1, where the origin is a logarithmic singularity.
    """
    if r < 0:
        raise ValueError("bubble_profile: r must be >= 0")
    if r == 0.0:
        return 0.0 if spec.i == 0 else -math.inf
    return float(_profile_from_logr(spec, math.log(r)))


def profile_samples(spec: BubbleSpec, r_grid: np.ndarray) -> np.ndarray:
    """Vectorized profile sampling; returns an (n, 3) array (r, Z, exp(Z))."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r < 0):
        raise ValueError("profile_samples: radii must be >= 0")
    z = np.empty_like(r)
    pos = r > 0
    z[pos] = _profile_from_logr(spec, np.log(r[pos]))
    z[~pos] = 0.0 if spec.i == 0 else -math.inf
    return np.column_stack([r, z, np.exp(z)])


def _integrate_weighted(spec: BubbleSpec, power: float, split: float,
                        epsrel: float = 1e-11) -> tuple[float, float]:
    """``int_0^inf exp(Z(s)) * s**power ds`` split at ``split``.

    The unbounded tail is mapped to (0, 1] by s = split/u, which avoids
    an arbitrary cutoff; the integrand decays like a negative power of s
    with exponent > 1 there, so the transformed integrand is bounded.
    """

    def f(s: float) -> float:
        if s <= 0.0:
            return 0.0
        ln_s = math.log(s)
        ex = _profile_from_logr(spec, ln_s) + power * ln_s
        return math.exp(ex) if ex > -700.0 else 0.0

    inner, err_in = quad(f, 0.0, split, epsabs=0.0, epsrel=epsrel, limit=200)

    def tail(u: float) -> float:
        if u <= 0.0:
            return 0.0
        s = split / u
        return f(s) * split / (u * u)

    outer, err_out = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, limit=200)
    total = inner + outer
    err = err_in + err_out
    if not math.isfinite(total) or (total != 0 and err / abs(total) > 1e-9):
        raise QuadratureError("bubble quadrature did not converge", err)
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
    if spec.i < 1:
        raise ValueError("bubble_split_integrals: requires i >= 1")
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
    worst = 0.0
    for ri in r:
        hi = h * ri
        zm = bubble_profile(spec, ri - hi)
        z0 = bubble_profile(spec, ri)
        zp = bubble_profile(spec, ri + hi)
        d2 = (zp - 2.0 * z0 + zm) / (hi * hi)
        d1 = (zp - zm) / (2.0 * hi)
        res = d2 + d1 / ri + (q / 2.0) ** 2 * ri**spec.alpha * math.exp(z0)
        worst = max(worst, abs(res))
    return worst
