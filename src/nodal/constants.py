"""Sharp asymptotic constants for radial Lane-Emden / Henon problems.

Everything here is driven by the sequence ``theta_k`` (``theta_0 = 2``)
produced by a Lambert-W iteration.  The entries of a
:class:`ConstantTable` are the p -> infinity limits of, respectively,

* ``M``: the absolute values of the radial solution at its critical points,
* ``R``: the zeros raised to the power 2/(p-1),
* ``S``: the critical points raised to the power 2/(p-1),
* ``D``: the scaled derivative ``p*|u'(r_i)|*r_i`` at the zeros,

for the Dirichlet solution with ``m`` nodal regions in the unit disc.
Neumann and whole-plane variants are algebraic transforms of the same
table.

The Lambert recursion runs in one place, the generator ``_thetas``; every
caller reads theta from it.  The closed product formula for ``M[0]``
is one running product, the generator ``_m0_values``, behind
:func:`m0_product_formula`, :func:`m0_sequence`, :func:`m0_over_sqrt_m`
and :func:`m0_bounds_suite`.  Two independent routes remain as internal
oracles: the ``a_seq`` recursion of :func:`theta_sequence`, and the
prefix sums of :func:`constant_table`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .specfun import lambert_w0, ln_gamma

__all__ = [
    "SQRT_E",
    "GROWTH_C1",
    "GROWTH_C2",
    "ThetaTable",
    "ConstantTable",
    "NeumannConstantTable",
    "WholePlaneLimits",
    "BoundsReport",
    "theta_sequence",
    "constant_table",
    "m0_product_formula",
    "m0_sequence",
    "m0_over_sqrt_m",
    "neumann_constants",
    "whole_plane_limits",
    "energy_limit",
    "gamma_alpha_m",
    "theta_bounds_check",
    "theta_bounds_suite",
    "m0_bounds_check",
    "m0_bounds_suite",
    "sup_norm_bounds",
    "morse_conjecture",
    "bubble_morse",
]

SQRT_E = math.exp(0.5)

#: Growth constants sandwiching M[0]/sqrt(m): sqrt(pi) and 6*Gamma(3/4)/Gamma(1/4).
GROWTH_C1 = math.sqrt(math.pi)
GROWTH_C2 = 6.0 * math.exp(ln_gamma(0.75) - ln_gamma(0.25))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_alpha(where: str, alpha: float) -> None:
    """Reject a weight exponent that is negative, NaN or infinite."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"{where}: alpha must be finite and >= 0 (got {alpha!r})")


def _theta_step(theta_prev: float) -> float:
    y = 2.0 / (2.0 + theta_prev)
    return 2.0 / lambert_w0(y * math.exp(-y)) + 2.0


def _thetas() -> Iterator[float]:
    """theta_0 = 2, theta_1, theta_2, ...: the one place the recursion runs.

    Each term is computed only when it is requested.
    """
    th = 2.0
    while True:
        yield th
        th = _theta_step(th)


def _theta_prefix(k_max: int) -> np.ndarray:
    """``theta_0 .. theta_k_max`` as an array."""
    return np.fromiter(islice(_thetas(), k_max + 1), float, k_max + 1)


def _a_step(a_prev: float) -> float:
    s = a_prev / (1.0 + 2.0 * a_prev)
    return lambert_w0(s * math.exp(-s))


@dataclass(frozen=True)
class ThetaTable:
    """The limit-exponent sequence theta_k and its reformulation a_seq.

    ``theta[k]`` is defined by theta_0 = 2 and the Lambert-W iteration;
    ``a_seq[k]`` (valid for k >= 1, ``a_seq[0]`` is NaN) satisfies
    ``theta[k] == 2 + 2/a_seq[k]`` and is computed by an independent
    recursion, so the two columns cross-check each other.
    """

    k_max: int
    theta: np.ndarray
    a_seq: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self.theta)
        _freeze(self.a_seq)

    def to_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "theta": self.theta.tolist(),
            "a_seq": self.a_seq.tolist(),
        }


def theta_sequence(k_max: int) -> ThetaTable:
    """Compute ``theta_0 .. theta_k_max`` together with the a_seq oracle."""
    if k_max < 0:
        raise ValueError("theta_sequence: k_max must be >= 0")
    theta = _theta_prefix(k_max)
    a_seq = np.empty(k_max + 1)
    a_seq[0] = math.nan
    if k_max >= 1:
        a_seq[1] = lambert_w0(0.5 * math.exp(-0.5))
        for k in range(1, k_max):
            a_seq[k + 1] = _a_step(a_seq[k])
    return ThetaTable(k_max=k_max, theta=theta, a_seq=a_seq)


@dataclass(frozen=True)
class ConstantTable:
    """Limit constants for the Dirichlet solution with ``m`` nodal regions.

    Index conventions (NaN marks slots outside the defined range):

    * ``R[i]`` for i = 1..m-1, in (0, 1),
    * ``S[i]`` for i = 0..m-1, with ``S[0] == 0``,
    * ``M[i]`` for i = 0..m-1, all > 1 and strictly decreasing,
    * ``D[i]`` for i = 1..m.

    ``alpha`` only records the weight exponent used downstream; the table
    itself is alpha-independent (alpha enters through powers 2/(alpha+2)
    at comparison time).
    """

    m: int
    alpha: float
    R: np.ndarray
    S: np.ndarray
    M: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.R, self.S, self.M, self.D):
            _freeze(arr)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "alpha": self.alpha,
            "R": self.R.tolist(),
            "S": self.S.tolist(),
            "M": self.M.tolist(),
            "D": self.D.tolist(),
        }


def _base_logs(theta: np.ndarray, m: int):
    """Per-step building blocks, as logs.

    Returns (ln_Mb, ln_Db, prefix) where ``ln_Mb[k] = 2/(2+theta_{k-1})``
    for k = 1..m, ``ln_Db[k] = ln_Mb[k] + ln(theta_{k-1}+2)`` and
    ``prefix[k]`` is the cumulative log of the one-step radius ratios up
    to k (``prefix[1] = 0``).  All products in the table are formed from
    differences of ``prefix``, which keeps full relative precision for
    large m.
    """
    ln_mb = np.zeros(m + 1)
    ln_db = np.zeros(m + 1)
    for k in range(1, m + 1):
        ln_mb[k] = 2.0 / (2.0 + theta[k - 1])
        ln_db[k] = ln_mb[k] + math.log(theta[k - 1] + 2.0)
    prefix = np.zeros(m + 1)
    for k in range(2, m + 1):
        step = (
            ln_mb[k - 1]
            + math.log(theta[k - 2] + 2.0)
            - ln_mb[k]
            - math.log(theta[k - 1] - 2.0)
        )
        prefix[k] = prefix[k - 1] + step
    return ln_mb, ln_db, prefix


def constant_table(m: int, alpha: float = 0.0) -> ConstantTable:
    """Build the full R/S/M/D table for ``m`` nodal regions."""
    if m < 1:
        raise ValueError("constant_table: m must be >= 1")
    _check_alpha("constant_table", alpha)
    theta = _theta_prefix(m)
    ln_mb, ln_db, prefix = _base_logs(theta, m)

    R = np.full(m, math.nan)
    S = np.full(m, math.nan)
    M = np.full(m, math.nan)
    D = np.full(m + 1, math.nan)
    for i in range(1, m):
        R[i] = math.exp(prefix[m] - prefix[i])
    for i in range(1, m + 1):
        D[i] = math.exp(ln_db[i] + prefix[i] - prefix[m])
    S[0] = 0.0
    M[0] = math.exp(ln_mb[1] + prefix[1] - prefix[m])
    for i in range(1, m):
        S[i] = math.exp(-ln_mb[i + 1] + prefix[m] - prefix[i + 1])
        M[i] = math.exp(ln_mb[i + 1] + prefix[i + 1] - prefix[m])
    return ConstantTable(m=m, alpha=float(alpha), R=R, S=S, M=M, D=D)


def _m0_values() -> Iterator[float]:
    """Product-formula values ``constant_table(m+1).M[0]`` for m = 1, 2, ...

    Value m is ``(theta_m - 2)/4 * exp(2/(2+theta_m))`` times the running
    product of ``(theta_k - 2)/(theta_k + 2)`` over k = 1..m-1, kept as a
    sum of logs.
    """
    logsum = 0.0
    for th in islice(_thetas(), 1, None):
        yield (th - 2.0) / 4.0 * math.exp(2.0 / (2.0 + th) + logsum)
        logsum += math.log((th - 2.0) / (th + 2.0))


def m0_product_formula(m: int) -> float:
    """Closed product form of ``constant_table(m+1).M[0]`` (internal oracle).

    The m = 0 instance is taken to be the base value sqrt(e) (empty
    product convention).
    """
    if m < 0:
        raise ValueError("m0_product_formula: m must be >= 0")
    if m == 0:
        return SQRT_E
    return next(islice(_m0_values(), m - 1, None))


def m0_sequence(m_max: int) -> np.ndarray:
    """``constant_table(i).M[0]`` for i = 1..m_max via one running product.

    Entry j (0-based) holds the value for i = j + 1.
    """
    if m_max < 1:
        raise ValueError("m0_sequence: m_max must be >= 1")
    out = np.empty(m_max)
    out[0] = SQRT_E
    out[1:] = np.fromiter(_m0_values(), float, m_max - 1)
    return out


def m0_over_sqrt_m(m: int) -> float:
    """``constant_table(m+1).M[0] / sqrt(m)``, streamed in O(1) memory.

    The sequence appears to approach a limit (~1.82774) as m grows; only
    the sqrt(pi) / 6*Gamma(3/4)/Gamma(1/4) sandwich is proved, so callers
    should treat the value as reported, not certified monotone.
    """
    if m < 1:
        raise ValueError("m0_over_sqrt_m: m must be >= 1")
    return m0_product_formula(m) / math.sqrt(m)


@dataclass(frozen=True)
class NeumannConstantTable:
    """Limit constants for the Neumann solution with ``m`` nodal regions.

    Obtained from the Dirichlet table by rescaling at the last critical
    point: ``Rbar = R/S[m-1]``, ``Dbar = S[m-1]*D``, ``Sbar = S/S[m-1]``,
    ``Mbar = S[m-1]*M``.  Valid slots: ``Rbar[1..m-1]``, ``Dbar[1..m-1]``,
    ``Sbar[0..m-2]`` (interior critical points), ``Mbar[0..m-1]`` with
    ``Mbar[m-1] == 1`` up to roundoff.
    """

    m: int
    Rbar: np.ndarray
    Dbar: np.ndarray
    Sbar: np.ndarray
    Mbar: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.Rbar, self.Dbar, self.Sbar, self.Mbar):
            _freeze(arr)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "Rbar": self.Rbar.tolist(),
            "Dbar": self.Dbar.tolist(),
            "Sbar": self.Sbar.tolist(),
            "Mbar": self.Mbar.tolist(),
        }


def neumann_constants(m: int) -> NeumannConstantTable:
    """Neumann variant of :func:`constant_table` (requires m >= 2)."""
    if m < 2:
        raise ValueError("neumann_constants: m must be >= 2")
    tab = constant_table(m)
    s_last = tab.S[m - 1]
    Rbar = tab.R / s_last
    Dbar = s_last * tab.D[:m]  # interior zeros only: valid slots 1..m-1
    Sbar = tab.S / s_last
    Mbar = s_last * tab.M
    return NeumannConstantTable(m=m, Rbar=Rbar, Dbar=Dbar, Sbar=Sbar, Mbar=Mbar)


@dataclass(frozen=True)
class WholePlaneLimits:
    """Limits for the normalized whole-plane solution at its m-th zero.

    ``rho_lim``: limit of ``rho_m^(2/(p-1))``;
    ``drv_lim``: limit of ``p*|w'(rho_m)|*rho_m``;
    ``delta_lim``: limit of ``delta_m^(2/(p-1))`` (the critical point after
    the m-th zero);
    ``val_lim``: limit of ``|w(delta_m)|``.
    """

    m: int
    alpha: float
    rho_lim: float
    drv_lim: float
    delta_lim: float
    val_lim: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "alpha": self.alpha,
            "rho_lim": self.rho_lim,
            "drv_lim": self.drv_lim,
            "delta_lim": self.delta_lim,
            "val_lim": self.val_lim,
        }


def whole_plane_limits(m: int, alpha: float = 0.0) -> WholePlaneLimits:
    """Limits of the zero/critical data of the whole-plane solution."""
    if m < 1:
        raise ValueError("whole_plane_limits: m must be >= 1")
    _check_alpha("whole_plane_limits", alpha)
    q = alpha + 2.0
    tab_m = constant_table(m)
    tab_m1 = constant_table(m + 1)
    return WholePlaneLimits(
        m=m,
        alpha=float(alpha),
        rho_lim=tab_m.M[0] ** (2.0 / q),
        drv_lim=q / 2.0 * tab_m.D[m] / tab_m.M[0],
        delta_lim=(tab_m1.M[0] * tab_m1.S[m]) ** (2.0 / q),
        val_lim=tab_m1.M[m] / tab_m1.M[0],
    )


def energy_limit(m: int, alpha: float, bc: str) -> float:
    """Limit of ``p * int_0^1 |u'|^2 r dr`` for the m-region solution."""
    if bc not in ("dirichlet", "neumann"):
        raise ValueError(f"energy_limit: unknown boundary condition {bc!r}")
    if m < 1 or (bc == "neumann" and m < 2):
        raise ValueError(f"energy_limit: m={m} invalid for bc={bc}")
    _check_alpha("energy_limit", alpha)
    th = _theta_prefix(m - 1)[-1]
    if bc == "dirichlet":
        m_last = math.exp(2.0 / (2.0 + th))
        return (alpha + 2.0) / 8.0 * m_last**2 * (th + 2.0) ** 2
    return (alpha + 2.0) / 8.0 * (th + 2.0) * (th - 2.0)


def gamma_alpha_m(alpha: float, m: int) -> float:
    """Signed strength of the logarithmic limit profile of ``p*u``."""
    if m < 1:
        raise ValueError("gamma_alpha_m: m must be >= 1")
    _check_alpha("gamma_alpha_m", alpha)
    th = _theta_prefix(m - 1)[-1]
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * (alpha + 2.0) / 2.0 * math.exp(2.0 / (2.0 + th)) * (th + 2.0)


@dataclass(frozen=True)
class BoundsReport:
    """One verified sandwich ``lower < value < upper``."""

    check: str
    index: int
    lower: float
    value: float
    upper: float
    holds: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "index": self.index,
            "lower": self.lower,
            "value": self.value,
            "upper": self.upper,
            "holds": self.holds,
        }


def theta_bounds_check(k: int, table: ThetaTable | None = None) -> BoundsReport:
    """Linear-growth sandwich ``2+8k < theta_k < 2 + 2/W(1/(4k)) < 4+8k``.

    ``holds`` additionally requires the companion chain
    ``1/(4k+1) < W(1/(4k)) < a_seq[k] < 1/(4k)``.
    """
    if k < 1:
        raise ValueError("theta_bounds_check: k must be >= 1")
    if table is None or table.k_max < k:
        table = theta_sequence(k)
    th = table.theta[k]
    a = table.a_seq[k]
    w = lambert_w0(1.0 / (4.0 * k))
    lower = 2.0 + 8.0 * k
    upper = 4.0 + 8.0 * k
    mid = 2.0 + 2.0 / w
    holds = bool(
        lower < th < mid < upper
        and 1.0 / (4.0 * k + 1.0) < w < a < 1.0 / (4.0 * k)
    )
    return BoundsReport(
        check="theta_growth", index=k, lower=lower, value=th, upper=upper, holds=holds
    )


def theta_bounds_suite(k_max: int) -> list[BoundsReport]:
    """:func:`theta_bounds_check` for k = 1..k_max off one shared table."""
    table = theta_sequence(k_max)
    return [theta_bounds_check(k, table) for k in range(1, k_max + 1)]


def _m0_gamma_bounds(m: int) -> tuple[float, float]:
    lower = GROWTH_C1 * math.exp(
        ln_gamma(m + 1.0) - ln_gamma(m + 0.5) + 1.0 / (3.0 + 4.0 * m)
    )
    upper = GROWTH_C2 * math.exp(
        ln_gamma(m + 1.25) - ln_gamma(m + 0.75) + 1.0 / (2.0 + 4.0 * m)
    )
    return lower, upper


def m0_bounds_check(m: int, value: float | None = None) -> BoundsReport:
    """Gamma-ratio sandwich for the sup-norm limit ``constant_table(m+1).M[0]``."""
    if m < 1:
        raise ValueError("m0_bounds_check: m must be >= 1")
    if value is None:
        value = m0_product_formula(m)
    lower, upper = _m0_gamma_bounds(m)
    return BoundsReport(
        check="m0_growth",
        index=m,
        lower=lower,
        value=value,
        upper=upper,
        holds=bool(lower < value < upper),
    )


def m0_bounds_suite(m_max: int) -> list[BoundsReport]:
    """:func:`m0_bounds_check` for m = 1..m_max with a running product."""
    if m_max < 1:
        raise ValueError("m0_bounds_suite: m_max must be >= 1")
    return [m0_bounds_check(m, value)
            for m, value in zip(range(1, m_max + 1), _m0_values())]


def sup_norm_bounds(m: int, table: ConstantTable | None = None) -> list[BoundsReport]:
    """Sup-norm growth sandwiches for the Dirichlet and Neumann solutions.

    Emits ``dirichlet_sup`` (m >= 1), and for m >= 2 also ``neumann_sup``
    and the ``s_last`` sandwich
    ``exp(-1/(4m-2)) < S[m-1] < exp(-1/(4m-1))`` it relies on.
    """
    if m < 1:
        raise ValueError("sup_norm_bounds: m must be >= 1")
    if table is None or table.m != m:
        table = constant_table(m)
    lo, up = _m0_gamma_bounds(m - 1)
    m0 = table.M[0]
    out = [
        BoundsReport(
            check="dirichlet_sup",
            index=m,
            lower=lo,
            value=m0,
            upper=up,
            holds=bool(lo < m0 < up),
        )
    ]
    if m >= 2:
        s_last = table.S[m - 1]
        s_lo = math.exp(-1.0 / (4.0 * m - 2.0))
        s_up = math.exp(-1.0 / (4.0 * m - 1.0))
        out.append(
            BoundsReport(
                check="s_last",
                index=m,
                lower=s_lo,
                value=s_last,
                upper=s_up,
                holds=bool(s_lo < s_last < s_up),
            )
        )
        n_val = s_last * m0
        n_lo = lo * s_lo
        n_up = up * s_up
        out.append(
            BoundsReport(
                check="neumann_sup",
                index=m,
                lower=n_lo,
                value=n_val,
                upper=n_up,
                holds=bool(n_lo < n_val < n_up),
            )
        )
    return out


def morse_conjecture(m: int) -> int:
    """Conjectured Morse index ``4m^2 - m - 2`` of the m-region solution."""
    if m < 1:
        raise ValueError("morse_conjecture: m must be >= 1")
    return 4 * m * m - m - 2


def bubble_morse(k: int) -> int:
    """Morse index of the k-th limit bubble: 1 for k = 0, else ``8k + 3``."""
    if k < 0:
        raise ValueError("bubble_morse: k must be >= 0")
    return 1 if k == 0 else 8 * k + 3
