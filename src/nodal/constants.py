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
caller reads theta from it.  The longest prefix asked for so far is kept in
``_THETA``, which only ``_theta_head`` extends, by rebinding a longer list
and never by changing one in place, so a thread or a forked worker always
reads a complete prefix.  Each term is computed once per process, except
past the prefix in :func:`m0_product_formula`, which streams in O(1) memory.
The closed product formula for ``M[0]`` is one running product, the
generator ``_m0_values``, behind :func:`m0_product_formula`,
:func:`m0_sequence`, :func:`m0_over_sqrt_m` and :func:`m0_bounds_suite`.
Two independent routes remain as internal oracles: the ``a_seq``
recursion of :func:`theta_sequence`, and the prefix sums of
:func:`constant_table`.  The ``a_seq`` prefix is kept in ``_A_SEQ`` by the
same rule as ``_THETA``, and its terms come from ``_a_step``, never from theta.

Every table entry is read from one ``(ln_Mb, ln_Db, prefix)`` triple,
``_TableLogs``, whose k-th terms depend only on theta_0..theta_{k-1}; a
triple built for ``m_max`` serves the tables of every m <= m_max bit for
bit.  So the first ``nodal bounds`` in a process costs at most
kmax + max(kmax, mmax) scalar Lambert evaluations: the ``a_seq`` oracle up
to kmax and one theta prefix; the first ``nodal constants --m M`` costs M
as CSV, and 2M as JSON, which also prints the oracle.  A later call costs
only the terms past the stored prefixes.  The theta sandwich decides its
W(1/(4k)) clauses through x*e^x and forms no W.

The bounds suites return a :class:`BoundsTable`, the reports as parallel
columns, and every sandwich is checked over whole columns by one rule,
``_sandwich``.  The scalar checks (:func:`theta_bounds_check`,
:func:`m0_bounds_check`, :func:`sup_norm_bounds`) read their rows off the
suites, and :func:`whole_plane_limits` is the last entry of its suite.

Every module validates a count by ``_check_count``, p by ``_check_p``, tol by ``_check_tol``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator
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
    "BoundsTable",
    "theta_sequence",
    "constant_table",
    "m0_product_formula",
    "m0_sequence",
    "m0_over_sqrt_m",
    "neumann_constants",
    "whole_plane_limits",
    "whole_plane_limits_suite",
    "energy_limit",
    "gamma_alpha_m",
    "theta_bounds_check",
    "theta_bounds_suite",
    "m0_bounds_check",
    "m0_bounds_suite",
    "sup_norm_bounds",
    "sup_norm_bounds_suite",
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


def _check_integer(where: str, name: str, value) -> None:
    """The count rule's integer test; a ``bool`` is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{where}: {name} must be an integer (got {value!r})")


def _check_count(where: str, name: str, value: int, least: int, most: int | None = None) -> None:
    """The one count rule: an integer in ``least..most`` (``least..`` with no ``most``)."""
    _check_integer(where, name, value)
    if value < least:
        raise ValueError(f"{where}: {name} must be >= {least} (got {value})")
    if most is not None and value > most:
        raise ValueError(f"{where}: {name}={value} out of range {least}..{most}")


def _check_p(where: str, p: float) -> None:
    """The one exponent rule: p is finite and > 1."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"{where}: p must be finite and > 1 (got {p!r})")


def _check_tol(where: str, tol: float) -> None:
    """The one tolerance rule: tol lies in (0, 1)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"{where}: tol must be in (0, 1) (got {tol!r})")


def _check_alpha(where: str, alpha: float) -> None:
    """Reject a weight exponent that is negative, NaN or infinite."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"{where}: alpha must be finite and >= 0 (got {alpha!r})")


#: the least number of nodal regions each boundary condition admits;
#: Neumann solutions are necessarily sign-changing
_MIN_M = {"dirichlet": 1, "neumann": 2, "plane": 1}


def _check_bc(where: str, bc: str, m: int, bcs: tuple[str, ...] = tuple(_MIN_M)) -> None:
    """Reject a bc outside ``bcs``, or an m that is not an integer or that the bc does not admit."""
    if bc not in bcs:
        raise ValueError(f"{where}: unknown bc {bc!r}")
    _check_integer(where, "m", m)
    if m < _MIN_M[bc]:
        raise ValueError(f"{where}: m={m} invalid for bc={bc}")


def _theta_step(theta_prev: float) -> float:
    y = 2.0 / (2.0 + theta_prev)
    return 2.0 / lambert_w0(y * math.exp(-y)) + 2.0


#: theta_0 .. theta_{n-1} for the largest n asked of ``_theta_head`` so far
_THETA = [2.0]


def _thetas() -> Iterator[float]:
    """theta_0 = 2, theta_1, theta_2, ...: the one place the recursion runs.

    The stored prefix is yielded first; each later term is computed only
    when it is requested, and is not stored.
    """
    prefix = _THETA
    yield from prefix
    th = prefix[-1]
    while True:
        th = _theta_step(th)
        yield th


def _theta_head(n: int) -> list[float]:
    """``theta_0 .. theta_{n-1}`` as a new list; a shorter stored prefix is extended to n terms.

    ``_THETA`` is rebound, never changed in place; when two threads race,
    the shorter of two complete prefixes may win, which costs only a rerun.
    """
    global _THETA
    if len(_THETA) < n:
        _THETA = list(islice(_thetas(), n))
    return _THETA[:n]


def _a_step(a_prev: float) -> float:
    s = a_prev / (1.0 + 2.0 * a_prev)
    return lambert_w0(s * math.exp(-s))


#: a_seq_0 .. a_seq_{n-1} for the largest n asked of ``theta_sequence`` so far
_A_SEQ = [math.nan]


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


def theta_sequence(k_max: int) -> ThetaTable:
    """Compute ``theta_0 .. theta_k_max`` together with the a_seq oracle."""
    global _A_SEQ
    _check_count("theta_sequence", "k_max", k_max, 0)
    theta = np.array(_theta_head(k_max + 1))
    a_seq = _A_SEQ
    if len(a_seq) <= k_max:
        # extended as a new list, like _THETA; a Python list keeps the
        # Halley loop in lambert_w0 on plain floats
        a_seq = list(a_seq)
        if len(a_seq) == 1:
            a_seq.append(lambert_w0(0.5 * math.exp(-0.5)))
        while len(a_seq) <= k_max:
            a_seq.append(_a_step(a_seq[-1]))
        _A_SEQ = a_seq
    return ThetaTable(k_max=k_max, theta=theta, a_seq=np.array(a_seq[:k_max + 1]))


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


class _TableLogs:
    """Every entry of ``constant_table(m)`` for m = 1..m_max, as logs.

    Holds ``ln_mb[k] = 2/(2+theta_{k-1})`` and
    ``ln_db[k] = ln_mb[k] + ln(theta_{k-1}+2)`` for k = 1..m_max, and
    ``prefix[k]``, the cumulative log of the one-step radius ratios up to
    k (``prefix[1] = 0``).  Term k depends only on theta_0..theta_{k-1}
    and ``prefix`` is summed in the same order whatever ``m_max`` is, so
    an entry for m < m_max is the same double as in a table built for m.
    All products are formed from differences of ``prefix``, which keeps
    full relative precision for large m.  ``R``, ``S``, ``M`` and ``D``
    return ``constant_table(m).X[i]`` for the index ranges documented on
    :class:`ConstantTable`.
    """

    def __init__(self, m_max: int) -> None:
        theta = _theta_head(m_max)
        ln_mb = [0.0] + [2.0 / (2.0 + th) for th in theta]
        ln_db = [0.0] + [ln_mb[k] + math.log(theta[k - 1] + 2.0)
                         for k in range(1, m_max + 1)]
        prefix = [0.0, 0.0]
        for k in range(2, m_max + 1):
            step = (
                ln_mb[k - 1]
                + math.log(theta[k - 2] + 2.0)
                - ln_mb[k]
                - math.log(theta[k - 1] - 2.0)
            )
            prefix.append(prefix[k - 1] + step)
        self.ln_mb, self.ln_db, self.prefix = ln_mb, ln_db, prefix

    def R(self, m: int, i: int) -> float:
        return math.exp(self.prefix[m] - self.prefix[i])

    def S(self, m: int, i: int) -> float:
        if i == 0:
            return 0.0
        return math.exp(-self.ln_mb[i + 1] + self.prefix[m] - self.prefix[i + 1])

    def M(self, m: int, i: int) -> float:
        return math.exp(self.ln_mb[i + 1] + self.prefix[i + 1] - self.prefix[m])

    def D(self, m: int, i: int) -> float:
        return math.exp(self.ln_db[i] + self.prefix[i] - self.prefix[m])


def constant_table(m: int, alpha: float = 0.0) -> ConstantTable:
    """Build the full R/S/M/D table for ``m`` nodal regions."""
    _check_count("constant_table", "m", m, 1)
    _check_alpha("constant_table", alpha)
    logs = _TableLogs(m)
    R = np.full(m, math.nan)
    R[1:] = [logs.R(m, i) for i in range(1, m)]
    S = np.array([logs.S(m, i) for i in range(m)])
    M = np.array([logs.M(m, i) for i in range(m)])
    D = np.full(m + 1, math.nan)
    D[1:] = [logs.D(m, i) for i in range(1, m + 1)]
    return ConstantTable(m=m, alpha=float(alpha), R=R, S=S, M=M, D=D)


def _m0_values(thetas: Iterable[float]) -> Iterator[float]:
    """Product-formula values ``constant_table(m+1).M[0]`` for m = 1, 2, ...

    ``thetas`` yields theta_0, theta_1, ...; the values stop where it
    does.  Value m is ``(theta_m - 2)/4 * exp(2/(2+theta_m))`` times the
    running product of ``(theta_k - 2)/(theta_k + 2)`` over k = 1..m-1,
    kept as a sum of logs.
    """
    logsum = 0.0
    for th in islice(thetas, 1, None):
        yield (th - 2.0) / 4.0 * math.exp(2.0 / (2.0 + th) + logsum)
        logsum += math.log((th - 2.0) / (th + 2.0))


def m0_product_formula(m: int) -> float:
    """Closed product form of ``constant_table(m+1).M[0]`` (internal oracle).

    The m = 0 instance is taken to be the base value sqrt(e) (empty
    product convention).
    """
    _check_count("m0_product_formula", "m", m, 0)
    if m == 0:
        return SQRT_E
    return next(islice(_m0_values(_thetas()), m - 1, None))


def m0_sequence(m_max: int) -> np.ndarray:
    """``constant_table(i).M[0]`` for i = 1..m_max via one running product.

    Entry j (0-based) holds the value for i = j + 1.
    """
    _check_count("m0_sequence", "m_max", m_max, 1)
    out = np.empty(m_max)
    out[0] = SQRT_E
    out[1:] = np.fromiter(_m0_values(_theta_head(m_max)), float, m_max - 1)
    return out


def m0_over_sqrt_m(m: int) -> float:
    """``constant_table(m+1).M[0] / sqrt(m)``, streamed in O(1) memory.

    The sequence appears to approach a limit (~1.82774) as m grows; only
    the sqrt(pi) / 6*Gamma(3/4)/Gamma(1/4) sandwich is proved, so callers
    should treat the value as reported, not certified monotone.
    """
    _check_count("m0_over_sqrt_m", "m", m, 1)
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


def neumann_constants(m: int) -> NeumannConstantTable:
    """Neumann variant of :func:`constant_table` (requires m >= 2)."""
    _check_count("neumann_constants", "m", m, 2)
    return _neumann_table(constant_table(m))


def _neumann_table(tab: ConstantTable) -> NeumannConstantTable:
    """The Neumann table rescaled from the Dirichlet table ``tab`` (``tab.m >= 2``)."""
    m = tab.m
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


def whole_plane_limits(m: int, alpha: float = 0.0) -> WholePlaneLimits:
    """Limits of the zero/critical data of the whole-plane solution.

    They are read from the Dirichlet tables for m and m+1 regions.
    """
    _check_count("whole_plane_limits", "m", m, 1)
    _check_alpha("whole_plane_limits", alpha)
    return whole_plane_limits_suite(m, alpha)[-1]


def whole_plane_limits_suite(m_max: int, alpha: float = 0.0) -> list[WholePlaneLimits]:
    """:func:`whole_plane_limits` for m = 1..m_max off one theta prefix."""
    _check_count("whole_plane_limits_suite", "m_max", m_max, 1)
    _check_alpha("whole_plane_limits_suite", alpha)
    logs = _TableLogs(m_max + 1)
    q = alpha + 2.0
    out = []
    for m in range(1, m_max + 1):
        m0, m0_next = logs.M(m, 0), logs.M(m + 1, 0)
        out.append(WholePlaneLimits(
            m=m,
            alpha=float(alpha),
            rho_lim=m0 ** (2.0 / q),
            drv_lim=q / 2.0 * logs.D(m, m) / m0,
            delta_lim=(m0_next * logs.S(m + 1, m)) ** (2.0 / q),
            val_lim=logs.M(m + 1, m) / m0_next,
        ))
    return out


def energy_limit(m: int, alpha: float, bc: str) -> float:
    """Limit of ``p * int_0^1 |u'|^2 r dr`` for the m-region solution."""
    _check_bc("energy_limit", bc, m, bcs=("dirichlet", "neumann"))
    _check_alpha("energy_limit", alpha)
    th = _theta_head(m)[-1]
    if bc == "dirichlet":
        m_last = math.exp(2.0 / (2.0 + th))
        return (alpha + 2.0) / 8.0 * m_last**2 * (th + 2.0) ** 2
    return (alpha + 2.0) / 8.0 * (th + 2.0) * (th - 2.0)


def gamma_alpha_m(alpha: float, m: int) -> float:
    """Signed strength of the logarithmic limit profile of ``p*u``."""
    _check_count("gamma_alpha_m", "m", m, 1)
    _check_alpha("gamma_alpha_m", alpha)
    th = _theta_head(m)[-1]
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


_BOUNDS_COLUMNS = ("check", "index", "lower", "value", "upper", "holds")


@dataclass(frozen=True, eq=False)
class BoundsTable:
    """Bounds reports as six parallel columns, one entry per report.

    ``check`` is a tuple of str; ``index`` (int), ``lower``, ``value``,
    ``upper`` (float64) and ``holds`` (bool) are frozen arrays.  Row access
    and iteration yield :class:`BoundsReport` rows with plain
    ``int``/``float``/``bool`` fields, ``len`` counts the rows, ``+``
    concatenates two tables, and a table compares equal to any sequence
    of the same rows.
    """

    check: tuple[str, ...]
    index: np.ndarray
    lower: np.ndarray
    value: np.ndarray
    upper: np.ndarray
    holds: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.index, self.lower, self.value, self.upper, self.holds):
            _freeze(arr)

    def columns(self) -> tuple[list, ...]:
        """The six columns as lists of plain Python values."""
        return (list(self.check), self.index.tolist(), self.lower.tolist(),
                self.value.tolist(), self.upper.tolist(), self.holds.tolist())

    def __len__(self) -> int:
        return len(self.check)

    def __getitem__(self, i: int) -> BoundsReport:
        return BoundsReport(self.check[i], self.index.item(i), self.lower.item(i),
                            self.value.item(i), self.upper.item(i), self.holds.item(i))

    def __iter__(self) -> Iterator[BoundsReport]:
        return map(BoundsReport, *self.columns())

    def __add__(self, other: BoundsTable) -> BoundsTable:
        if not isinstance(other, BoundsTable):
            return NotImplemented
        return BoundsTable(self.check + other.check, *(
            np.concatenate((getattr(self, name), getattr(other, name)))
            for name in _BOUNDS_COLUMNS[1:]
        ))

    def __eq__(self, other) -> bool:
        try:
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented


def _sandwich(check: str, index, lower, value, upper, also=True) -> BoundsTable:
    """One ``check`` report per ``index``; it holds when its sandwich and ``also`` do.

    This is the one place a :class:`BoundsReport` sandwich is evaluated.
    Every argument but ``check`` is a column (``also`` may be a scalar),
    and the comparisons run over whole arrays.
    """
    index = np.asarray(index, dtype=np.int64)
    lower, value, upper = (np.asarray(x, dtype=float) for x in (lower, value, upper))
    holds = (lower < value) & (value < upper) & also
    return BoundsTable((check,) * len(index), index, lower, value, upper, holds)


def _theta_sandwich(table: ThetaTable, ks: np.ndarray) -> BoundsTable:
    """The ``theta_growth`` report of :func:`theta_bounds_check` for each k in ``ks``.

    W is the inverse of the increasing map x*e^x on [0, inf), so each clause
    ``x < W(1/(4k))`` is decided as ``x*e^x < 1/(4k)`` and W is never formed:
    ``theta_k < 2 + 2/W`` is ``W < 2/(theta_k - 2)``, and ``1/(4k+1) < W``
    is also ``2 + 2/W < 4+8k``.  With q = 1/(4k) and l = 1/(4k+1) = q/(1+q),
    ``l*e^l < q`` is ``l < ln(q/l) = log1p(q)``, which is decided in that
    form: its relative margin is about 1/(8k), against about 1/(32k^2) for
    the product, which rounding overturns from k near 1e7 on.
    """
    theta = table.theta[ks]
    a = table.a_seq[ks]
    quarter = 1.0 / (4.0 * ks)
    b = 2.0 / (theta - 2.0)
    ell = 1.0 / (4.0 * ks + 1.0)
    also = ((quarter < b * np.exp(b)) & (ell < np.log1p(quarter))
            & (quarter < a * np.exp(a)) & (a < quarter))
    return _sandwich("theta_growth", ks, 2.0 + 8.0 * ks, theta, 4.0 + 8.0 * ks, also)


def theta_bounds_check(k: int) -> BoundsReport:
    """Linear-growth sandwich ``2+8k < theta_k < 2 + 2/W(1/(4k)) < 4+8k``.

    ``holds`` additionally requires the companion chain
    ``1/(4k+1) < W(1/(4k)) < a_seq[k] < 1/(4k)``.
    """
    _check_count("theta_bounds_check", "k", k, 1)
    return _theta_sandwich(theta_sequence(k), np.arange(k, k + 1))[0]


def theta_bounds_suite(k_max: int) -> BoundsTable:
    """:func:`theta_bounds_check` for k = 1..k_max off one shared table, as columns."""
    _check_count("theta_bounds_suite", "k_max", k_max, 1)
    return _theta_sandwich(theta_sequence(k_max), np.arange(1, k_max + 1))


def _m0_gamma_bounds(m: int) -> tuple[float, float]:
    lower = GROWTH_C1 * math.exp(
        ln_gamma(m + 1.0) - ln_gamma(m + 0.5) + 1.0 / (3.0 + 4.0 * m)
    )
    upper = GROWTH_C2 * math.exp(
        ln_gamma(m + 1.25) - ln_gamma(m + 0.75) + 1.0 / (2.0 + 4.0 * m)
    )
    return lower, upper


def m0_bounds_check(m: int) -> BoundsReport:
    """Gamma-ratio sandwich for the sup-norm limit ``constant_table(m+1).M[0]``."""
    _check_count("m0_bounds_check", "m", m, 1)
    return m0_bounds_suite(m)[-1]


def m0_bounds_suite(m_max: int) -> BoundsTable:
    """:func:`m0_bounds_check` for m = 1..m_max with a running product, as columns."""
    _check_count("m0_bounds_suite", "m_max", m_max, 1)
    ms = range(1, m_max + 1)
    lower, upper = zip(*map(_m0_gamma_bounds, ms))
    value = np.fromiter(_m0_values(_theta_head(m_max + 1)), float, m_max)
    return _sandwich("m0_growth", ms, lower, value, upper)


def sup_norm_bounds(m: int) -> list[BoundsReport]:
    """Sup-norm growth sandwiches for the Dirichlet and Neumann solutions.

    Emits ``dirichlet_sup`` (m >= 1), and for m >= 2 also ``s_last``, the
    sandwich ``exp(-1/(4m-2)) < S[m-1] < exp(-1/(4m-1))``, and
    ``neumann_sup``, which relies on it.
    """
    _check_count("sup_norm_bounds", "m", m, 1)
    return [r for r in sup_norm_bounds_suite(m) if r.index == m]


def sup_norm_bounds_suite(m_max: int) -> BoundsTable:
    """:func:`sup_norm_bounds` for m = 1..m_max, concatenated, off one theta prefix.

    Returned as columns, a :class:`BoundsTable`.
    """
    _check_count("sup_norm_bounds_suite", "m_max", m_max, 1)
    logs = _TableLogs(m_max)
    ms = range(1, m_max + 1)
    m0 = np.array([logs.M(m, 0) for m in ms])
    s_last = np.array([logs.S(m, m - 1) for m in ms])
    lo, up = np.array([_m0_gamma_bounds(m - 1) for m in ms]).T
    s_lo = np.array([math.exp(-1.0 / (4.0 * m - 2.0)) for m in ms])
    s_up = np.array([math.exp(-1.0 / (4.0 * m - 1.0)) for m in ms])
    table = (_sandwich("dirichlet_sup", ms, lo, m0, up)
             + _sandwich("s_last", ms[1:], s_lo[1:], s_last[1:], s_up[1:])
             + _sandwich("neumann_sup", ms[1:], (lo * s_lo)[1:], (s_last * m0)[1:],
                         (up * s_up)[1:]))
    # rows by m: dirichlet_sup, s_last, neumann_sup
    order = np.argsort(table.index, kind="stable")
    return BoundsTable(tuple(table.check[i] for i in order.tolist()), *(
        getattr(table, name)[order] for name in _BOUNDS_COLUMNS[1:]))


def morse_conjecture(m: int) -> int:
    """Conjectured Morse index ``4m^2 - m - 2`` of the m-region solution."""
    _check_count("morse_conjecture", "m", m, 1)
    return 4 * m * m - m - 2


def bubble_morse(k: int) -> int:
    """Morse index of the k-th limit bubble: 1 for k = 0, else ``8k + 3``."""
    _check_count("bubble_morse", "k", k, 0)
    return 1 if k == 0 else 8 * k + 3
