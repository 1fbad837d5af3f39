"""Tests for the limit-constant tables, bounds, and growth checks."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from nodal import bubbles as bb
from nodal import constants as cn
from nodal import radial_ode as rd

SQRT_E = math.exp(0.5)

# Reference values to 6 printed digits: (m, theta_m, M0 for m regions, M0/sqrt(m)).
REFERENCE_TABLE = [
    (1, 10.374, 1.6487, 1.6487),
    (2, 18.4277, 2.46075, 1.74001),
    (3, 26.4493, 3.06521, 1.7697),
    (4, 34.4609, 3.56876, 1.78438),
    (5, 42.4682, 4.00957, 1.79313),
    (6, 50.4731, 4.40651, 1.79895),
    (7, 58.4767, 4.77053, 1.80309),
    (8, 66.4795, 5.10867, 1.80619),
    (9, 74.4816, 5.42579, 1.8086),
    (10, 82.4833, 5.72537, 1.81052),
    (11, 90.4848, 6.01003, 1.81209),
    (12, 98.486, 6.28181, 1.8134),
    (13, 106.487, 6.5423, 1.81451),
    (14, 114.488, 6.79282, 1.81546),
    (15, 122.489, 7.03442, 1.81628),
    (16, 130.489, 7.26799, 1.817),
    (17, 138.49, 7.49429, 1.81763),
    (18, 146.49, 7.71395, 1.81819),
    (19, 154.491, 7.92752, 1.8187),
    (20, 162.491, 8.13549, 1.81915),
    (21, 170.492, 8.33828, 1.81956),
    (22, 178.492, 8.53625, 1.81993),
    (23, 186.492, 8.72973, 1.82027),
    (24, 194.493, 8.91901, 1.82059),
    (25, 202.493, 9.10436, 1.82087),
]


def test_theta_base_cases():
    tab = cn.theta_sequence(2)
    assert tab.theta[0] == 2.0
    assert abs(tab.theta[1] - 10.374) < 5e-4 * 10.374
    assert abs(tab.theta[2] - 18.4277) < 5e-4 * 18.4277
    # frozen full-precision values from this implementation, cross-checked
    # against the a_seq recursion below
    assert abs(tab.theta[1] - 10.373980946278852) < 1e-12
    assert abs(tab.theta[2] - 18.427730498537738) < 1e-12


def test_reference_table():
    tab = cn.theta_sequence(25)
    m0s = cn.m0_sequence(25)
    for m, theta_ref, m0_ref, ratio_ref in REFERENCE_TABLE:
        assert abs(tab.theta[m] - theta_ref) <= 5e-4 * theta_ref
        assert abs(m0s[m - 1] - m0_ref) <= 5e-5 * m0_ref
        assert abs(m0s[m - 1] / math.sqrt(m) - ratio_ref) <= 5e-5 * ratio_ref


def test_dual_recursion_agreement():
    tab = cn.theta_sequence(10_000)
    alt = 2.0 + 2.0 / tab.a_seq[1:]
    assert np.max(np.abs(tab.theta[1:] - alt) / tab.theta[1:]) <= 1e-12


def test_theta_sandwich_and_floor():
    tab = cn.theta_sequence(1000)
    ks = np.arange(1, 1001)
    assert np.all(tab.theta[1:] > 2.0 + 8.0 * ks)
    assert np.all(tab.theta[1:] < 4.0 + 8.0 * ks)
    assert np.all(np.diff(tab.theta) > 0.0)
    assert np.all(np.floor(tab.theta[1:] / 2.0) == 4 * ks + 1)


def test_theta_to_a_identity():
    # theta[k] = 2 + 2/a_seq[k] within 1e-12 relative
    tab = cn.theta_sequence(50)
    for k in range(1, 51):
        assert abs(tab.theta[k] - (2.0 + 2.0 / tab.a_seq[k])) <= 1e-12 * tab.theta[k]


def test_table_m1():
    tab = cn.constant_table(1)
    assert abs(tab.M[0] - SQRT_E) < 1e-15
    assert abs(tab.D[1] - 4.0 * SQRT_E) < 1e-14
    assert tab.S[0] == 0.0
    assert tab.R.shape == (1,) and math.isnan(tab.R[0])


def test_table_m2_closed_forms():
    # every m=2 entry has a closed form in theta_1; both routes must agree
    tab = cn.constant_table(2)
    th = cn.theta_sequence(1).theta[1]
    e_pow = math.exp(2.0 / (th + 2.0))
    assert abs(tab.M[0] - (th - 2.0) / 4.0 * e_pow) < 1e-14
    assert abs(tab.M[1] - e_pow) < 1e-14
    assert abs(tab.S[1] - 1.0 / e_pow) < 1e-14
    assert abs(tab.R[1] - 4.0 * SQRT_E / ((th - 2.0) * e_pow)) < 1e-14
    assert abs(tab.D[2] - (th + 2.0) * e_pow) < 1e-13
    assert abs(tab.D[1] - (th - 2.0) * e_pow) < 1e-13
    # frozen values (agree with the reference table to its precision)
    assert abs(tab.M[0] - 2.460745868522348) < 1e-13
    assert abs(tab.S[1] - 0.8507563756784177) < 1e-14
    assert abs(tab.R[1] - 0.6700087529518715) < 1e-14
    assert abs(tab.D[2] - 14.544682003013467) < 1e-12


def test_product_formula_oracle():
    assert cn.m0_product_formula(0) == SQRT_E
    assert abs(cn.m0_product_formula(1) - 2.46075) < 5e-5 * 2.46075
    for m in (1, 2, 3, 7, 20, 50, 100, 400, 1000):
        direct = cn.constant_table(m + 1).M[0]
        assert abs(cn.m0_product_formula(m) - direct) <= 1e-12 * direct


def test_m0_sequence_matches_tables():
    seq = cn.m0_sequence(40)
    for i in (1, 2, 5, 17, 40):
        direct = cn.constant_table(i).M[0]
        assert abs(seq[i - 1] - direct) <= 1e-13 * direct


def test_m0_over_sqrt_m_consistency():
    val = cn.m0_over_sqrt_m(300)
    direct = cn.constant_table(301).M[0] / math.sqrt(300)
    assert abs(val - direct) <= 1e-12 * direct


def test_m0_routes_share_one_generator():
    # every M0 route reads the same running product, so they agree bit for bit
    n = 60
    seq = cn.m0_sequence(n)
    suite = cn.m0_bounds_suite(n)
    for m in range(1, n + 1):
        assert seq[m - 1] == cn.m0_product_formula(m - 1)
        assert suite[m - 1].value == cn.m0_product_formula(m)
        assert cn.m0_over_sqrt_m(m) == cn.m0_product_formula(m) / math.sqrt(m)


def test_ordering_chain():
    for m in (1, 2, 3, 5, 10, 50):
        tab = cn.constant_table(m)
        chain = [0.0]
        for i in range(1, m):
            chain.extend([tab.R[i], tab.S[i]])
        assert chain[0] == tab.S[0] == 0.0
        assert all(b > a for a, b in zip(chain, chain[1:]))
        if m >= 2:
            assert chain[-1] < 1.0
        ms = tab.M
        assert all(b < a for a, b in zip(ms, ms[1:]))
        assert ms[-1] > 1.0


def test_cross_m_monotonicity():
    # M (all i) and D strictly increase with m; S and R strictly decrease
    # (for i >= 1; S[0] is identically 0 and R[0]/D[0] are not defined)
    tables = {m: cn.constant_table(m) for m in range(1, 41)}
    for i in range(0, 6):
        for m in range(i + 2, 40):
            a, b = tables[m], tables[m + 1]
            assert b.M[i] > a.M[i]
            if i >= 1:
                assert b.D[i] > a.D[i]
                assert b.S[i] < a.S[i]
                assert b.R[i] < a.R[i]


def test_neumann_m2():
    ntab = cn.neumann_constants(2)
    assert abs(ntab.Mbar[1] - 1.0) <= 1e-14
    assert abs(ntab.Mbar[0] - 2.093495236569713) < 1e-13  # S1*M0, frozen
    assert abs(ntab.Mbar[0] - 0.8507563756784177 * 2.460745868522348) < 1e-13


def test_neumann_m3_ratios():
    tab = cn.constant_table(3)
    ntab = cn.neumann_constants(3)
    assert abs(ntab.Sbar[1] - tab.S[1] / tab.S[2]) < 1e-15
    assert abs(ntab.Rbar[2] - tab.R[2] / tab.S[2]) < 1e-15
    assert abs(ntab.Dbar[1] - tab.S[2] * tab.D[1]) < 1e-13
    assert math.isnan(ntab.Rbar[0])


def test_neumann_requires_m2():
    with pytest.raises(ValueError):
        cn.neumann_constants(1)


def test_whole_plane_limits():
    w1 = cn.whole_plane_limits(1, 0.0)
    assert abs(w1.rho_lim - SQRT_E) < 1e-14
    w2 = cn.whole_plane_limits(2, 0.0)
    assert abs(w2.rho_lim - 2.46075) < 5e-5 * 2.46075
    # alpha enters via the 2/(alpha+2) power only
    w2a = cn.whole_plane_limits(2, 2.0)
    assert abs(w2a.rho_lim - math.sqrt(w2.rho_lim)) < 1e-14
    # delta/value limits against directly assembled tables
    t3 = cn.constant_table(3)
    assert abs(w2.delta_lim - t3.M[0] * t3.S[2]) < 1e-13
    assert abs(w2.val_lim - t3.M[2] / t3.M[0]) < 1e-14


def _loop_table(m):
    """constant_table(m) as first written: numpy prefix sums, one table per m (reference)."""
    theta = cn.theta_sequence(m).theta
    ln_mb = np.zeros(m + 1)
    ln_db = np.zeros(m + 1)
    for k in range(1, m + 1):
        ln_mb[k] = 2.0 / (2.0 + theta[k - 1])
        ln_db[k] = ln_mb[k] + math.log(theta[k - 1] + 2.0)
    prefix = np.zeros(m + 1)
    for k in range(2, m + 1):
        step = (ln_mb[k - 1] + math.log(theta[k - 2] + 2.0)
                - ln_mb[k] - math.log(theta[k - 1] - 2.0))
        prefix[k] = prefix[k - 1] + step
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
    return R, S, M, D


def _two_table_plane_limits(m, alpha):
    """whole_plane_limits as first written, from the full tables for m and m+1 (reference)."""
    q = alpha + 2.0
    tab_m = cn.constant_table(m)
    tab_m1 = cn.constant_table(m + 1)
    return cn.WholePlaneLimits(
        m=m,
        alpha=float(alpha),
        rho_lim=tab_m.M[0] ** (2.0 / q),
        drv_lim=q / 2.0 * tab_m.D[m] / tab_m.M[0],
        delta_lim=(tab_m1.M[0] * tab_m1.S[m]) ** (2.0 / q),
        val_lim=tab_m1.M[m] / tab_m1.M[0],
    )


def test_table_equals_loop_reference():
    for m in range(1, 121):
        tab = cn.constant_table(m)
        for got, want in zip((tab.R, tab.S, tab.M, tab.D), _loop_table(m)):
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_whole_plane_limits_equal_two_table_reference(alpha):
    for m in range(1, 121):
        assert cn.whole_plane_limits(m, alpha) == _two_table_plane_limits(m, alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("m_max", [1, 2, 120])
def test_whole_plane_suite_equals_single_calls(m_max, alpha):
    suite = cn.whole_plane_limits_suite(m_max, alpha)
    assert len(suite) == m_max
    for m in range(1, m_max + 1):
        assert suite[m - 1] == cn.whole_plane_limits(m, alpha)


@pytest.mark.parametrize("m_max", [1, 2, 150])
def test_sup_norm_suite_equals_concatenation(m_max):
    singles = [r for m in range(1, m_max + 1) for r in cn.sup_norm_bounds(m)]
    assert cn.sup_norm_bounds_suite(m_max) == singles


def test_energy_limits():
    assert abs(cn.energy_limit(1, 0.0, "dirichlet") - 4.0 * math.e) < 1e-12
    th1 = cn.theta_sequence(1).theta[1]
    expected = (th1 + 2.0) ** 2 / 4.0 * math.exp(4.0 / (th1 + 2.0))
    got = cn.energy_limit(2, 0.0, "dirichlet")
    assert abs(got - expected) < 1e-12 * expected
    assert abs(got - 52.886943642196) < 1e-9
    neu = cn.energy_limit(2, 0.0, "neumann")
    assert abs(neu - 0.25 * (th1 + 2.0) * (th1 - 2.0)) < 1e-12 * neu
    assert abs(neu - 25.904870168439167) < 1e-9
    # (alpha+2)/2 scaling
    assert abs(cn.energy_limit(1, 2.0, "dirichlet") - 8.0 * math.e) < 1e-12
    with pytest.raises(ValueError):
        cn.energy_limit(1, 0.0, "neumann")
    with pytest.raises(ValueError):
        cn.energy_limit(1, 0.0, "robin")
    with pytest.raises(ValueError):  # a whole-plane solution has no disc energy
        cn.energy_limit(2, 0, "plane")


def test_gamma_alpha_m():
    assert abs(cn.gamma_alpha_m(0.0, 1) - 4.0 * SQRT_E) < 1e-13
    d2 = cn.constant_table(2).D[2]
    assert abs(cn.gamma_alpha_m(0.0, 2) + d2) < 1e-12
    assert abs(cn.gamma_alpha_m(2.0, 1) - 8.0 * SQRT_E) < 1e-12


def test_whole_plane_limits_refuse_overflow():
    # drv_lim = (alpha+2)/2 * D/M0 overflows a double from alpha ~ 5.45e307 at m = 1,
    # 2.47e307 at m = 2 and 4.5e305 at m = 100: a ValueError naming m and alpha
    assert math.isfinite(cn.whole_plane_limits(1, 5e307).drv_lim)
    assert math.isfinite(cn.whole_plane_limits_suite(100, 4e305)[-1].drv_lim)
    with pytest.raises(ValueError, match=r"^whole_plane_limits_suite: the limit overflows a "
                                         r"double at m=1, alpha=1e\+308$"):
        cn.whole_plane_limits(2, 1e308)
    with pytest.raises(ValueError, match=r"overflows a double at m=\d+, alpha=1e\+306$"):
        cn.whole_plane_limits_suite(100, 1e306)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_energy_limit_refuses_overflow(bc):
    assert math.isfinite(cn.energy_limit(2, 1e300, bc))
    with pytest.raises(ValueError, match=r"^energy_limit: the limit overflows a double at "
                                         r"m=2, alpha=1\.79e\+308$"):
        cn.energy_limit(2, 1.79e308, bc)


def test_gamma_alpha_m_refuses_overflow():
    assert math.isfinite(cn.gamma_alpha_m(1e300, 3))
    with pytest.raises(ValueError, match=r"^gamma_alpha_m: the limit overflows a double at "
                                         r"m=3, alpha=1\.7e\+308$"):
        cn.gamma_alpha_m(1.7e308, 3)


def test_theta_bounds_check():
    rep = cn.theta_bounds_check(1)
    assert rep.lower == 10.0 and rep.upper == 12.0 and rep.holds
    assert abs(rep.value - 10.374) < 5e-3
    rep10 = cn.theta_bounds_check(10)
    assert rep10.holds and 82.0 < rep10.value < 84.0
    assert abs(rep10.value - 82.4833) < 5e-4 * 82.4833
    assert cn.theta_bounds_check(10_000).holds


def test_theta_bounds_suite():
    reports = cn.theta_bounds_suite(200)
    assert len(reports) == 200
    assert all(r.holds for r in reports)


def test_theta_bounds_check_equals_suite_row():
    suite = cn.theta_bounds_suite(900)
    for k in (1, 2, 450, 900):
        assert cn.theta_bounds_check(k) == suite[k - 1]


def test_theta_sandwich_matches_the_scalar_w_definition():
    # every k up to 1e5, where the W(1/(4k)) clauses have their least margins;
    # the suite decides them through x*e^x, the definition through W itself
    k_max = 100_000
    tab = cn.theta_sequence(k_max)
    ks = np.arange(1, k_max + 1)
    theta, a = tab.theta[1:], tab.a_seq[1:]
    w = np.array([cn.lambert_w0(1.0 / (4.0 * k)) for k in range(1, k_max + 1)])
    mid = 2.0 + 2.0 / w
    upper = 4.0 + 8.0 * ks
    holds = ((2.0 + 8.0 * ks < theta) & (theta < mid) & (mid < upper) & (theta < upper)
             & (1.0 / (4.0 * ks + 1.0) < w) & (w < a) & (a < 1.0 / (4.0 * ks)))
    assert holds.all()
    assert np.array_equal(cn.theta_bounds_suite(k_max).holds, holds)


def test_theta_sandwich_rejects_each_broken_clause():
    k, good = 7, cn.theta_sequence(7)
    w = cn.lambert_w0(1.0 / (4.0 * k))
    broken = {
        "theta at the lower bound": (2.0 + 8.0 * k, None),
        "theta above 2 + 2/W": (4.0 + 8.0 * k - 1e-9, None),
        "a_seq below W": (None, 0.5 * w),
        "a_seq above 1/(4k)": (None, 1.0 / (4.0 * k) * (1.0 + 1e-12)),
    }
    ks = np.arange(k, k + 1)
    assert cn._theta_sandwich(good, ks)[0].holds
    for name, (th, a) in broken.items():
        theta, a_seq = good.theta.copy(), good.a_seq.copy()
        if th is not None:
            theta[k] = th
        if a is not None:
            a_seq[k] = a
        table = cn.ThetaTable(k_max=k, theta=theta, a_seq=a_seq)
        assert not cn._theta_sandwich(table, ks)[0].holds, name


class _Formula:
    """Stands in for a table column: ``column[ks]`` evaluates ``f(ks)``."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, ks):
        return self.f(ks)


@pytest.mark.parametrize("k_lo", [10_000_000, 30_000_000])
def test_theta_sandwich_lower_w_clause_survives_rounding(k_lo):
    # 1/(4k+1) < W(1/(4k)) has relative margin ~1/(8k) in the form l < log1p(q);
    # as l*e^l < q it is ~1/(32k^2), which rounding overturns in these windows.
    # theta_k = 8k+3 and a_seq[k] = q(1 - q/2) pass the other three clauses with
    # margins ~1/(8k), so holds decides this clause alone, with no theta built
    def a_seq(ks):
        q = 1.0 / (4.0 * ks)
        return q * (1.0 - q / 2.0)

    table = SimpleNamespace(theta=_Formula(lambda ks: 8.0 * ks + 3.0), a_seq=_Formula(a_seq))
    ks = np.arange(k_lo, k_lo + 2_000_000)
    assert cn._theta_sandwich(table, ks).holds.all()


def test_sandwich_rejects_each_broken_bound():
    # the one rule behind every bounds suite: lower < value < upper, and the extra clause
    value = [0.5, 0.0, 1.0, -1.0, 2.0, math.nan, 0.5]
    also = np.array([True] * 6 + [False])
    table = cn._sandwich("x", range(1, 8), [0.0] * 7, value, [1.0] * 7, also)
    assert table.holds.tolist() == [True] + [False] * 6
    assert table.check == ("x",) * 7 and table.index.tolist() == list(range(1, 8))


def test_bounds_tables_yield_plain_rows():
    table = cn.theta_bounds_suite(3) + cn.m0_bounds_suite(3) + cn.sup_norm_bounds_suite(3)
    assert isinstance(table, cn.BoundsTable) and len(table) == 3 + 3 + 7
    for row in [*table, table[0], table[-1]]:
        assert isinstance(row, cn.BoundsReport)
        assert [type(getattr(row, name)) for name in
                ("check", "index", "lower", "value", "upper", "holds")] == \
               [str, int, float, float, float, bool]
    assert list(table) == [table[i] for i in range(len(table))]
    assert table[-1] == cn.sup_norm_bounds(3)[-1]
    assert table != list(table)[:-1]
    with pytest.raises(ValueError):
        table.value[0] = 0.0


def test_theta_bounds_suite_rejects_nonpositive_kmax():
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="theta_bounds_suite: k_max must be >= 1"):
            cn.theta_bounds_suite(k_max)


def _theta_loop(n):
    """theta_0 .. theta_{n-1} by the plain recursion, the reference for the stored prefix."""
    out = [2.0]
    while len(out) < n:
        out.append(cn._theta_step(out[-1]))
    return out[:n]


_THETA_REF = _theta_loop(5000)


def _a_seq_loop(n):
    """a_seq_0 .. a_seq_{n-1} by the plain recursion, the reference for the stored prefix."""
    out = [math.nan, cn.lambert_w0(0.5 * math.exp(-0.5))]
    while len(out) < n:
        out.append(cn._a_step(out[-1]))
    return np.array(out[:n])


_A_SEQ_REF = _a_seq_loop(5000)


@pytest.mark.parametrize("steps", [[5000], [1, 2, 3, 40, 41, 999, 5000], [5000, 4999, 17, 1]],
                         ids=["one call", "rising", "from a longer prefix"])
def test_theta_head_equals_the_plain_recursion(monkeypatch, steps):
    monkeypatch.setattr(cn, "_THETA", [2.0])
    for n in steps:
        head = cn._theta_head(n)
        assert head == _THETA_REF[:n]
        assert len(cn._THETA) == max(steps[:steps.index(n) + 1])
    assert cn._THETA == _THETA_REF[:max(steps)]


def _theta_readers():
    """Every result that reads the stored theta or a_seq prefix, as comparable bits."""
    m, alpha = 40, 2.5
    tab, neu, seq = cn.constant_table(m, alpha), cn.neumann_constants(m), cn.theta_sequence(m)
    bounds = cn.theta_bounds_suite(30) + cn.m0_bounds_suite(m) + cn.sup_norm_bounds_suite(m)
    return [
        [getattr(tab, name).tobytes() for name in ("R", "S", "M", "D")],
        [getattr(neu, name).tobytes() for name in ("Rbar", "Dbar", "Sbar", "Mbar")],
        cn.m0_sequence(m).tobytes(),
        cn.whole_plane_limits_suite(m, alpha),
        [col.tobytes() if isinstance(col, np.ndarray) else col
         for col in (bounds.check, bounds.index, bounds.lower, bounds.value, bounds.upper,
                     bounds.holds)],
        [bb.bubble_spec(i, alpha) for i in (0, 1, 39)],
        [seq.theta.tobytes(), seq.a_seq.tobytes()],
    ]


def test_theta_readers_same_bits_from_a_cold_and_a_warm_prefix(monkeypatch):
    monkeypatch.setattr(cn, "_THETA", [2.0])
    monkeypatch.setattr(cn, "_A_SEQ", [math.nan])
    cold = _theta_readers()
    assert np.array(cn._A_SEQ).tobytes() == _A_SEQ_REF[:41].tobytes()
    monkeypatch.setattr(cn, "_THETA", [2.0])
    monkeypatch.setattr(cn, "_A_SEQ", [math.nan])
    cn._theta_head(3000)
    cn.theta_sequence(3000)
    assert _theta_readers() == cold


def test_streamed_m0_leaves_the_stored_prefix_alone(monkeypatch):
    stored = cn._theta_head(10)
    monkeypatch.setattr(cn, "_THETA", stored)
    value, ratio = cn.m0_product_formula(50_000), cn.m0_over_sqrt_m(50_000)
    assert cn._THETA is stored and len(stored) == 10
    # the stored route gives the streamed bits
    assert cn.m0_sequence(50_001)[-1] == value and value / math.sqrt(50_000) == ratio


def test_theta_prefix_under_concurrent_requests(monkeypatch):
    sizes = (5000, 1200, 3700, 2)
    heads, a_seqs, suites = {}, {}, {}

    def suite_bits(k):
        suite = cn.theta_bounds_suite(k)
        return suite.value.tobytes(), suite.holds.tobytes()

    # the suites read once in this thread, as the reference
    suite_ref = {n: suite_bits(n - 1) for n in sizes}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            monkeypatch.setattr(cn, "_THETA", [2.0])
            monkeypatch.setattr(cn, "_A_SEQ", [math.nan])
            start = threading.Barrier(len(sizes))

            def ask(n):
                start.wait(timeout=30)
                heads[n] = cn._theta_head(n)
                a_seqs[n] = cn.theta_sequence(n - 1).a_seq.tobytes()
                suites[n] = suite_bits(n - 1)

            threads = [threading.Thread(target=ask, args=(n,)) for n in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(heads.pop(n) == _THETA_REF[:n] for n in sizes)
            assert all(a_seqs.pop(n) == _A_SEQ_REF[:n].tobytes() for n in sizes)
            assert all(suites.pop(n) == suite_ref[n] for n in sizes)
            assert cn._THETA == _THETA_REF[:len(cn._THETA)]
            assert np.array(cn._A_SEQ).tobytes() == _A_SEQ_REF[:len(cn._A_SEQ)].tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_m0_bounds_check():
    rep = cn.m0_bounds_check(1)
    assert rep.holds
    assert abs(rep.lower - 2.0 * math.exp(1.0 / 7.0)) < 1e-14
    assert abs(rep.value - 2.46075) < 5e-5 * 2.46075
    assert abs(rep.upper - 2.9534010321641144) < 1e-12
    rep24 = cn.m0_bounds_check(24)
    assert rep24.holds and abs(rep24.value - 9.10436) < 5e-5 * 9.10436


def test_m0_bounds_suite():
    reports = cn.m0_bounds_suite(500)
    assert all(r.holds for r in reports)
    # the suite and the standalone check agree
    solo = cn.m0_bounds_check(137)
    assert abs(reports[136].value - solo.value) < 1e-13 * solo.value


def test_sup_norm_bounds():
    for m in range(1, 51):
        reports = cn.sup_norm_bounds(m)
        assert all(r.holds for r in reports)
    checks = {r.check for r in cn.sup_norm_bounds(3)}
    assert checks == {"dirichlet_sup", "s_last", "neumann_sup"}
    assert [r.check for r in cn.sup_norm_bounds(1)] == ["dirichlet_sup"]


def test_s_last_sandwich_large_m():
    # S[m-1] -> 1 from below, squeezed between exp(-1/(4m-2)) and exp(-1/(4m-1))
    theta = cn.theta_sequence(10_000).theta
    ms = np.arange(2, 10_001)
    s_last = np.exp(-2.0 / (2.0 + theta[ms - 1]))
    assert np.all(np.exp(-1.0 / (4.0 * ms - 2.0)) < s_last)
    assert np.all(s_last < np.exp(-1.0 / (4.0 * ms - 1.0)))


def test_morse_values():
    assert cn.morse_conjecture(1) == 1
    assert cn.morse_conjecture(2) == 12
    assert cn.morse_conjecture(3) == 31
    assert cn.bubble_morse(0) == 1
    assert cn.bubble_morse(1) == 11
    for m in range(1, 101):
        assert cn.morse_conjecture(m) == sum(cn.bubble_morse(k) for k in range(m))


def test_bubble_morse_floor_link():
    # 8k+3 == 1 + 2*floor(theta_k/2)
    tab = cn.theta_sequence(64)
    for k in range(1, 65):
        assert cn.bubble_morse(k) == 1 + 2 * int(tab.theta[k] // 2.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        cn.theta_sequence(-1)
    with pytest.raises(ValueError):
        cn.constant_table(0)
    with pytest.raises(ValueError):
        cn.constant_table(2, alpha=-1.0)
    with pytest.raises(ValueError):
        cn.theta_bounds_check(0)
    with pytest.raises(ValueError):
        cn.m0_bounds_check(0)
    with pytest.raises(ValueError):
        cn.whole_plane_limits_suite(0)
    with pytest.raises(ValueError):
        cn.sup_norm_bounds_suite(0)
    with pytest.raises(ValueError):
        cn.morse_conjecture(0)
    with pytest.raises(ValueError):
        cn.morse_conjecture(2.5)
    with pytest.raises(ValueError):
        cn.bubble_morse(-1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [
    pytest.param(lambda a: cn.constant_table(3, a), id="constant_table"),
    pytest.param(lambda a: cn.whole_plane_limits(3, a), id="whole_plane_limits"),
    pytest.param(lambda a: cn.whole_plane_limits_suite(3, a), id="whole_plane_limits_suite"),
    pytest.param(lambda a: cn.energy_limit(3, a, "dirichlet"), id="energy_limit"),
    pytest.param(lambda a: cn.gamma_alpha_m(a, 3), id="gamma_alpha_m"),
    pytest.param(lambda a: bb.bubble_spec(1, a), id="bubble_spec"),
    pytest.param(lambda a: rd.henon_crosscheck(rd.solve_whole_plane(50.0, 0.0, 2), a),
                 id="henon_crosscheck"),
    pytest.param(lambda a: rd.solve_whole_plane(50.0, a, 2), id="solve_whole_plane"),
])
def test_alpha_must_be_finite_and_nonnegative(call, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        call(alpha)


def test_tables_are_frozen():
    tab = cn.constant_table(3)
    with pytest.raises(ValueError):
        tab.M[0] = 0.0
