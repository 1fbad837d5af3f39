"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal import cli
from nodal import constants as cn
from nodal import radial_ode as ro
from nodal.bubbles import bubble_spec, profile_samples
from nodal.cli import run
from nodal.verify import BubbleCheck, convergence_report


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_constants_csv_matches_reference(capsys):
    assert run(["constants", "--m", "25", "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    head = lines[0].split(",")
    assert head[:5] == ["i", "theta", "M0", "M0_over_sqrt", "theta_full"]
    assert len(lines) == 27  # header + rows i = 0..25
    row25 = dict(zip(head, lines[26].split(",")))
    # 6-digit display columns reproduce the reference values
    assert row25["theta"] == "202.493"
    assert row25["M0"] == "9.10436"
    assert row25["M0_over_sqrt"] == "1.82087"
    row1 = dict(zip(head, lines[2].split(",")))
    assert row1["theta"] == "10.374"
    assert row1["M0"] == "1.64872"


def _constants_rows(m, alpha):
    """The ``constants`` CSV rows rebuilt one i at a time from the scalar entry points."""
    theta = cn.theta_sequence(m).theta
    tab = cn.constant_table(m, alpha)
    ntab = cn.neumann_constants(m) if m >= 2 else None
    rows = []
    for i in range(m + 1):
        row = [i, f"{theta[i]:.6g}"]
        if i >= 1:
            m0 = cn.m0_product_formula(i - 1)
            row += [f"{m0:.6g}", f"{m0 / math.sqrt(i):.6g}"]
        else:
            row += [None, None]
        row.append(theta[i])
        row += [tab.R[i] if 1 <= i <= m - 1 else None, tab.S[i] if i <= m - 1 else None,
                tab.M[i] if i <= m - 1 else None, tab.D[i] if 1 <= i <= m else None]
        if ntab is not None:
            row += [ntab.Rbar[i] if 1 <= i <= m - 1 else None,
                    ntab.Dbar[i] if 1 <= i <= m - 1 else None,
                    ntab.Sbar[i] if i <= m - 1 else None, ntab.Mbar[i] if i <= m - 1 else None]
        else:
            row += [None] * 4
        if i >= 1:
            w = cn.whole_plane_limits(i, alpha)
            row += [w.rho_lim, w.drv_lim, w.delta_lim, w.val_lim]
        else:
            row += [None] * 4
        rows.append(row)
    return rows


@pytest.mark.parametrize("alpha", [0.0, 2.5])
@pytest.mark.parametrize("m", [1, 2, 25])
def test_constants_csv_matches_chain_oracle(capsys, m, alpha):
    assert run(["constants", "--m", str(m), "--alpha", str(alpha)]) == 0
    out, _ = _capture(capsys)
    header = out.split("\n", 1)[0].split(",")
    assert out == _csv_chain_oracle(header, _constants_rows(m, alpha))


def test_constants_deterministic(capsys):
    assert run(["constants", "--m", "6", "--alpha", "1"]) == 0
    first, _ = _capture(capsys)
    assert run(["constants", "--m", "6", "--alpha", "1"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    assert "\r" not in first


def test_constants_json(capsys):
    assert run(["constants", "--m", "3", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["m"] == 3
    assert doc["theta"][0] == 2.0
    assert abs(doc["dirichlet"]["M"][0] - 3.06521) < 5e-5 * 3.06521
    assert doc["neumann"]["Mbar"][2] == pytest.approx(1.0)
    assert len(doc["whole_plane"]) == 3
    assert doc["a_seq"][0] is None  # NaN padding serializes as null


def test_constants_m1_json_no_neumann(capsys):
    assert run(["constants", "--m", "1", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["neumann"] is None


def test_bounds_all_hold(capsys):
    assert run(["bounds", "--kmax", "8", "--mmax", "8"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "check,index,lower,value,upper,holds"
    assert len(lines) > 16
    assert all(line.endswith("true") for line in lines[1:])


def test_bounds_json(capsys):
    assert run(["bounds", "--kmax", "2", "--mmax", "3", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    checks = {d["check"] for d in doc}
    assert checks == {"theta_growth", "m0_growth", "dirichlet_sup", "s_last",
                      "neumann_sup"}
    assert all(d["holds"] for d in doc)


def _lambert_calls(monkeypatch, argv):
    calls = [0]
    lambert = cn.lambert_w0

    def counting(x):
        calls[0] += 1
        return lambert(x)

    monkeypatch.setattr(cn, "lambert_w0", counting)
    assert run(argv) == 0
    return calls[0]


def test_constants_lambert_calls_linear_in_m(capsys, monkeypatch):
    m = 200
    assert _lambert_calls(monkeypatch, ["constants", "--m", str(m)]) <= 8 * (m + 1)


def test_bounds_lambert_calls_linear(capsys, monkeypatch):
    kmax, mmax = 500, 200
    argv = ["bounds", "--kmax", str(kmax), "--mmax", str(mmax)]
    assert _lambert_calls(monkeypatch, argv) <= 2 * kmax + 2 * mmax


def test_constants_reads_theta_once(capsys, monkeypatch):
    # theta_1..theta_m and the a_seq oracle: every other table reads that one pass
    m = 200
    assert _lambert_calls(monkeypatch, ["constants", "--m", str(m)]) <= 2 * m + 1


@pytest.mark.parametrize("fmt, most", [("csv", 201), ("json", 400)])
def test_constants_computes_each_theta_once_and_a_seq_for_json_only(capsys, monkeypatch,
                                                                   fmt, most):
    # from cold prefixes: theta_1..theta_200, plus a_seq_1..a_seq_200 in JSON
    monkeypatch.setattr(cn, "_THETA", [2.0])
    monkeypatch.setattr(cn, "_A_SEQ", [math.nan])
    assert _lambert_calls(monkeypatch, ["constants", "--m", "200", "--format", fmt]) <= most


def test_warm_bounds_makes_no_lambert_calls(capsys, monkeypatch):
    # the first call stores theta_0..theta_4000 and a_seq_0..a_seq_4000; the
    # second reads both stored prefixes, so neither recursion runs again
    monkeypatch.setattr(cn, "_THETA", [2.0])
    monkeypatch.setattr(cn, "_A_SEQ", [math.nan])
    assert _lambert_calls(monkeypatch, ["bounds", "--kmax", "4000", "--mmax", "80"]) <= 8000
    assert _lambert_calls(monkeypatch, ["bounds", "--kmax", "3500", "--mmax", "90"]) == 0
    assert len(cn._A_SEQ) == 4001 and len(cn._THETA) == 4001


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_bounds_nonpositive_kmax_rejected(capsys, kmax):
    assert run(["bounds", "--kmax", kmax, "--mmax", "3"]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert f"nodal: error: theta_bounds_suite: k_max must be >= 1 (got {kmax})" in err


def _scalar_bounds_rows(kmax, mmax):
    """The ``bounds`` rows rebuilt from the per-k and per-m definitions, not the suites."""
    table = cn.theta_sequence(kmax)
    rows = []
    for k in range(1, kmax + 1):
        th, a = float(table.theta[k]), float(table.a_seq[k])
        w = cn.lambert_w0(1.0 / (4.0 * k))
        lower, upper, mid = 2.0 + 8.0 * k, 4.0 + 8.0 * k, 2.0 + 2.0 / w
        holds = (lower < th < mid < upper
                 and 1.0 / (4.0 * k + 1.0) < w < a < 1.0 / (4.0 * k))
        rows.append(cn.BoundsReport("theta_growth", k, lower, th, upper, holds))
    ms = range(1, mmax + 1)
    for m in ms:
        lower, upper = _gamma_ratio_bounds(m)
        value = cn.m0_product_formula(m)
        rows.append(cn.BoundsReport("m0_growth", m, lower, value, upper, lower < value < upper))
    for m in ms:
        table = cn.constant_table(m)
        lower, upper = _gamma_ratio_bounds(m - 1)
        m0 = table.M[0]
        rows.append(cn.BoundsReport("dirichlet_sup", m, lower, m0, upper, lower < m0 < upper))
        if m == 1:
            continue
        s_lo, s_up = math.exp(-1.0 / (4.0 * m - 2.0)), math.exp(-1.0 / (4.0 * m - 1.0))
        s = table.S[m - 1]
        rows.append(cn.BoundsReport("s_last", m, s_lo, s, s_up, s_lo < s < s_up))
        lo, value, up = lower * s_lo, s * m0, upper * s_up
        rows.append(cn.BoundsReport("neumann_sup", m, lo, value, up, lo < value < up))
    return rows


def _gamma_ratio_bounds(m):
    """The Gamma-ratio sandwich of the m-region sup-norm limit, written out."""
    lg = cn.ln_gamma
    lower = cn.GROWTH_C1 * math.exp(lg(m + 1.0) - lg(m + 0.5) + 1.0 / (3.0 + 4.0 * m))
    upper = cn.GROWTH_C2 * math.exp(lg(m + 1.25) - lg(m + 0.75) + 1.0 / (2.0 + 4.0 * m))
    return lower, upper


@pytest.mark.parametrize("kmax, mmax", [(1, 1), (2, 3), (777, 61), (20000, 61)])
def test_bounds_csv_matches_scalar_oracle(capsys, kmax, mmax):
    assert run(["bounds", "--kmax", str(kmax), "--mmax", str(mmax)]) == 0
    out, _ = _capture(capsys)
    header = ["check", "index", "lower", "value", "upper", "holds"]
    rows = [[r.check, r.index, r.lower, r.value, r.upper, "true" if r.holds else "false"]
            for r in _scalar_bounds_rows(kmax, mmax)]
    # exact, line by line: a failure names its first differing line at once,
    # where one == on the 1.9 MB text spends minutes in pytest's string diff
    got, want = out.split("\n"), _csv_chain_oracle(header, rows).split("\n")
    first = next((j for j, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def test_bounds_json_matches_scalar_oracle(capsys):
    assert run(["bounds", "--kmax", "2", "--mmax", "3", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    assert out == cli._to_json(_scalar_bounds_rows(2, 3))


def test_bounds_csv_builds_no_theta_reports(capsys, monkeypatch):
    # every suite reaches the CSV as columns; no row becomes an object
    built = [0]
    init = cn.BoundsReport.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cn.BoundsReport, "__init__", counting)
    mmax = 10
    assert run(["bounds", "--kmax", "5000", "--mmax", str(mmax)]) == 0
    assert built[0] == 0


def test_solve_validation_exit_codes(capsys, monkeypatch):
    assert run(["solve", "--p", "2", "--alpha", "0", "--m", "1", "--bc", "neumann"]) == 1
    _, err = _capture(capsys)
    assert err == "nodal: error: solve: m=1 invalid for bc=neumann\n"
    # the (bc, m) rule rejects before any solve: at p = 1.0001 a disc read
    # after the solve would be a numerical failure (exit 2)
    solves = []
    monkeypatch.setattr(ro, "_solve_impl", lambda *key: solves.append(key))
    assert run(["solve", "--p", "1.0001", "--m", "1", "--bc", "neumann"]) == 1
    assert solves == []
    assert run(["solve", "--p", "0.5", "--m", "1", "--bc", "dirichlet"]) == 1
    assert run(["solve", "--p", "10", "--m", "0", "--bc", "dirichlet"]) == 1
    assert run(["solve", "--p", "10", "--m", "1", "--bc", "dirichlet",
                "--alpha", "-1"]) == 1
    assert run(["--bogus"]) == 1
    assert run(["solve", "--p", "10", "--m", "1", "--bc", "torus"]) == 1


def test_solve_json_dump(capsys):
    assert run(["solve", "--p", "40", "--alpha", "0", "--m", "2",
                "--bc", "dirichlet"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["bc"] == "dirichlet" and doc["m"] == 2
    assert len(doc["log_zeros"]) == 2 and doc["log_zeros"][-1] == 0.0
    assert len(doc["crit_values"]) == 2
    assert doc["energy_grad"] == pytest.approx(doc["energy_pot"], rel=1e-8)


def test_solve_plane_dump(capsys):
    assert run(["solve", "--p", "40", "--m", "2", "--bc", "plane",
                "--samples", "32"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["bc"] == "plane"
    assert len(doc["samples"]["t"]) <= 32
    assert abs(doc["samples"]["u"][0] - 1.0) < 1e-6


def test_solve_csv_samples(capsys):
    assert run(["solve", "--p", "40", "--m", "1", "--bc", "dirichlet",
                "--samples", "50", "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "r,u"
    assert 2 <= len(lines) <= 52
    r_last, u_last = map(float, lines[-1].split(","))
    assert r_last == pytest.approx(1.0)
    assert abs(u_last) < 1e-8


@pytest.mark.parametrize("bc, m", [("plane", 2), ("dirichlet", 3), ("neumann", 3)])
def test_solve_csv_matches_chain_oracle(capsys, bc, m):
    assert run(["solve", "--p", "40", "--alpha", "1", "--m", str(m), "--bc", bc,
                "--samples", "60", "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    samples = cli._dump(ro.solve_whole_plane(40.0, 1.0, m), bc, m, samples=60)["samples"]
    header = list(samples)
    rows = [[samples[name][j] for name in header] for j in range(len(samples[header[0]]))]
    assert out == _csv_chain_oracle(header, rows)


@pytest.mark.parametrize("n", [1, 60, 100_000])
@pytest.mark.parametrize("bc", ["plane", "dirichlet", "neumann"])
def test_solve_csv_prints_min_of_samples_and_nodes(capsys, bc, n):
    # --samples N prints the stored nodes (those inside the disc, on the disc)
    # spaced evenly by index: min(N, nodes) rows; the Neumann disc ends at a
    # critical point, not at a zero
    m = 2
    assert run(["solve", "--p", "40", "--m", str(m), "--bc", bc, "--samples", str(n),
                "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    w = ro.solve_whole_plane(40.0, 0.0, m)
    if bc == "plane":
        nodes = len(w.t)
    else:
        disc = (ro.dirichlet_solution if bc == "dirichlet" else ro.neumann_solution)(w, m)
        nodes = int(np.count_nonzero(w.t <= disc.log_scale))
    assert 60 < nodes < 100_000
    assert out.count("\n") - 1 == min(n, nodes)


def test_solve_samples_beyond_nodes_prints_every_node(capsys):
    # N >= nodes selects every node; only min(N, nodes) indices are spaced, so
    # N = 10**12 allocates no more than N = nodes does
    argv = ["solve", "--p", "200", "--m", "3", "--bc", "dirichlet", "--format", "csv",
            "--samples"]
    w = ro.solve_whole_plane(200.0, 0.0, 3)
    nodes = int(np.count_nonzero(w.t <= ro.dirichlet_solution(w, 3).log_scale))
    assert run([*argv, str(nodes)]) == 0
    every_node = _capture(capsys)
    assert every_node[0].count("\n") == nodes + 1
    assert run([*argv, str(10**12)]) == 0
    assert _capture(capsys) == every_node


def test_solve_csv_without_samples_rejected(capsys):
    assert run(["solve", "--p", "40", "--m", "1", "--bc", "dirichlet",
                "--format", "csv"]) == 1


def test_solve_negative_samples_rejected(capsys):
    assert run(["solve", "--p", "40", "--m", "1", "--bc", "dirichlet",
                "--samples", "-5", "--format", "json"]) == 1
    out, err = _capture(capsys)
    assert out == "" and "nodal: error: solve: --samples must be >= 0" in err


def test_verify_csv(capsys):
    assert run(["verify", "--m", "1", "--alpha", "0", "--bc", "dirichlet",
                "--p", "40,80"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,bc,m,alpha,i,p,computed,limit,abs_err"
    data = [line.split(",") for line in lines[1:]]
    assert all(row[1] == "dirichlet" for row in data)
    center = [row for row in data if row[0] == "|u(s_i)|"]
    assert {row[5] for row in center} == {"40", "80"}
    assert float(center[0][6]) == pytest.approx(math.exp(0.5), rel=0.05)


def test_verify_csv_matches_chain_oracle(capsys):
    assert run(["verify", "--m", "2", "--alpha", "0.5", "--bc", "neumann", "--p", "40,80"]) == 0
    out, _ = _capture(capsys)
    header = ["quantity", "bc", "m", "alpha", "i", "p", "computed", "limit", "abs_err"]
    rows = [[rep.quantity, rep.bc, rep.m, rep.alpha, rep.i, row.p, row.computed, row.limit,
             row.abs_err]
            for rep in convergence_report(2, 0.5, "neumann", [40.0, 80.0]) for row in rep.rows]
    assert out == _csv_chain_oracle(header, rows)


def test_verify_json_extrapolation_block(capsys):
    assert run(["verify", "--m", "1", "--bc", "dirichlet", "--p", "40,80",
                "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert all({"quantity", "rows", "extrapolated", "rate", "monotone"} <= set(d)
               for d in doc)


def test_verify_validation(capsys):
    assert run(["verify", "--m", "1", "--bc", "neumann", "--p", "40,80"]) == 1
    assert run(["verify", "--m", "1", "--bc", "dirichlet", "--p", "80,40"]) == 1


def test_bubble_csv(capsys):
    assert run(["bubble", "--i", "1", "--alpha", "0", "--rmin", "1",
                "--rmax", "20", "--n", "40"]) == 0
    out, err = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "r,Z,expZ"
    assert len(lines) == 41
    assert "mass" in err  # integral checks reported on the diagnostic stream


@pytest.mark.parametrize("i, alpha", [(0, 0.0), (1, 0.0), (3, 1.5)])
def test_bubble_csv_matches_chain_oracle(capsys, i, alpha):
    assert run(["bubble", "--i", str(i), "--alpha", str(alpha), "--n", "50"]) == 0
    out, _ = _capture(capsys)
    spec = bubble_spec(i, alpha)
    grid = np.linspace(spec.concentration_radius / 100.0, 10.0 * spec.concentration_radius, 50)
    rows = [[r, z, ez] for r, z, ez in profile_samples(spec, grid)]
    assert out == _csv_chain_oracle(["r", "Z", "expZ"], rows)


def test_bubble_json_checks(capsys):
    assert run(["bubble", "--i", "1", "--alpha", "0", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["checks"]["mass"]["rel_err"] < 1e-8
    split = doc["checks"]["split"]
    assert split["inner"] == pytest.approx(split["inner_expected"], rel=1e-8)
    assert split["outer"] == pytest.approx(split["outer_expected"], rel=1e-8)
    assert len(doc["samples"]) == 200


# each result's JSON keys, in order: the schema every command has printed
_KEYS = {
    "ThetaTable": ["k_max", "theta", "a_seq"],
    "ConstantTable": ["m", "alpha", "R", "S", "M", "D"],
    "NeumannConstantTable": ["m", "Rbar", "Dbar", "Sbar", "Mbar"],
    "WholePlaneLimits": ["m", "alpha", "rho_lim", "drv_lim", "delta_lim", "val_lim"],
    "BoundsReport": ["check", "index", "lower", "value", "upper", "holds"],
    "BubbleSpec": ["i", "alpha", "theta_i", "beta_i", "sigma_i_alpha"],
    "ConvergenceRow": ["p", "computed", "limit", "abs_err"],
    "ConvergenceReport": ["quantity", "bc", "m", "alpha", "i", "rows", "extrapolated", "rate",
                          "monotone"],
    "BubbleCheck": ["i", "sup_err", "r_over_eps", "s_over_eps", "sigma", "eps_over_next"],
}


def _json_pairs(capsys, argv):
    """The command's JSON output with every object as a list of (key, value) pairs."""
    assert run([*argv, "--format", "json"]) == 0
    out, _ = _capture(capsys)
    return json.loads(out, object_pairs_hook=list)


def _keys(pairs):
    return [k for k, _ in pairs]


def test_json_schema_key_order(capsys):
    doc = dict(_json_pairs(capsys, ["constants", "--m", "3", "--alpha", "1"]))
    assert list(doc) == ["m", "alpha", "theta", "a_seq", "m0_across", "m0_over_sqrt",
                         "dirichlet", "neumann", "whole_plane"]
    assert _keys(doc["dirichlet"]) == _KEYS["ConstantTable"]
    assert _keys(doc["neumann"]) == _KEYS["NeumannConstantTable"]
    assert [_keys(w) for w in doc["whole_plane"]] == [_KEYS["WholePlaneLimits"]] * 3

    reports = _json_pairs(capsys, ["bounds", "--kmax", "2", "--mmax", "3"])
    assert len(reports) > 5
    assert all(_keys(r) == _KEYS["BoundsReport"] for r in reports)

    reports = _json_pairs(capsys, ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80"])
    assert reports and all(_keys(r) == _KEYS["ConvergenceReport"] for r in reports)
    rows = [row for r in reports for row in dict(r)["rows"]]
    assert len(rows) == 2 * len(reports)
    assert all(_keys(row) == _KEYS["ConvergenceRow"] for row in rows)

    doc = dict(_json_pairs(capsys, ["bubble", "--i", "1", "--n", "3"]))
    assert list(doc) == ["spec", "checks", "samples"]
    assert _keys(doc["spec"]) == _KEYS["BubbleSpec"]
    checks = dict(doc["checks"])
    assert list(checks) == ["mass", "split"]
    assert _keys(checks["mass"]) == ["computed", "expected", "rel_err"]
    assert _keys(checks["split"]) == ["inner", "inner_expected", "outer", "outer_expected"]

    # no command prints these two; the rule writes their fields in this order
    for cls in (cn.ThetaTable, BubbleCheck):
        assert [f.name for f in dataclasses.fields(cls)] == _KEYS[cls.__name__]


def test_bubble_validation(capsys):
    assert run(["bubble", "--i", "-1"]) == 1
    assert run(["bubble", "--i", "1", "--rmin", "5", "--rmax", "2"]) == 1
    assert run(["bubble", "--i", "1", "--rmax", "inf"]) == 1


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bubble_nonpositive_n_rejected(capsys, n):
    assert run(["bubble", "--i", "1", "--n", n]) == 1
    out, err = _capture(capsys)
    assert out == "" and f"nodal: error: bubble: --n must be >= 1 (got {n})" in err


@pytest.mark.parametrize("argv, code, head", [
    # the quadrature does not close
    pytest.param(["bubble", "--i", "100000", "--n", "3"], 2, "nodal: numerical failure: ",
                 id="argv0"),
    # (alpha+2)*theta_3 overflows, which bubble_spec rejects
    pytest.param(["bubble", "--i", "3", "--alpha", "1e307"], 1, "nodal: error: bubble_spec: ",
                 id="argv1"),
])
def test_bubble_underflow_exit_code(capsys, argv, code, head):
    assert run(argv) == code
    out, err = _capture(capsys)
    assert out == "" and err.startswith(head) and err.count("\n") == 1


def _largest_accepted_alpha(i):
    th = bubble_spec(i).theta_i
    alpha = sys.float_info.max / th
    while not math.isfinite((alpha + 2.0) * th):
        alpha = math.nextafter(alpha, 0.0)
    return alpha


@pytest.mark.parametrize("grid", [[], ["--rmin", "0", "--rmax", "1e300"],
                                  ["--rmin", "1e-300", "--rmax", "2e-300"]],
                         ids=["default", "huge", "tiny"])
@pytest.mark.parametrize("i", [0, 1, 2, 3, 10, 40])
def test_bubble_overflowing_profile_prints_minus_inf(capsys, i, grid):
    # where (alpha+2)*theta_i/2 * ln r overflows, Z is below -DBL_MAX: -inf, with no warning
    edge = _largest_accepted_alpha(i)
    for alpha in (edge, 0.999 * edge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bubble", "--i", str(i), "--alpha", repr(alpha), *grid]) == 0
        out, err = _capture(capsys)
        assert [line.split(":")[0] for line in err.splitlines()] == ["# mass"]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 200
        assert all(cell not in ("", "nan") for row in rows for cell in row), (alpha, grid)
        assert all(ez == "0" for _, z, ez in rows if z == "-inf")


def test_bubble_quadrature_failure_prints_one_line():
    # a fresh process runs the default warning filters, under which any
    # warning of the failed quadrature would add a line to stderr
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "nodal.cli", "bubble", "--i", "10000"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("nodal: numerical failure: bubble quadrature did not converge")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# demo sweep\n"
        "p = 30,60\n"
        "m = 1..2\n"
        "alpha = 0\n"
        "bc = dirichlet\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert "index.json" in files
    assert len(files) == 5  # 4 combos + index
    doc = json.loads((out_dir / "index.json").read_text())
    assert doc == sorted(doc)
    one = json.loads((out_dir / doc[0]).read_text())
    assert one["bc"] == "dirichlet"
    # determinism: a second run reproduces the files byte for byte
    blobs = {f: (out_dir / f).read_text() for f in doc}
    out_dir2 = tmp_path / "out2"
    assert run(["sweep", "--config", str(cfg), "--out", str(out_dir2)]) == 0
    for f, blob in blobs.items():
        assert (out_dir2 / f).read_text() == blob


def test_sweep_validation(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 30\nm = 1\nalpha = 0\nbc = neumann\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("p = 30\nm = 1\nbc = dirichlet\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    cfg3 = tmp_path / "bad3.cfg"
    cfg3.write_text("frobnicate\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg3), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    cfg4 = tmp_path / "bad4.cfg"
    cfg4.write_text("p = 30\nm = 2.5\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg4), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    # the (bc, m) rule rejects before any solve
    solves = []
    monkeypatch.setattr(ro, "_solve_impl", lambda *key: solves.append(key))
    cfg5 = tmp_path / "bad5.cfg"
    cfg5.write_text("p = 1.0001\nm = 1\nalpha = 0\nbc = neumann\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg5), "--out", str(tmp_path / "o")]) == 1
    assert solves == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_sweep_nonpositive_workers_rejected(tmp_path, capsys, workers):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 30\nm = 2\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    out_dir = tmp_path / "o"
    assert run(["sweep", "--config", str(cfg), "--out", str(out_dir), "--workers", workers]) == 1
    _, err = _capture(capsys)
    assert f"nodal: error: prefetch_solutions: workers must be >= 1 (got {workers})" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("grid, name", [
    ("p = 100.0000001, 100.0000002", "solve_dirichlet_m2_alpha0_p100.json"),
    ("p = 50,50", "solve_dirichlet_m2_alpha0_p50.json"),
])
def test_sweep_rejects_grid_points_sharing_a_file(tmp_path, capsys, monkeypatch, grid, name):
    # the file name prints p to 6 digits; a second point must not overwrite the first
    solves = []
    monkeypatch.setattr(ro, "_solve_impl", lambda *key: solves.append(key))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{grid}\nm = 2\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"nodal: error: sweep: 2 grid points would write {name}\n"
    assert solves == [] and not (tmp_path / "o").exists()


def test_module_entry_point_runs_cli(capsys):
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "nodal.cli", "constants", "--m", "3"],
                          capture_output=True, env=env, check=False)
    assert run(["constants", "--m", "3"]) == 0
    out, _ = _capture(capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


def _modules_loaded_by(argv, first_on_path=None):
    """Every module a fresh ``nodal`` process running ``argv`` imports, pool
    workers included: -X importtime lists each import on stderr, and forked
    workers inherit the flag and the stream.  ``first_on_path`` goes ahead
    of the sources on ``PYTHONPATH``."""
    path = [first_on_path, str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "nodal.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("argv", [["constants", "--m", "25"],
                                  ["bounds", "--kmax", "50", "--mmax", "10"],
                                  ["bubble", "--i", "3", "--alpha", "1"]], ids=lambda a: a[0])
def test_limit_commands_load_no_scipy(argv):
    # the p -> infinity commands never run the solver, so a fresh process of
    # each loads no scipy module, nor the solver's stepper
    loaded = _modules_loaded_by(argv)
    assert {"numpy", "nodal.radial_ode", "nodal.verify"} <= set(loaded)
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []
    assert "nodal._dop853" not in loaded


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "200", "--m", "2", "--bc", "dirichlet"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80"],  # two solves: pooled
    ["sweep", "--config", "{cfg}", "--out", "{out}"],
], ids=lambda a: a[0])
def test_solver_commands_load_no_scipy(argv, tmp_path):
    # the solver's stepper and root finder are in-repo, so the commands that
    # solve load no scipy module either, in the parent or in a pool worker;
    # they run with SciPy hidden behind a package whose import fails
    hidden = tmp_path / "hidden" / "scipy"
    hidden.mkdir(parents=True)
    (hidden / "__init__.py").write_text("raise ImportError('scipy is hidden')\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 30,60\nm = 2\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    loaded = _modules_loaded_by([a.format(cfg=cfg, out=tmp_path / "out") for a in argv],
                                str(hidden.parent))
    assert {"numpy", "nodal._dop853", "nodal.radial_ode"} <= set(loaded)
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


# one process runs these in turn; both bubble runs fill in their default rmin/rmax
_IN_PROCESS_ARGVS = [
    ["bubble", "--i", "1", "--n", "5"],
    ["--help"],
    ["bubble", "--i", "2", "--alpha", "1", "--n", "4", "--format", "json"],
    ["solve", "--p", "40", "--m", "2", "--bc", "disc"],
    ["verify", "--help"],
]


def test_repeated_runs_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of this process
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "nodal.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = list(pool.map(fresh, _IN_PROCESS_ARGVS))
    for argv, want in zip(_IN_PROCESS_ARGVS, expected):
        code = run(argv)
        assert (code, *_capture(capsys)) == want, argv
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0]


@pytest.mark.parametrize("p_arg", [["--p", ","], ["--p=,"]])
def test_verify_empty_p_list_rejected(p_arg):
    argv = ["verify", "--m", "2", "--bc", "dirichlet", *p_arg]
    assert _run_unsolved(argv) == (1, "", "nodal: error: argument --p: no exponent given\n")


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert run(["constants", "--m", "2", "--out", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("i,theta,")
    assert run(["constants", "--m", "2", "--out",
                str(tmp_path / "missing" / "t.csv")]) == 1


def test_missing_out_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    requested, real_key = [], ro._solve_key
    monkeypatch.setattr(ro, "_solve_key", lambda *key: requested.append(key) or real_key(*key))
    target = tmp_path / "missing" / "v.csv"
    assert run(["verify", "--m", "3", "--bc", "neumann", "--p", "40,80,160",
                "--out", str(target)]) == 1
    assert _capture(capsys) == ("", f"nodal: error: [Errno 2] No such file or directory: "
                                    f"'{target}'\n")
    assert requested == [] and not target.parent.exists()


def test_unwritable_output_is_validation_error(tmp_path, capsys):
    blocked = tmp_path / "dir"
    blocked.mkdir()
    assert run(["constants", "--m", "2", "--out", str(blocked)]) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["constants", "--m", "3", "--alpha", "0.5"],
    ["bounds", "--kmax", "6", "--mmax", "4"],
    ["solve", "--p", "40", "--m", "2", "--bc", "neumann", "--samples", "7"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80"],
    ["bubble", "--i", "1", "--n", "5"],
], ids=lambda a: a[0])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    argv = [*argv, "--format", fmt]
    assert run(argv) == 0
    out, err = _capture(capsys)
    target = tmp_path / "out.txt"
    assert run([*argv, "--out", str(target)]) == 0
    assert _capture(capsys) == ("", err)
    assert target.read_bytes() == out.encode("utf-8") and out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_constants_builds_one_dirichlet_table(capsys, monkeypatch, fmt):
    # the Neumann table is rescaled from the Dirichlet table the command holds
    calls = []
    build = cn.constant_table
    monkeypatch.setattr(cn, "constant_table", lambda *a: calls.append(a) or build(*a))
    assert run(["constants", "--m", "200", "--format", fmt]) == 0
    assert calls == [(200, 0.0)]


@pytest.mark.parametrize("flag, value", [("--p", "inf"), ("--p", "nan"), ("--alpha", "nan"),
                                         ("--alpha", "inf")])
def test_solve_non_finite_exit_code(capsys, flag, value):
    argv = ["solve", "--p", "50", "--alpha", "0", "--m", "2", "--bc", "plane"]
    argv[argv.index(flag) + 1] = value
    assert run(argv) == 1
    _, err = _capture(capsys)
    assert "nodal: error:" in err


@pytest.mark.parametrize("argv", [["bubble", "--i", "1", "--alpha", "inf"],
                                  ["constants", "--m", "3", "--alpha", "nan"]])
def test_non_finite_alpha_exit_code(capsys, argv):
    assert run(argv) == 1
    _, err = _capture(capsys)
    assert "alpha must be finite" in err


def test_step_limit_exit_code(capsys, monkeypatch):
    from nodal import radial_ode

    monkeypatch.setattr(radial_ode, "_MAX_STEPS", 50)
    assert run(["solve", "--p", "78.5", "--m", "2", "--bc", "plane"]) == 2
    _, err = _capture(capsys)
    assert "numerical failure" in err and "nsteps" in err


def test_disc_overflow_exit_code(capsys):
    # u(0) = exp(372.7) on the unit disc at p = 1.03: a numerical failure, not a traceback
    assert run(["solve", "--p", "1.03", "--alpha", "19.5", "--m", "8", "--bc", "dirichlet"]) == 2
    out, err = _capture(capsys)
    assert out == "" and "numerical failure" in err and "double range" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "2", "--m", "1", "--bc", "plane", "--alpha", "1e62"],
    ["verify", "--m", "1", "--bc", "plane", "--p", "2,3", "--alpha", "1e100"],  # on the pool
])
def test_huge_alpha_exit_code(capsys, argv):
    # the start series overflows; one line naming p and alpha, not a traceback
    assert run(argv) == 2
    out, err = _capture(capsys)
    alpha = float(argv[-1])
    assert out == ""
    assert err == ("nodal: numerical failure: start series leaves the double range "
                   f"(p=2.0, alpha={alpha})\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "1e200", "--m", "1", "--bc", "plane"],
    ["verify", "--m", "1", "--bc", "plane", "--p", "1e300,1e301"],  # on the pool
])
def test_huge_p_exit_code(capsys, argv):
    # u_t^2 of the start state overflows, so DOP853's first step is 0: one
    # line naming the first p, not a ZeroDivisionError traceback
    assert run(argv) == 2
    out, err = _capture(capsys)
    p = float(argv[argv.index("--p") + 1].split(",")[0])
    assert out == ""
    assert err == ("nodal: numerical failure: step controller failed: dop853: step size "
                   f"becomes too small (p={p}, alpha=0.0)\n")


def test_sweep_config_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 50\nm = 1\nalpha = 0\nbc = plane\np = 60\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    _, err = _capture(capsys)
    assert err == "nodal: error: sweep config line 5: repeated key 'p'\n"
    assert not (tmp_path / "o").exists()


def test_sweep_config_rejects_empty_range(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 50\n# m below is empty\nm = 3..1\nalpha = 0\nbc = plane\n",
                   encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    _, err = _capture(capsys)
    assert err == "nodal: error: sweep config line 3: empty range '3..1'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, message", [
    ("m = 1..2..3", "bad range '1..2..3'"),
    ("m = a..3", "bad range 'a..3'"),
    ("m = 1, 2..", "bad range '2..'"),
    ("p = abc", "bad value 'abc'"),
    ("p = 50, 1e", "bad value '1e'"),
    ("alpha = 0 0", "bad value '0 0'"),
    ("tol = x", "bad value 'x'"),
    ("p = ", "no values for 'p'"),
    ("m = ,", "no values for 'm'"),
    ("bc = ", "no values for 'bc'"),
    ("tol =", "no values for 'tol'"),
    ("q = 1", "unknown key 'q'"),
])
def test_sweep_config_bad_value_names_its_line(tmp_path, capsys, line, message):
    key = line.split("=")[0].strip()
    good = {"p": "p = 50", "m": "m = 1", "alpha": "alpha = 0", "bc": "bc = plane"}
    good.pop(key, None)
    lines = ["# sweep", *good.values()]
    lines.insert(2, line)  # line 3
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"nodal: error: sweep config line 3: {message}\n"
    assert not (tmp_path / "o").exists()


def _csv_chain_oracle(header, rows):
    """The CSV encoder with every cell through one isinstance chain: the byte oracle."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                x = float(cell)
                cells.append("" if math.isnan(x) else f"{x:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_encoder_matches_chain_oracle():
    # one type per column; the float column holds every value the chain treats apart
    rng = np.random.default_rng(11)
    columns = {
        "float": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                  1e22, 0.12345678901234567, 1 / 3, -1e-300, 2.0 ** 60],
        "random": [float(x) for x in
                   rng.normal(0.0, 1e3, 12) * 10.0 ** rng.integers(-300, 300, 12)],
        "int": [7, -3, 0, 12, 10**20, -10**20, 1, 2, 3, 4, 5, 6],
        "str": ["abc", "", "theta_growth", "m0_growth", "s_last", "dirichlet_sup",
                "neumann_sup", "true", "false", "x y", "7", "nan"],
    }
    header = list(columns)
    rows = [list(row) for row in zip(*columns.values())]
    assert cli._to_csv(header, columns.values()) == _csv_chain_oracle(header, rows)


#: columns that mix types, or hold a type other than str, int and float
_MIXED_COLUMNS = {
    "none_str": [None, "abc", ""],
    "none_float": [0.1, None, 0.3],
    "none": [None, None],
    "float_np": [0.1, 0.2, np.float64(0.3)],
    "np_float": [np.float64(0.1), np.float64(math.nan)],
    "np_float32": [np.float32(0.1)],
    "int_bool": [1, 2, True],
    "bool": [True, False],
    "np_bool": [np.bool_(True)],
    "int_np": [1, 2, np.int64(-4), 10**20],
    "int_float": [7, 0.5],
    "str_float": ["", 0.5],
}


def test_csv_column_fast_paths_match_chain_oracle():
    # each typed column takes its type's one pass; the NaN-free float column the `%` pass
    columns = {
        "float_nan": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.797e308],
        "float_pos_inf": [math.inf, -0.0, 5e-324, 1.797e308, 1.797e308, 0.1],
        "float_neg_inf": [-math.inf, 0.0, -5e-324, -1.797e308, 1 / 3, 2.0 ** 60],
        "float_inf_pair": [math.inf, -math.inf, 1.0, 2.0, 3.0, 4.0],
        "float_all_nan": [math.nan] * 6,
        "int": [1, 2, 3, -4, 5, 10**20],
        "str": ["a", "", "theta_growth", "true", "false", "x y"],
    }
    header = list(columns)
    rows = [list(row) for row in zip(*columns.values())]
    assert cli._to_csv(header, columns.values()) == _csv_chain_oracle(header, rows)
    assert cli._to_csv(header, [[] for _ in header]) == _csv_chain_oracle(header, [])
    for name, column in _MIXED_COLUMNS.items():
        with pytest.raises(TypeError, match=r"^cannot encode a CSV column of \["):
            cli._to_csv([name], [column])
    with pytest.raises(TypeError, match=r"^cannot encode a CSV column of \['NoneType', 'str'\]$"):
        cli._to_csv(["i"], [_MIXED_COLUMNS["none_str"]])


def _json_cell(cell):
    if cell is None:
        return "null"
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return str(cell)
    return f"{cell:.17g}" if math.isfinite(cell) else "null"


def test_json_float_list_fast_path_matches_chain_oracle():
    # a list of plain finite floats is joined in one pass; every other list takes the chain
    lists = [
        [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -2.0 ** 60],
        [1.7976931348623157e308, 1.7976931348623157e308],  # finite cells, overflowing sum
        [0.5, math.nan], [0.5, math.inf], [-math.inf, 0.5], [0.5, np.float64(0.25)],
        [0.5, 1], [0.5, True], [0.5, None], [],
    ]
    for values in lists:
        assert cli._to_json(values) == "[" + ", ".join(map(_json_cell, values)) + "]\n"
    rows = [[0.0, -math.inf, 0.0], [2.5, -7.8, 4e-4]]
    assert cli._to_json({"samples": rows}) == ('{\n  "samples": [[0, null, 0], '
                                               '[2.5, -7.7999999999999998, '
                                               '0.00040000000000000002]]\n}\n')


@pytest.mark.parametrize("obj", [{1.0}, {"spec": object()}, [0.5, 1j]])
def test_json_rejects_unsupported_types(obj):
    with pytest.raises(TypeError, match="^cannot encode <class '(set|object|complex)'>$"):
        cli._to_json(obj)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _bad_float(out_of_range):
    return st.one_of(_NON_FINITE, out_of_range)


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


_NEGATIVE = _finite(max_value=-5e-324)
_NONPOSITIVE = _finite(max_value=0.0)
_P_OUT = _finite(max_value=1.0)
_TOL_OUT = st.one_of(_NONPOSITIVE, _finite(min_value=1.0))
_ALPHA = _bad_float(_NEGATIVE)
_TOL = _bad_float(_TOL_OUT)

# command -> (valid argv, {numeric option: strategy for an invalid value})
_CLI_CASES = {
    "constants": (["--m", "3", "--alpha", "0"],
                  {"--m": st.integers(max_value=0), "--alpha": _ALPHA}),
    "bounds": (["--kmax", "3", "--mmax", "3"],
               {"--kmax": st.integers(max_value=0), "--mmax": st.integers(max_value=0)}),
    "solve": (["--p", "40", "--alpha", "0", "--m", "2", "--bc", "dirichlet", "--samples", "10",
               "--tol", "1e-10"],
              {"--p": _bad_float(_P_OUT), "--alpha": _ALPHA, "--m": st.integers(max_value=0),
               "--samples": st.integers(max_value=-1), "--tol": _TOL}),
    "verify": (["--m", "2", "--alpha", "0", "--bc", "dirichlet", "--p", "40,80", "--tol", "1e-10"],
               {"--m": st.integers(max_value=0), "--alpha": _ALPHA,
                "--p": _bad_float(_P_OUT).map(lambda p: f"40,{p!r}"), "--tol": _TOL}),
    "bubble": (["--i", "1", "--alpha", "0", "--rmin", "0.1", "--rmax", "10", "--n", "20"],
               {"--i": st.integers(max_value=-1), "--alpha": _ALPHA,
                "--rmin": _bad_float(_NEGATIVE), "--rmax": _bad_float(_NONPOSITIVE),
                "--n": st.integers(max_value=0)}),
    # SWEEP_CFG stands for a valid config file; --out cannot be rejected without solving
    "sweep": (["--config", "SWEEP_CFG", "--out", "SWEEP_OUT", "--workers", "1"],
              {"--config": st.just("missing.cfg"), "--workers": st.integers(max_value=0)}),
}

# every option of every command
_OPTIONS = {
    "constants": ["--m", "--alpha", "--format", "--out"],
    "bounds": ["--kmax", "--mmax", "--format", "--out"],
    "solve": ["--p", "--alpha", "--m", "--bc", "--samples", "--tol", "--format", "--out"],
    "verify": ["--m", "--alpha", "--bc", "--p", "--tol", "--format", "--out"],
    "bubble": ["--i", "--alpha", "--rmin", "--rmax", "--n", "--format", "--out"],
    "sweep": ["--config", "--out", "--workers"],
}


@pytest.fixture(scope="module")
def sweep_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "sweep.cfg"
    cfg.write_text("p = 30\nm = 2\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    return {"SWEEP_CFG": str(cfg), "SWEEP_OUT": str(root / "out")}


def _run_unsolved(argv):
    """``run(argv)`` with every solve an error: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(ro, "_solve_impl", _no_solve),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# the solves made in this process; a pool worker appends to its own copy
_IN_PROCESS_SOLVES: list[tuple] = []
_REAL_SOLVE = ro._solve_impl


def _counted_solve(*key):
    _IN_PROCESS_SOLVES.append(key)
    return _REAL_SOLVE(*key)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_solves_each_key_once(tmp_path, workers):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 20..89\nm = 1\nalpha = 0\nbc = dirichlet\n", encoding="utf-8")
    keys = [(float(p), 0.0, 1, ro.default_tolerance()) for p in range(20, 90)]
    assert len(keys) > ro._CACHE_MAX
    _IN_PROCESS_SOLVES.clear()
    ro._close_pool()  # a pool forked under the patch below would keep it
    try:
        with (mock.patch.object(ro, "_solve_impl", _counted_solve),
              mock.patch.dict(ro._CACHE, clear=True)):
            code = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                        "--workers", workers])
    finally:
        ro._close_pool()
    assert code == 0
    assert len(json.loads((tmp_path / "out" / "index.json").read_text())) == len(keys)
    assert sorted(_IN_PROCESS_SOLVES) == (keys if workers == "1" else [])


# text no numeric option parses
_NON_NUMERIC = st.sampled_from(["", "abc", "1e", "0x10", "1.5.2"])


def _no_solve(*args):
    raise AssertionError("a solve started")


@pytest.mark.parametrize("command, option",
                         [(command, option) for command, (_, bad) in _CLI_CASES.items()
                          for option in bad])
@settings(max_examples=10)
@given(data=st.data())
def test_invalid_numeric_option_exits_1(sweep_paths, command, option, data):
    base, bad = _CLI_CASES[command]
    value = data.draw(st.one_of(bad[option], _NON_NUMERIC, st.just("--")))
    text = value if isinstance(value, str) else repr(value)
    argv = [command, *(sweep_paths.get(a, a) for a in base)]
    at = argv.index(option)
    # written apart, a negative exponent form such as -1e-05 reads as an option,
    # and "--" ends the options
    if text == "--" or data.draw(st.booleans()):
        argv[at:at + 2] = [f"{option}={text}"]
    else:
        argv[at + 1] = text
    code, out, err = _run_unsolved(argv)
    assert code == 1, argv
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nodal: error:"), (argv, lines)


@pytest.mark.parametrize("command, option",
                         [(command, option) for command, options in _OPTIONS.items()
                          for option in options])
def test_double_dash_value_exits_1(sweep_paths, command, option):
    base, _ = _CLI_CASES[command]
    # appended to a valid argv, "--opt=--" is its only fault
    argv = [command, *(sweep_paths.get(a, a) for a in base), f"{option}=--"]
    message = f"nodal: error: argument {option}: expected one argument\n"
    assert _run_unsolved(argv) == (1, "", message)
