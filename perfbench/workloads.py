"""Seeded operation lists, operation execution and output checks.

An op is what one client issues before waiting for the answer: one or
more ``nodal`` CLI invocations run in-process through ``nodal.cli.run``,
plus, for ``dense_gauges``, the library's accuracy gauges on the same
solution.  Every library call goes through a module attribute
(``ro.solve_whole_plane``, never a local alias), so the tracer's
wrappers see it.

Inputs depend only on the workload name and the seed.  The process-wide
solve memo is keyed on ``(p, alpha, m_max, tol)``; the generator redraws
any op that would reuse a key, so no op in a run is served from the memo
by an earlier op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

#: the solver's default tolerance; the benchmark unsets NODAL_TOL, so every
#: CLI and library call resolves to this value
TOL = 1e-10

WORKLOADS = ("verify_sweep", "limit_tables", "dense_gauges")

#: one line per workload: why it is in the benchmark
WHY = {
    "verify_sweep": "event-only DOP853 solves behind a freshly forked pool; "
                    "no dense output, little constants work",
    "limit_tables": "the p -> infinity half: theta recursion, constant tables, "
                    "bounds and bubble quadrature; no solver",
    "dense_gauges": "one in-process solve whose dense output feeds the "
                    "accuracy gauges (flux, Green, bubble)",
}

_VERIFY_P_CENTRES = (50.0, 100.0, 200.0, 400.0)
_DENSE_M = 4
_DENSE_SAMPLES = 400


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI argument lists plus check inputs."""

    index: int
    argvs: tuple[tuple[str, ...], ...]
    keys: tuple[tuple[float, float, int, float], ...]
    params: dict = field(compare=False, hash=False)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> str:
    """A log-uniform draw in [lo, hi], as the 6-digit text the CLI receives."""
    return f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}"


def _verify_op(rng: random.Random, index: int) -> Op:
    alpha = rng.choice(("0", "1"))
    bc = rng.choice(("dirichlet", "neumann", "plane"))
    ps = [_log_uniform(rng, 0.9 * c, 1.1 * c) for c in _VERIFY_P_CENTRES]
    m_max = 4 if bc == "plane" else 3
    argv = ("verify", "--m", "3", "--alpha", alpha, "--bc", bc,
            "--p", ",".join(ps), "--format", "csv")
    keys = tuple((float(p), float(alpha), m_max, TOL) for p in ps)
    return Op(index, (argv,), keys, {"bc": bc, "alpha": float(alpha), "ps": ps})


def _limit_op(rng: random.Random, index: int) -> Op:
    m = rng.randint(60, 100)
    kmax = rng.randint(3000, 5000)
    mmax = rng.randint(60, 100)
    i = rng.randint(0, 20)
    alpha = rng.choice(("0", "1", "2"))
    argvs = (
        ("constants", "--m", str(m)),
        ("bounds", "--kmax", str(kmax), "--mmax", str(mmax)),
        ("bubble", "--i", str(i), "--alpha", alpha, "--format", "json"),
    )
    return Op(index, argvs, (), {"m": m})


def _dense_op(rng: random.Random, index: int) -> Op:
    p = _log_uniform(rng, 50.0, 2000.0)
    alpha = rng.choice(("0", "1"))
    argv = ("solve", "--p", p, "--alpha", alpha, "--m", str(_DENSE_M),
            "--bc", "dirichlet", "--samples", str(_DENSE_SAMPLES), "--format", "csv")
    keys = ((float(p), float(alpha), _DENSE_M, TOL),)
    return Op(index, (argv,), keys, {"p": float(p), "alpha": float(alpha)})


_MAKERS = {"verify_sweep": _verify_op, "limit_tables": _limit_op, "dense_gauges": _dense_op}


def iter_ops(workload: str, seed: int) -> Iterator[Op]:
    """The workload's endless seeded op stream; no solve key repeats in it."""
    maker = _MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used: set = set()
    for index in itertools.count():
        op = maker(rng, index)
        while not used.isdisjoint(op.keys) or len(set(op.keys)) < len(op.keys):
            op = maker(rng, index)
        used.update(op.keys)
        yield op


def make_ops(workload: str, seed: int, n: int) -> list[Op]:
    """The first ``n`` ops of :func:`iter_ops`."""
    return list(itertools.islice(iter_ops(workload, seed), n))


# ----------------------------------------------------------------- execution

@dataclass
class Result:
    """What an op produced; checked after the op's timed interval."""

    codes: list[int]
    stdouts: list[str]
    extra: dict

    @property
    def output_bytes(self) -> int:
        return sum(len(s.encode()) for s in self.stdouts)

    def digest(self) -> list[str]:
        return [hashlib.sha256(s.encode()).hexdigest() for s in self.stdouts]


def run_cli(nodal, argv) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nodal.cli.run(list(argv))
    return code, buf.getvalue()


def _flux_shells(d) -> list[tuple[float, float]]:
    """The two shells acceptance criterion 7 uses for an m >= 2 solution."""
    return [
        (math.exp(d.log_crit[-1]), 1.0),
        (math.exp(0.75 * d.log_zeros[0]), math.exp(0.25 * d.log_zeros[0])),
    ]


def execute(nodal, workload: str, op: Op) -> Result:
    """Run one op to completion (this is the timed part)."""
    codes, outs = [], []
    for argv in op.argvs:
        code, out = run_cli(nodal, argv)
        codes.append(code)
        outs.append(out)
    extra: dict = {}
    if workload == "dense_gauges" and codes[0] == 0:
        ro, vf = nodal.radial_ode, nodal.verify
        p, alpha = op.params["p"], op.params["alpha"]
        w = ro.solve_whole_plane(p, alpha, _DENSE_M)
        d = ro.dirichlet_solution(w, _DENSE_M)
        extra = {
            "solution": d,
            "pohozaev": ro.pohozaev_residual(d),
            "flux": [ro.flux_identity_residual(d, s, t) for s, t in _flux_shells(d)],
            "energy": abs(d.energy_grad - d.energy_pot) / d.energy_pot,
            "green": vf.green_profile_check(d),
            "bubble": vf.bubble_convergence_check(d, 1).sup_err,
        }
    return Result(codes, outs, extra)


# ----------------------------------------------------------------- checks

def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if not text.endswith("\n") or not lines[0]:
        raise ValueError("CSV output must be non-empty and end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    return lines[0].split(","), rows


def _expected_limits(nodal, bc: str, alpha: float) -> dict:
    """(quantity, i) -> limit for m = 3, straight from the library's tables."""
    cn = nodal.constants
    m, q = 3, alpha + 2.0
    if bc == "plane":
        lims = cn.whole_plane_limits(m, alpha)
        return {
            ("rho_m", ""): lims.rho_lim,
            ("p|w'(rho_m)|rho_m", ""): lims.drv_lim,
            ("delta_m", ""): lims.delta_lim,
            ("|w(delta_m)|", ""): lims.val_lim,
        }
    if bc == "dirichlet":
        tab = cn.constant_table(m, alpha)
        big_m, s, r, dd = tab.M, tab.S, tab.R, tab.D
        s_range, d_range = range(1, m), range(1, m + 1)
    else:
        tab = cn.neumann_constants(m)
        big_m, s, r, dd = tab.Mbar, tab.Sbar, tab.Rbar, tab.Dbar
        s_range, d_range = range(1, m - 1), range(1, m)
    out = {("|u(s_i)|", str(i)): big_m[i] for i in range(m)}
    out.update({("s_i^(2/(p-1))", str(i)): s[i] ** (2.0 / q) for i in s_range})
    out.update({("r_i^(2/(p-1))", str(i)): r[i] ** (2.0 / q) for i in range(1, m)})
    out.update({("p|u'(r_i)|r_i", str(i)): q / 2.0 * dd[i] for i in d_range})
    out[("energy", "")] = cn.energy_limit(m, alpha, bc)
    return out


class Checker:
    """Output checks per workload; library reference values are cached here
    so that checking adds no library calls per op."""

    def __init__(self, nodal, workload: str):
        self.nodal = nodal
        self.workload = workload
        self._limits: dict = {}

    def check(self, op: Op, res: Result) -> str | None:
        """None when every output is right, else a one-line reason."""
        if any(code != 0 for code in res.codes):
            return f"exit codes {res.codes}"
        try:
            return getattr(self, "_check_" + self.workload)(op, res)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {exc!r}"

    def _check_verify_sweep(self, op: Op, res: Result) -> str | None:
        bc, alpha = op.params["bc"], op.params["alpha"]
        key = (bc, alpha)
        if key not in self._limits:
            self._limits[key] = _expected_limits(self.nodal, bc, alpha)
        limits = self._limits[key]
        header, rows = _csv(res.stdouts[0])
        if header != ["quantity", "bc", "m", "alpha", "i", "p", "computed", "limit", "abs_err"]:
            return f"unexpected header {header}"
        if len(rows) != len(limits) * len(op.params["ps"]):
            return f"{len(rows)} rows for {len(limits)} quantities x {len(op.params['ps'])} p"
        seen = set()
        for quantity, row_bc, _m, _a, i, p, computed, limit, _err in rows:
            qkey = (quantity, i)
            if qkey not in limits or row_bc != bc:
                return f"unexpected row {quantity!r} i={i!r} bc={row_bc!r}"
            seen.add((qkey, float(p)))
            if float(limit) != limits[qkey]:
                return f"{quantity} i={i}: limit {limit} != library {limits[qkey]!r}"
            if not math.isfinite(float(computed)):
                return f"{quantity} i={i} p={p}: computed {computed!r} not finite"
        expected = {(k, float(p)) for k in limits for p in op.params["ps"]}
        if seen != expected:
            return "rows do not cover every quantity x p exactly once"
        return None

    def _check_limit_tables(self, op: Op, res: Result) -> str | None:
        header, rows = _csv(res.stdouts[0])
        if len(rows) != op.params["m"] + 1:
            return f"constants: {len(rows)} rows for m={op.params['m']}"
        m0 = rows[1][header.index("M0")]
        if m0 != f"{math.sqrt(math.e):.6g}":
            return f"constants: M0 at i=1 is {m0}, not sqrt(e)"
        header, rows = _csv(res.stdouts[1])
        holds = header.index("holds")
        if not rows or any(row[holds] != "true" for row in rows):
            return "bounds: a sandwich does not hold"
        rel_err = json.loads(res.stdouts[2])["checks"]["mass"]["rel_err"]
        if not rel_err <= 1e-10:
            return f"bubble: mass rel_err {rel_err!r} > 1e-10"
        return None

    def _check_dense_gauges(self, op: Op, res: Result) -> str | None:
        ex = res.extra
        if not ex["pohozaev"] <= 1e-7:
            return f"pohozaev residual {ex['pohozaev']!r} > 1e-7"
        if not all(f <= 1e-8 for f in ex["flux"]):
            return f"flux residuals {ex['flux']!r} > 1e-8"
        if not ex["energy"] <= 1e-8:
            return f"energy mismatch {ex['energy']!r} > 1e-8"
        if not (math.isfinite(ex["green"]) and math.isfinite(ex["bubble"])):
            return "green or bubble check not finite"
        d = ex["solution"]
        # the CLI samples the stored trajectory up to the boundary, so it
        # prints min(--samples, trajectory points) rows
        n_points = int((d.plane.t <= d.log_scale).sum())
        header, rows = _csv(res.stdouts[0])
        if header != ["r", "u"] or len(rows) != min(_DENSE_SAMPLES, n_points):
            return f"{len(rows)} sample rows, expected min({_DENSE_SAMPLES}, {n_points})"
        return None
