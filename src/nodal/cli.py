"""Command-line front end: constants, bounds, solving, verification, bubbles.

Output is byte-deterministic for identical inputs: JSON floats carry 17
significant digits, CSV uses comma separators, LF line endings, a header
row, 17-significant-digit value columns, and (in the constants table)
6-digit display columns mirroring the usual printed precision.

Exit codes: 0 success, 1 validation error, 2 numerical failure.  The
environment variable NODAL_TOL overrides the default solver tolerance.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import constants as cn
from .bubbles import QuadratureError, bubble_mass, bubble_spec, bubble_split_integrals, profile_samples
from .radial_ode import (
    SolverError,
    dirichlet_solution,
    neumann_solution,
    prefetch_solutions,
    solve_whole_plane,
)
from .verify import convergence_report

__all__ = ["run", "main"]


# ----------------------------------------------------------------- encoding

def _fmt(x: float, digits: int = 17) -> str:
    return f"{x:.{digits}g}"


def _json_encode(obj, buf: io.StringIO, indent: int = 0) -> None:
    pad = " " * indent
    if obj is None:
        buf.write("null")
    elif isinstance(obj, (bool, np.bool_)):
        buf.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        buf.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        buf.write("null" if not math.isfinite(x) else _fmt(x))
    elif isinstance(obj, str):
        buf.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            buf.write("{}")
            return
        buf.write("{\n")
        items = list(obj.items())
        for n, (k, v) in enumerate(items):
            buf.write(pad + "  " + '"' + str(k) + '": ')
            _json_encode(v, buf, indent + 2)
            buf.write(",\n" if n + 1 < len(items) else "\n")
        buf.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            buf.write("[]")
            return
        buf.write("[")
        for n, v in enumerate(seq):
            _json_encode(v, buf, indent)
            if n + 1 < len(seq):
                buf.write(", ")
        buf.write("]")
    else:
        raise TypeError(f"cannot encode {type(obj)!r}")


def _to_json(obj) -> str:
    buf = io.StringIO()
    _json_encode(obj, buf)
    buf.write("\n")
    return buf.getvalue()


def _to_csv(header: list[str], rows: list[list]) -> str:
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
                cells.append("" if math.isnan(x) else _fmt(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


# ----------------------------------------------------------------- commands

def _cmd_constants(args) -> int:
    m, alpha = args.m, args.alpha
    table = cn.constant_table(m, alpha)
    ntab = cn.neumann_constants(m) if m >= 2 else None
    th = cn.theta_sequence(m)
    m0s = cn.m0_sequence(m)
    plane = [cn.whole_plane_limits(i, alpha) for i in range(1, m + 1)]

    if args.format == "json":
        payload = {
            "m": m,
            "alpha": alpha,
            "theta": th.theta,
            "a_seq": th.a_seq,
            "m0_across": m0s,
            "m0_over_sqrt": [m0s[i - 1] / math.sqrt(i) for i in range(1, m + 1)],
            "dirichlet": table.to_dict(),
            "neumann": ntab.to_dict() if ntab else None,
            "whole_plane": [w.to_dict() for w in plane],
        }
        _emit(_to_json(payload), args.out)
        return 0

    header = [
        "i", "theta", "M0", "M0_over_sqrt", "theta_full",
        "R", "S", "M", "D",
        "R_neumann", "D_neumann", "S_neumann", "M_neumann",
        "plane_rho", "plane_drv", "plane_delta", "plane_val",
    ]
    rows = []
    for i in range(0, m + 1):
        row: list = [i]
        row.append(_fmt(th.theta[i], 6))
        row.append(_fmt(m0s[i - 1], 6) if i >= 1 else None)
        row.append(_fmt(m0s[i - 1] / math.sqrt(i), 6) if i >= 1 else None)
        row.append(th.theta[i])
        row.append(table.R[i] if 1 <= i <= m - 1 else None)
        row.append(table.S[i] if i <= m - 1 else None)
        row.append(table.M[i] if i <= m - 1 else None)
        row.append(table.D[i] if 1 <= i <= m else None)
        if ntab is not None:
            row.append(ntab.Rbar[i] if 1 <= i <= m - 1 else None)
            row.append(ntab.Dbar[i] if 1 <= i <= m - 1 else None)
            row.append(ntab.Sbar[i] if i <= m - 1 else None)
            row.append(ntab.Mbar[i] if i <= m - 1 else None)
        else:
            row.extend([None, None, None, None])
        if i >= 1:
            w = plane[i - 1]
            row.extend([w.rho_lim, w.drv_lim, w.delta_lim, w.val_lim])
        else:
            row.extend([None, None, None, None])
        rows.append(row)
    _emit(_to_csv(header, rows), args.out)
    return 0


def _cmd_bounds(args) -> int:
    reports = cn.theta_bounds_suite(args.kmax)
    reports += cn.m0_bounds_suite(args.mmax)
    for m in range(1, args.mmax + 1):
        reports += cn.sup_norm_bounds(m)
    if args.format == "json":
        _emit(_to_json([r.to_dict() for r in reports]), args.out)
        return 0
    header = ["check", "index", "lower", "value", "upper", "holds"]
    rows = [
        [r.check, r.index, r.lower, r.value, r.upper, "true" if r.holds else "false"]
        for r in reports
    ]
    _emit(_to_csv(header, rows), args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.bc == "neumann" and args.m < 2:
        raise ValueError("solve: Neumann solutions are nodal, m must be >= 2")
    w = solve_whole_plane(args.p, args.alpha, args.m, args.tol)
    if args.bc == "plane":
        sol_dict = w.to_dict(samples=args.samples)
        samples = sol_dict.get("samples")
        csv_rows = (
            [[t, u, ut] for t, u, ut in
             zip(samples["t"], samples["u"], samples["ut"])] if samples else [])
        csv_header = ["t", "u", "ut"]
    else:
        sol = (dirichlet_solution(w, args.m) if args.bc == "dirichlet"
               else neumann_solution(w, args.m))
        sol_dict = sol.to_dict(samples=args.samples)
        samples = sol_dict.get("samples")
        csv_rows = (
            [[r, u] for r, u in zip(samples["r"], samples["u"])] if samples else [])
        csv_header = ["r", "u"]
    if args.format == "json":
        _emit(_to_json(sol_dict), args.out)
        return 0
    if not csv_rows:
        raise ValueError("solve: csv output requires --samples N")
    _emit(_to_csv(csv_header, csv_rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = convergence_report(args.m, args.alpha, args.bc, args.p, args.tol)
    if args.format == "json":
        _emit(_to_json([r.to_dict() for r in reports]), args.out)
        return 0
    header = ["quantity", "bc", "m", "alpha", "i", "p", "computed", "limit", "abs_err"]
    rows = []
    for rep in reports:
        for row in rep.rows:
            rows.append([
                rep.quantity, rep.bc, rep.m, rep.alpha,
                rep.i if rep.i is not None else None,
                row.p, row.computed, row.limit, row.abs_err,
            ])
    _emit(_to_csv(header, rows), args.out)
    return 0


def _cmd_bubble(args) -> int:
    spec = bubble_spec(args.i, args.alpha)
    if args.rmin is None:
        args.rmin = spec.concentration_radius / 100.0
    if args.rmax is None:
        args.rmax = 10.0 * spec.concentration_radius
    if not 0.0 <= args.rmin < args.rmax:
        raise ValueError("bubble: need 0 <= rmin < rmax")
    grid = np.linspace(args.rmin, args.rmax, args.n)
    samples = profile_samples(spec, grid)

    mass = bubble_mass(spec)
    mass_expected = 8.0 * math.pi * spec.theta_i / (args.alpha + 2.0)
    checks = {
        "mass": {
            "computed": mass,
            "expected": mass_expected,
            "rel_err": abs(mass - mass_expected) / mass_expected,
        }
    }
    if args.alpha == 0.0 and spec.i >= 1:
        split = bubble_split_integrals(spec)
        checks["split"] = {
            "inner": split.inner,
            "inner_expected": spec.theta_i - 2.0,
            "outer": split.outer,
            "outer_expected": spec.theta_i + 2.0,
        }
    if args.format == "json":
        payload = {
            "spec": spec.to_dict(),
            "checks": checks,
            "samples": [list(row) for row in samples],
        }
        _emit(_to_json(payload), args.out)
        return 0
    for name, ck in checks.items():
        print(f"# {name}: " + " ".join(f"{k}={_fmt(float(v))}" for k, v in ck.items()),
              file=sys.stderr)
    _emit(_to_csv(["r", "Z", "expZ"], [list(row) for row in samples]), args.out)
    return 0


def _parse_sweep_config(path: str) -> dict:
    """Flat key-list file: ``p = 50,100``, ``m = 1..3``, ``alpha = 0``,
    ``bc = dirichlet`` (one key per line, ``#`` comments allowed)."""
    cfg: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"sweep config line {lineno}: expected 'key = values'")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in ("p", "m", "alpha", "bc", "tol"):
            raise ValueError(f"sweep config line {lineno}: unknown key {key!r}")
        if key == "bc":
            cfg["bc"] = [v.strip() for v in val.split(",") if v.strip()]
            continue
        if key == "tol":
            cfg["tol"] = float(val)
            continue
        items: list[float] = []
        for piece in val.split(","):
            piece = piece.strip()
            if ".." in piece:
                lo, hi = piece.split("..")
                items.extend(float(x) for x in range(int(lo), int(hi) + 1))
            elif piece:
                items.append(float(piece))
        cfg[key] = items
    for required in ("p", "m", "alpha", "bc"):
        if required not in cfg or not cfg[required]:
            raise ValueError(f"sweep config: missing key {required!r}")
    return cfg


def _cmd_sweep(args) -> int:
    cfg = _parse_sweep_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tol = cfg.get("tol")
    for bc in cfg["bc"]:
        if bc not in ("dirichlet", "neumann", "plane"):
            raise ValueError(f"sweep: unknown bc {bc!r}")
    combos = sorted(
        (bc, int(m), float(alpha), float(p))
        for bc in cfg["bc"] for m in cfg["m"] for alpha in cfg["alpha"]
        for p in cfg["p"]
    )
    for bc, m, alpha, p in combos:
        if bc == "neumann" and m < 2:
            raise ValueError(f"sweep: m={m} invalid for bc={bc}")
    prefetch_solutions(
        sorted({(p, alpha, m) for bc, m, alpha, p in combos}),
        tol, workers=args.workers,
    )
    index = []
    for bc, m, alpha, p in combos:
        w = solve_whole_plane(p, alpha, m, tol)
        if bc == "plane":
            payload = w.to_dict()
        elif bc == "dirichlet":
            payload = dirichlet_solution(w, m).to_dict()
        else:
            payload = neumann_solution(w, m).to_dict()
        name = f"solve_{bc}_m{m}_alpha{_fmt(alpha, 6)}_p{_fmt(p, 6)}.json"
        (out_dir / name).write_text(_to_json(payload), encoding="utf-8", newline="")
        index.append(name)
    (out_dir / "index.json").write_text(_to_json(index), encoding="utf-8", newline="")
    return 0


# ----------------------------------------------------------------- parser

def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodal",
        description=(
            "Sharp asymptotic constants and radial solutions of planar "
            "Lane-Emden / Henon problems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="limit constant tables")
    c.add_argument("--m", type=int, required=True, help="nodal regions (>= 1)")
    c.add_argument("--alpha", type=float, default=0.0)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_constants)

    b = sub.add_parser("bounds", help="growth/sandwich bound reports")
    b.add_argument("--kmax", type=int, required=True)
    b.add_argument("--mmax", type=int, required=True)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("solve", help="solve the radial problem at finite p")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--bc", choices=("dirichlet", "neumann", "plane"), required=True)
    s.add_argument("--samples", type=int, default=0)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="finite-p vs asymptotic convergence report")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--alpha", type=float, default=0.0)
    v.add_argument("--bc", choices=("dirichlet", "neumann", "plane"), required=True)
    v.add_argument("--p", type=_float_list, required=True,
                   help="comma-separated increasing exponents, e.g. 50,100,200")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    bb = sub.add_parser("bubble", help="limit bubble profile and integrals")
    bb.add_argument("--i", type=int, required=True)
    bb.add_argument("--alpha", type=float, default=0.0)
    bb.add_argument("--rmin", type=float, default=None)
    bb.add_argument("--rmax", type=float, default=None)
    bb.add_argument("--n", type=int, default=200)
    bb.add_argument("--format", choices=("csv", "json"), default="csv")
    bb.add_argument("--out", default=None)
    bb.set_defaults(fn=_cmd_bubble)

    sw = sub.add_parser("sweep", help="batch solves over a parameter grid")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(fn=_cmd_sweep)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"nodal: error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, QuadratureError) as exc:
        print(f"nodal: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
