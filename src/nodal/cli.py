"""Command-line front end: constants, bounds, solving, verification, bubbles.

Output is byte-deterministic for identical inputs: JSON floats carry 17
significant digits (NaN and inf as null), and a result object (a
dataclass) is written as a JSON object of its fields in declaration
order.  CSV uses comma separators, LF line endings, a header row,
17-significant-digit value columns (NaN as an empty cell), and (in the
constants table) 6-digit display columns mirroring the usual printed
precision.

Each data command returns what it prints, the JSON value or
``(header, columns)`` for CSV, and :func:`run` alone writes it: to stdout,
or byte for byte to the ``--out`` file, refused before the command runs when
its directory is missing.  Every CSV column holds one type, ``str``,
``int`` or ``float``, and the encoder has one rule for each.  ``sweep``
writes its own directory, one file per grid point.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import sys
from collections import Counter
from collections.abc import Iterable, Sequence
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
        buf.write("{")
        for n, (k, v) in enumerate(obj.items()):
            buf.write((",\n" if n else "\n") + pad + '  "' + str(k) + '": ')
            _json_encode(v, buf, indent + 2)
        buf.write("\n" + pad + "}" if obj else "}")
    elif dataclasses.is_dataclass(obj):
        _json_encode({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, buf, indent)
    elif isinstance(obj, np.ndarray):
        _json_encode(obj.tolist(), buf, indent)
    elif type(obj) is list and set(map(type, obj)) == {float}:
        buf.write("[" + ", ".join(["%.17g" % x if math.isfinite(x) else "null"
                                   for x in obj]) + "]")
    elif isinstance(obj, (list, tuple)):
        buf.write("[")
        for n, v in enumerate(obj):
            if n:
                buf.write(", ")
            _json_encode(v, buf, indent)
        buf.write("]")
    else:
        raise TypeError(f"cannot encode {type(obj)!r}")


def _to_json(obj) -> str:
    buf = io.StringIO()
    _json_encode(obj, buf)
    buf.write("\n")
    return buf.getvalue()


def _csv_column(column: Sequence) -> Sequence[str]:
    """One column's cells as text: ``str`` as they are, ``int`` in decimal,
    ``float`` with 17 digits and NaN as an empty cell; no other column."""
    kinds = set(map(type, column))
    if kinds <= {str}:
        return column
    if kinds == {int}:
        return list(map(str, column))
    if kinds == {float}:
        # a NaN cell makes the sum NaN (so can inf - inf)
        total = sum(column)
        if total == total:
            return ("%.17g\n" * len(column) % tuple(column)).split("\n")[:-1]
        return ["" if x != x else "%.17g" % x for x in column]
    raise TypeError(f"cannot encode a CSV column of {sorted(k.__name__ for k in kinds)}")


def _to_csv(header: list[str], columns: Iterable[Sequence]) -> str:
    """Header plus one column of equal length per header entry."""
    cells = [_csv_column(column) for column in columns]
    # the empty last line gives the final newline without copying the text again
    return "\n".join([",".join(header), *map(",".join, zip(*cells)), ""])


# ----------------------------------------------------------------- commands

def _cmd_constants(args) -> object:
    m, alpha = args.m, args.alpha
    table = cn.constant_table(m, alpha)  # validates m and alpha
    ntab = cn._neumann_table(table) if m >= 2 else None
    m0s = cn.m0_sequence(m)
    plane = cn.whole_plane_limits_suite(m, alpha)

    if args.format == "json":
        th = cn.theta_sequence(m)  # the a_seq oracle is printed only here
        return {
            "m": m,
            "alpha": alpha,
            "theta": th.theta,
            "a_seq": th.a_seq,
            "m0_across": m0s,
            "m0_over_sqrt": [m0s[i - 1] / math.sqrt(i) for i in range(1, m + 1)],
            "dirichlet": table,
            "neumann": ntab,
            "whole_plane": plane,
        }

    header = [
        "i", "theta", "M0", "M0_over_sqrt", "theta_full",
        "R", "S", "M", "D",
        "R_neumann", "D_neumann", "S_neumann", "M_neumann",
        "plane_rho", "plane_drv", "plane_delta", "plane_val",
    ]
    n = m + 1  # rows i = 0..m

    def pad(values: list, start: int, empty=math.nan) -> list:
        """``values`` in rows ``start``.., ``empty`` cells elsewhere."""
        return [empty] * start + values + [empty] * (n - start - len(values))

    theta, m0_list = cn._theta_head(n), m0s.tolist()
    if ntab is not None:
        neumann = [pad(ntab.Rbar[1:].tolist(), 1), pad(ntab.Dbar[1:].tolist(), 1),
                   pad(ntab.Sbar.tolist(), 0), pad(ntab.Mbar.tolist(), 0)]
    else:
        neumann = [pad([], 0)] * 4
    columns = [
        range(n), [_fmt(x, 6) for x in theta],
        pad([_fmt(x, 6) for x in m0_list], 1, ""),
        pad([_fmt(x / math.sqrt(i), 6) for i, x in enumerate(m0_list, 1)], 1, ""),
        theta,
        pad(table.R[1:].tolist(), 1), pad(table.S.tolist(), 0),
        pad(table.M.tolist(), 0), pad(table.D[1:].tolist(), 1),
        *neumann,
        *(pad([getattr(w, name) for w in plane], 1)
          for name in ("rho_lim", "drv_lim", "delta_lim", "val_lim")),
    ]
    return header, columns


def _cmd_bounds(args) -> object:
    table = (cn.theta_bounds_suite(args.kmax) + cn.m0_bounds_suite(args.mmax)
             + cn.sup_norm_bounds_suite(args.mmax))
    if args.format == "json":
        # one object per report row; the BoundsTable dataclass itself holds columns
        return list(table)
    header = ["check", "index", "lower", "value", "upper", "holds"]
    *columns, holds = table.columns()
    columns.append(["true" if h else "false" for h in holds])
    return header, columns


def _dump(w, bc: str, m: int, samples: int = 0) -> dict:
    """The ``solve``/``sweep`` object of the ``bc`` solution with ``m`` regions
    read from the whole-plane solve ``w``.  With ``samples`` > 0 it also holds
    min(samples, nodes) of the stored nodes (those inside the disc, on the disc,
    for dirichlet/neumann), spaced evenly by index."""
    if bc == "plane":
        sol, nodes = w, len(w.t)
    else:
        sol = (dirichlet_solution if bc == "dirichlet" else neumann_solution)(w, m)
        nodes = int(np.count_nonzero(w.t <= sol.log_scale))
    out = {"p": w.p, "alpha": w.alpha, "bc": bc, "m": m,
           "log_zeros": sol.log_zeros.tolist(), "log_crit": sol.log_crit.tolist(),
           "crit_values": sol.crit_values.tolist()}
    if bc != "plane":
        out.update(boundary_derivative=sol.boundary_derivative,
                   energy_grad=sol.energy_grad, energy_pot=sol.energy_pot)
    if samples > 0:
        idx = np.unique(np.linspace(0, nodes - 1, min(samples, nodes)).astype(int))
        # on the disc, |u| <= 1 keeps the scaled values finite
        out["samples"] = ({"t": w.t[idx].tolist(), "u": w.u[idx].tolist(),
                           "ut": w.ut[idx].tolist()} if bc == "plane" else
                          {"r": np.exp(w.t[idx] - sol.log_scale).tolist(),
                           "u": (sol.amplitude_scale * w.u[idx]).tolist()})
    return out


def _cmd_solve(args) -> object:
    cn._check_bc("solve", args.bc, args.m)
    cn._check_count("solve", "--samples", args.samples, 0)
    w = solve_whole_plane(args.p, args.alpha, args.m, args.tol)
    dump = _dump(w, args.bc, args.m, args.samples)
    if args.format == "json":
        return dump
    samples = dump.get("samples")
    if samples is None:
        raise ValueError("solve: csv output requires --samples N")
    return list(samples), samples.values()


def _cmd_verify(args) -> object:
    reports = convergence_report(args.m, args.alpha, args.bc, args.p, args.tol)
    if args.format == "json":
        return reports
    header = ["quantity", "bc", "m", "alpha", "i", "p", "computed", "limit", "abs_err"]
    rows = [[rep.quantity, rep.bc, rep.m, rep.alpha, "" if rep.i is None else str(rep.i),
             row.p, row.computed, row.limit, row.abs_err]
            for rep in reports for row in rep.rows]
    return header, zip(*rows)


def _cmd_bubble(args) -> object:
    cn._check_count("bubble", "--n", args.n, 1)
    spec = bubble_spec(args.i, args.alpha)
    if args.rmin is None:
        args.rmin = spec.concentration_radius / 100.0
    if args.rmax is None:
        args.rmax = 10.0 * spec.concentration_radius
    if not (math.isfinite(args.rmin) and math.isfinite(args.rmax)
            and 0.0 <= args.rmin < args.rmax):
        raise ValueError("bubble: need finite 0 <= rmin < rmax")
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
        return {"spec": spec, "checks": checks, "samples": samples.tolist()}
    for name, ck in checks.items():
        print(f"# {name}: " + " ".join(f"{k}={_fmt(float(v))}" for k, v in ck.items()),
              file=sys.stderr)
    return ["r", "Z", "expZ"], samples.T.tolist()


def _parse_sweep_config(path: str) -> dict:
    """Flat key-list file: ``p = 50,100``, ``m = 1..3``, ``alpha = 0``,
    ``bc = dirichlet`` (one key per line, ``#`` comments allowed).  A
    repeated key, a key without values, a malformed or empty range and a
    value that is not a number are rejected with their line number."""
    cfg: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, values = _parse_sweep_line(line, cfg)
        except ValueError as exc:
            raise ValueError(f"sweep config line {lineno}: {exc}") from None
        cfg[key] = values
    for required in ("p", "m", "alpha", "bc"):
        if required not in cfg:
            raise ValueError(f"sweep config: missing key {required!r}")
    return cfg


def _parse_sweep_line(line: str, cfg: dict) -> tuple[str, list | float]:
    """One ``key = values`` line as ``(key, values)``; ``cfg`` holds the keys read so far."""
    if "=" not in line:
        raise ValueError("expected 'key = values'")
    key, _, val = line.partition("=")
    key = key.strip().lower()
    if key not in ("p", "m", "alpha", "bc", "tol"):
        raise ValueError(f"unknown key {key!r}")
    if key in cfg:
        raise ValueError(f"repeated key {key!r}")
    pieces = [v.strip() for v in val.split(",") if v.strip()]
    if not pieces:
        raise ValueError(f"no values for {key!r}")
    if key == "bc":
        return key, pieces
    if key == "tol":
        return key, _config_float(val.strip())
    items: list[float] = []
    for piece in pieces:
        if ".." not in piece:
            items.append(_config_float(piece))
            continue
        lo, _, hi = piece.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad range {piece!r}") from None
        if lo > hi:
            raise ValueError(f"empty range {piece!r}")
        items.extend(map(float, range(lo, hi + 1)))
    return key, items


def _config_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad value {text!r}") from None


def _cmd_sweep(args) -> None:
    cfg = _parse_sweep_config(args.config)
    tol = cfg.get("tol")
    for m in cfg["m"]:
        if not m.is_integer():
            raise ValueError(f"sweep: m={m!r} is not an integer")
    for bc in cfg["bc"]:
        # the least m decides: the rule is a lower bound on m
        cn._check_bc("sweep", bc, int(min(cfg["m"])))
    combos = sorted(
        (bc, int(m), float(alpha), float(p))
        for bc in cfg["bc"] for m in cfg["m"] for alpha in cfg["alpha"]
        for p in cfg["p"]
    )
    # the names print p and alpha to 6 digits, so distinct grid points can share one
    index = [f"solve_{bc}_m{m}_alpha{_fmt(alpha, 6)}_p{_fmt(p, 6)}.json"
             for bc, m, alpha, p in combos]
    name, count = Counter(index).most_common(1)[0]
    if count > 1:
        raise ValueError(f"sweep: {count} grid points would write {name}")
    sols = prefetch_solutions([(p, alpha, m) for bc, m, alpha, p in combos], tol,
                              workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (bc, m, alpha, p), w, name in zip(combos, sols, index):
        (out_dir / name).write_text(_to_json(_dump(w, bc, m)), encoding="utf-8", newline="")
    (out_dir / "index.json").write_text(_to_json(index), encoding="utf-8", newline="")


# ----------------------------------------------------------------- parser

def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("no exponent given")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument as ValueError, one ``nodal: error:`` line."""

    def error(self, message: str):
        raise ValueError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops "--" from an explicit ``--opt=--`` and would store []
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse makes a new namespace."""
    parser = _Parser(
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
    c.set_defaults(fn=_cmd_constants)

    b = sub.add_parser("bounds", help="growth/sandwich bound reports")
    b.add_argument("--kmax", type=int, required=True)
    b.add_argument("--mmax", type=int, required=True)
    b.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("solve", help="solve the radial problem at finite p")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--bc", choices=tuple(cn._MIN_M), required=True)
    s.add_argument("--samples", type=int, default=0, metavar="N",
                   help="print min(N, nodes) samples: the stored solver nodes (inside "
                        "the disc for dirichlet/neumann), spaced evenly by index")
    s.add_argument("--tol", type=float, default=None)
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="finite-p vs asymptotic convergence report")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--alpha", type=float, default=0.0)
    v.add_argument("--bc", choices=tuple(cn._MIN_M), required=True)
    v.add_argument("--p", type=_float_list, required=True,
                   help="comma-separated increasing exponents, e.g. 50,100,200")
    v.add_argument("--tol", type=float, default=None)
    v.set_defaults(fn=_cmd_verify)

    bb = sub.add_parser("bubble", help="limit bubble profile and integrals")
    bb.add_argument("--i", type=int, required=True)
    bb.add_argument("--alpha", type=float, default=0.0)
    bb.add_argument("--rmin", type=float, default=None)
    bb.add_argument("--rmax", type=float, default=None)
    bb.add_argument("--n", type=int, default=200)
    bb.set_defaults(fn=_cmd_bubble)

    sw = sub.add_parser("sweep", help="batch solves over a parameter grid")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(fn=_cmd_sweep)

    # the data commands' output options, last in each command's help
    for cmd, fmt in ((c, "csv"), (b, "csv"), (s, "json"), (v, "csv"), (bb, "csv")):
        cmd.add_argument("--format", choices=("csv", "json"), default=fmt)
        cmd.add_argument("--out", default=None)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation and write its output; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command != "sweep" and args.out is not None:
            try:  # a missing directory fails before the command's work, as the write would
                Path(args.out).parent.stat()
            except FileNotFoundError as exc:
                raise FileNotFoundError(exc.errno, exc.strerror, str(Path(args.out))) from None
            except OSError:
                pass  # any other failure stays the write's to report
        result = args.fn(args)
        if result is not None:
            text = _to_json(result) if args.format == "json" else _to_csv(*result)
            if args.out is None:
                sys.stdout.write(text)
            else:
                Path(args.out).write_text(text, encoding="utf-8", newline="")
        return 0
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError) as exc:
        print(f"nodal: error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, QuadratureError) as exc:
        print(f"nodal: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
