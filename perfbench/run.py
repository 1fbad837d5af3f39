#!/usr/bin/env python3
"""The nodal benchmark: three closed-loop workloads with one client each.

Run from the root of a checkout (nothing needs installing; ``src/`` is
put on the path):

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each run is a fresh process with one client that issues the next op only
after the previous one completes.  ``setup_s`` is ``import nodal`` plus a
one-op warm-up, taken in this process and in two more fresh processes
run one after the other; the median is reported.  The loop then runs ops
until their summed time reaches ``--seconds``.  Outputs are checked
between ops, outside the timed intervals, and a seeded sample of ops is
re-run at the end and must print byte-identical stdout.

Times are reported at a reference host speed (see ``CAL_REF_S``): each
timed interval is scaled by how long a fixed calibration kernel took right
before and after it.  The raw times go to stderr and ``perfbench/out/``.

``--trace 1`` prints the per-layer metrics instead: an untraced phase of
``--seconds / 2`` gives the reference rate, then a fixed, seeded block of
ops runs with every traced function wrapped (see ``layertrace.py``), and
the solve keys of its first ops are replayed in-process on fresh keys for
the per-solve numbers that pool workers cannot report.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A readable table, the environment and each
per-layer metric's predicted end-to-end effect go to stderr, and the
full record to ``perfbench/out/``.  Exit code 0 on a finished run, 1 on a
harness failure, 2 when the ``nodal`` sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit) of the end-to-end metrics, in print order
E2E = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: fresh processes that repeat the set-up, besides this one
SETUP_CHILDREN = 2
#: ops re-run after the loop to check byte-identical stdout
RERUNS = 2
#: ops whose solve keys are replayed in-process in a traced run
REPLAY_OPS = 6
#: The host's speed is not steady: on the 2-vCPU VM this benchmark was
#: built on, a fixed pure-Python loop took 1.7 to 2.9 ms from one second
#: to the next, and one run of a workload went up to 1.6x faster than
#: another.  So every timed interval is paired with the time of a fixed
#: calibration kernel measured right before and right after it, and is
#: reported at the speed at which that kernel takes CAL_REF_S.  The
#: constant cancels when two commits are compared; the raw times are
#: recorded next to the corrected ones.
CAL_REF_S = 0.0006
#: upper limit of the traced block; it has one op per second of --seconds,
#: at least 3, and is a fixed seeded block so that its counts repeat exactly
TRACED_OPS_MAX = 24


def _import_nodal():
    """Import nodal from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "nodal" / "__init__.py").is_file():
        print(f"perfbench: no nodal sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import nodal
    import nodal.cli

    if Path(nodal.__file__).resolve().parent != (src / "nodal").resolve():
        print(f"perfbench: imported nodal from {nodal.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return nodal


class Loop:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.corrected: list[float] = []  # latencies at the reference host speed
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.out_bytes = 0
        self.passed: list[tuple[wl.Op, list[str]]] = []  # (op, stdout digests)

    @property
    def rate(self) -> float:
        """Completed ops per second of op time, at the reference host speed."""
        return len(self.corrected) / sum(self.corrected) if self.corrected else 0.0


def run_ops(nodal, checker, workload, ops, *, seconds=None, tracer=None) -> Loop:
    """Issue ``ops`` one after another until their summed time reaches
    ``seconds`` (all of them when ``seconds`` is None)."""
    loop = Loop()
    clock = time.perf_counter
    cal_before = calibrate()
    for op in ops:
        if seconds is not None and loop.busy >= seconds:
            break
        loop.attempted += 1
        if tracer is not None:
            tracer.op = op.index
            tracer.active = True
        start = clock()
        try:
            res = wl.execute(nodal, workload, op)
        except Exception:  # a failing op is counted and reported, the run goes on
            res, problem = None, traceback.format_exc(limit=3)
        dt = clock() - start
        if tracer is not None:
            tracer.active = False
        cal_after = calibrate()
        speed = CAL_REF_S / (0.5 * (cal_before + cal_after))
        cal_before = cal_after
        loop.busy += dt
        if res is not None:
            problem = checker.check(op, res)
            loop.out_bytes += res.output_bytes
        if problem:
            loop.failed += 1
            print(f"perfbench: op {op.index} {op.argvs} failed: {problem}", file=sys.stderr)
        else:
            loop.latencies.append(dt)
            loop.corrected.append(dt * speed)
            loop.passed.append((op, res.digest()))
    return loop


def rerun_mismatches(nodal, loop: Loop, workload: str, seed: int) -> int:
    """Re-run a seeded sample of passed ops; count those whose stdout changed."""
    rng = random.Random(f"{workload}:{seed}:rerun")
    sample = rng.sample(loop.passed, min(RERUNS, len(loop.passed)))
    bad = 0
    for op, digests in sample:
        again = wl.Result([], [wl.run_cli(nodal, argv)[1] for argv in op.argvs], {})
        if again.digest() != digests:
            bad += 1
            print(f"perfbench: op {op.index} printed different bytes on re-run", file=sys.stderr)
    return bad


def replay_solves(nodal, ops, tracer) -> dict[str, float]:
    """Per-solve numbers from in-process solves of the ops' keys.

    Each key's ``p`` is moved one ulp up, so the key is fresh for the memo
    while the solve does the same work.  ``pool_speedup`` sets the summed
    in-process solve time of an op against the wall time of that op's
    traced pool prefetch.
    """
    ro = nodal.radial_ode
    clock = time.perf_counter
    solve_s = zeros = steps = failures = 0
    pickled: list[int] = []
    pool_wall = pool_serial = 0.0
    for op in ops:
        op_s = 0.0
        for p, alpha, m_max, tol in op.keys:
            start = clock()
            try:
                w = ro.solve_whole_plane(math.nextafter(p, math.inf), alpha, m_max, tol)
            except ro.SolverError:
                failures += 1
                continue
            op_s += clock() - start
            zeros += m_max
            steps += len(w.t) - 1
            pickled.append(len(pickle.dumps(w)))
        solve_s += op_s
        prefetch = [s[6] - s[5] for s in tracer.spans
                    if s[2] == op.index and s[3] == "radial_ode.prefetch_solutions"]
        if prefetch:
            pool_wall += sum(prefetch)
            pool_serial += op_s
    return {
        "radial_ode.solve.ms_per_zero": 1e3 * solve_s / zeros if zeros else 0.0,
        "radial_ode.solve.steps_per_zero": steps / zeros if zeros else 0.0,
        "radial_ode.solve.us_per_step": 1e6 * solve_s / steps if steps else 0.0,
        "radial_ode.solution.pickle_kb": statistics.fmean(pickled) / 1024 if pickled else 0.0,
        "radial_ode.pool_speedup": pool_serial / pool_wall if pool_wall else 0.0,
        "radial_ode.solve.failures": float(failures),
    }


def setup_probe(args) -> tuple[float, float]:
    """Corrected and raw set-up time of one more fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env=os.environ.copy(), check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["raw_s"])


def calibrate() -> float:
    """Seconds the fixed kernel takes now: the best of three repetitions."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0.0
        for i in range(5000):
            x += math.sqrt(i + x * 1e-9)
        best = min(best, time.perf_counter() - start)
    return best


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _environment(nodal, args, tol_in_env) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "NODAL_TOL": "unset" if tol_in_env is None else f"unset (was {tol_in_env!r})",
        "solver_tol": nodal.radial_ode.default_tolerance(),
    }


def _report(record: dict, units: dict[str, str], notes: dict[str, str]) -> None:
    env = record["environment"]
    print(f"# nodal benchmark: {env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={env['trace']}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()
                          if k not in ("workload", "seed", "seconds", "trace")), file=sys.stderr)
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']:.4g} correct={record['correct']}", file=sys.stderr)
    raw = record.get("raw_metrics", {})
    for name, value in record["metrics"].items():
        note = f"  should move: {notes[name]}" if name in notes else ""
        if name in raw:
            note = f"  (raw, uncorrected: {raw[name]:.6g})"
        print(f"{name:42s} {value:14.6g} {units[name]:9s}{note}", file=sys.stderr)


def measure(args) -> int:
    tol_in_env = os.environ.pop("NODAL_TOL", None)
    stream = wl.iter_ops(args.workload, args.seed)
    warm = next(stream)

    cal_before = calibrate()
    start = time.perf_counter()
    nodal = _import_nodal()
    warm_res = wl.execute(nodal, args.workload, warm)
    setup_raw = time.perf_counter() - start
    setup = setup_raw * CAL_REF_S / (0.5 * (cal_before + calibrate()))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup, "raw_s": setup_raw}))
        return 0

    checker = wl.Checker(nodal, args.workload)
    warm_problem = checker.check(warm, warm_res)
    if warm_problem:
        print(f"perfbench: warm-up op failed: {warm_problem}", file=sys.stderr)

    if args.trace:
        block = list(itertools.islice(stream, max(3, min(TRACED_OPS_MAX, args.seconds))))
        ref = run_ops(nodal, checker, args.workload, stream, seconds=args.seconds / 2)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            loop = run_ops(nodal, checker, args.workload, block, tracer=tracer)
        finally:
            tracer.remove()
        replay = replay_solves(nodal, [op for op in block[:REPLAY_OPS] if op.keys], tracer)
        metrics = layertrace.layer_metrics(
            tracer, len(block), loop.out_bytes, replay, (loop.rate, ref.rate))
        units = {name: unit for name, unit, _, _ in layertrace.METRICS}
        notes = {name: note for name, _, _, note in layertrace.METRICS}
        phases = [ref, loop]
    else:
        samples = [(setup, setup_raw)] + [setup_probe(args) for _ in range(SETUP_CHILDREN)]
        loop = run_ops(nodal, checker, args.workload, stream, seconds=args.seconds)
        if not loop.latencies:
            print("perfbench: no op completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(s for s, _ in samples),
            "ops_per_s": loop.rate,
            "op_p50_ms": 1e3 * statistics.median(loop.corrected),
            "op_p90_ms": 1e3 * _p90(loop.corrected),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw = {
            "setup_s": statistics.median(r for _, r in samples),
            "ops_per_s": len(loop.latencies) / loop.busy,
            "op_p50_ms": 1e3 * statistics.median(loop.latencies),
            "op_p90_ms": 1e3 * _p90(loop.latencies),
        }
        units, notes = dict(E2E), {}
        phases = [loop]

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases) + rerun_mismatches(
        nodal, loop, args.workload, args.seed)
    record = {
        "environment": _environment(nodal, args, tol_in_env),
        "correct": failed == 0 and not warm_problem,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
    }
    if not args.trace:
        record["raw_metrics"] = raw
        record["setup_samples_s"] = samples
        record["latencies_ms"] = [1e3 * x for x in loop.latencies]
        record["corrected_latencies_ms"] = [1e3 * x for x in loop.corrected]
    _report(record, units, notes)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; a summary table at the end."""
    modes = [0, 1] if args.trace else [0]
    results = {}
    for trace in modes:
        for workload in wl.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
                return 1
            results[f"{workload}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("# summary", file=sys.stderr)
    for key, res in results.items():
        error_rate = res["failed"] / res["attempted"]
        print(f"{key}: error_rate={error_rate:.4g} ({res['failed']}/{res['attempted']})",
              file=sys.stderr)
        if key.endswith("trace0"):
            for name, m in res["metrics"].items():
                print(f"  {name:14s} {m['value']:12.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
