"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file is deliberately not named ``test_*.py``: the package's own test
run does not collect it, and it takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _bench(workload: str, seed: int, seconds: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert wl.make_ops(workload, 5, 60) == wl.make_ops(workload, 5, 60)
    assert wl.make_ops(workload, 5, 60) != wl.make_ops(workload, 6, 60)


@pytest.mark.parametrize("workload", ["verify_sweep", "dense_gauges"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_two_ops_share_a_solve_key(workload, seed):
    keys = [key for op in wl.make_ops(workload, seed, 400) for key in op.keys]
    assert keys and len(keys) == len(set(keys))
    assert all(key[3] == wl.TOL for key in keys)


@pytest.fixture(scope="module")
def nodal():
    return run._import_nodal()


def _tamper(res: wl.Result, index: int, old: str, new: str) -> wl.Result:
    outs = list(res.stdouts)
    assert old in outs[index]
    outs[index] = outs[index].replace(old, new, 1)
    return dataclasses.replace(res, stdouts=outs)


def test_checks_reject_wrong_output(nodal):
    op = wl.make_ops("verify_sweep", 1, 1)[0]
    checker = wl.Checker(nodal, "verify_sweep")
    res = wl.execute(nodal, "verify_sweep", op)
    assert checker.check(op, res) is None
    limit = res.stdouts[0].split("\n")[1].split(",")[7]
    assert checker.check(op, _tamper(res, 0, "," + limit + ",", ",1.5,")) is not None
    assert checker.check(op, dataclasses.replace(res, codes=[2])) is not None

    op = wl.make_ops("limit_tables", 1, 1)[0]
    checker = wl.Checker(nodal, "limit_tables")
    res = wl.execute(nodal, "limit_tables", op)
    assert checker.check(op, res) is None
    assert checker.check(op, _tamper(res, 1, ",true\n", ",false\n")) is not None

    op = wl.make_ops("dense_gauges", 1, 1)[0]
    checker = wl.Checker(nodal, "dense_gauges")
    res = wl.execute(nodal, "dense_gauges", op)
    assert checker.check(op, res) is None
    bad = dataclasses.replace(res, extra={**res.extra, "pohozaev": 1e-3})
    assert checker.check(op, bad) is not None
    rows = res.stdouts[0].split("\n")
    short = dataclasses.replace(res, stdouts=["\n".join(rows[:-2]) + "\n"])
    assert checker.check(op, short) is not None


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_has_no_errors(workload):
    res = _result(_bench(workload, 3, 1, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in res["metrics"].items()] == run.E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_trace_counts_repeat_exactly(workload):
    first, second = (_result(_bench(workload, 4, 2, 1)) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert list(first["metrics"]) == [name for name, _, _, _ in layertrace.METRICS]
    for name in ("radial_ode.solve.steps_per_zero", "specfun.lambert_w0.calls_per_op",
                 "constants.theta_sequence.terms_per_op", "radial_ode.solution.pickle_kb"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload != "limit_tables":
        assert first["metrics"]["radial_ode.solve.steps_per_zero"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [wl.WHY[w] for w in wl.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layertrace.METRICS]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("limit_tables", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
