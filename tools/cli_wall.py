"""Time a fixed list of ``nodal`` invocations in fresh processes, old against new.

Each invocation in ``INVOCATIONS`` runs ``ROUNDS`` times per side in a
fresh ``python -m nodal.cli`` process, with ``PYTHONPATH`` set to the
side's ``src/`` directory, in a new empty working directory.  The sides
alternate, and which side goes first alternates from round to round, so
a drift in the host's speed falls on both.  A fresh process pays for
every import the command makes, as a user's shell does:

    python tools/cli_wall.py path/to/old/src path/to/new/src

For each invocation the script prints one line: each side's median wall
time with its quartiles in milliseconds, in how many rounds the new side
was faster, and the command line.  A line is marked ``EXIT DIFFERS`` when
the two sides ended with different exit codes; ``tools/cli_bytes.py``
compares the bytes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: fresh processes per side and invocation
ROUNDS = 10

#: the command lines: the p -> infinity commands, then a short and a long
#: (30-zero) solve, a pooled verify, and a verify refused for its ``--out``
#: directory
INVOCATIONS = [
    ["constants", "--m", "25"],
    ["constants", "--m", "80", "--format", "json"],
    ["bounds", "--kmax", "4000", "--mmax", "80"],
    ["bubble", "--i", "10", "--alpha", "1"],
    ["solve", "--p", "200", "--alpha", "0", "--m", "2", "--bc", "dirichlet"],
    ["solve", "--p", "200", "--alpha", "0", "--m", "30", "--bc", "dirichlet"],
    ["verify", "--m", "3", "--bc", "neumann", "--p", "40,80", "--format", "json"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80", "--out", "missing/v.csv"],
]


def run_one(src: Path, argv: list[str]) -> tuple[float, int]:
    """Wall seconds and exit code of one invocation in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nodal.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, timeout=600, check=False)
        return time.perf_counter() - start, proc.returncode


def _summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{1e3 * median:7.1f} [{1e3 * q1:7.1f}, {1e3 * q3:7.1f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_wall.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 1
    old, new = (Path(a).resolve() for a in argv)
    print(f"# {ROUNDS} alternating fresh processes per side; wall ms, median [q1, q3]")
    for args in INVOCATIONS:
        times: dict[Path, list[float]] = {old: [], new: []}
        codes: dict[Path, set[int]] = {old: set(), new: set()}
        for r in range(ROUNDS):
            for src in (old, new) if r % 2 == 0 else (new, old):
                wall, code = run_one(src, args)
                times[src].append(wall)
                codes[src].add(code)
        wins = sum(n < o for o, n in zip(times[old], times[new]))
        flag = "" if codes[old] == codes[new] else "  EXIT DIFFERS"
        print(f"old {_summary(times[old])} -> new {_summary(times[new])} "
              f"(new faster in {wins} of {ROUNDS}){flag}  nodal {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
