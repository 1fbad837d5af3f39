"""Digest the bytes of a fixed list of ``nodal`` invocations.

Each invocation in ``INVOCATIONS`` runs in a fresh ``python -m nodal.cli``
process, with ``PYTHONPATH`` set to the given ``src/`` directory, in a new
working directory that holds the sweep config files of ``CONFIGS``.  For
each one the script prints one line: the exit code, the SHA-256 of stdout,
of stderr and of the files the command wrote (their relative paths and
contents), and the command line.  Two checkouts compare with ``diff``:

    python tools/cli_bytes.py path/to/old/src > old.txt
    python tools/cli_bytes.py path/to/new/src > new.txt
    diff old.txt new.txt

``tools/cli_numdiff.py`` runs the same list in two checkouts and says, for
each invocation, how far apart the numbers of the two outputs are.

The list covers all six commands, both formats, ``--out`` for every command,
the ``--help`` texts (at ``COLUMNS=80``), and the documented exit-1 and
exit-2 cases.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: sweep config files written into each invocation's working directory
CONFIGS = {
    "sweep.cfg": "# demo sweep\np = 30,60\nm = 2..3\nalpha = 0\nbc = dirichlet,neumann\n",
    "sweep_tol.cfg": "p = 40\nm = 2\nalpha = 0.5\nbc = plane\ntol = 1e-9\n",
    "sweep_bad.cfg": "p = 30\nm = 1\nalpha = 0\nbc = plane\nq = 1\n",
}

#: the command lines, each command's success cases first, then its exit-1
#: (validation) and exit-2 (numerical failure) cases
INVOCATIONS = [
    # help texts
    ["--help"],
    *([command, "--help"] for command in ("constants", "bounds", "solve", "verify", "bubble",
                                          "sweep")),
    # constants
    ["constants", "--m", "25"],
    ["constants", "--m", "25", "--format", "json"],
    ["constants", "--m", "200", "--format", "json"],
    ["constants", "--m", "1", "--alpha", "1.5", "--format", "json"],
    ["constants", "--m", "3", "--alpha", "2", "--out", "c.csv"],
    ["constants", "--m", "0"],
    ["constants", "--m", "2.5"],
    ["constants", "--m=--"],
    ["constants", "--m", "3", "--alpha", "-1"],
    ["constants", "--m", "2", "--alpha", "1e308"],
    # bounds
    ["bounds", "--kmax", "777", "--mmax", "61"],
    ["bounds", "--kmax", "40", "--mmax", "12", "--format", "json"],
    ["bounds", "--kmax", "30", "--mmax", "9", "--format", "json", "--out", "b.json"],
    ["bounds", "--kmax", "5", "--mmax", "80"],
    ["bounds", "--kmax", "0", "--mmax", "3"],
    # solve
    ["solve", "--p", "200", "--alpha", "0", "--m", "2", "--bc", "dirichlet"],
    ["solve", "--p", "50", "--alpha", "1", "--m", "3", "--bc", "neumann"],
    ["solve", "--p", "200", "--m", "2", "--bc", "plane", "--samples", "200", "--format", "csv"],
    ["solve", "--p", "60", "--m", "2", "--bc", "dirichlet", "--samples", "30", "--tol", "1e-8",
     "--format", "csv", "--out", "s.csv"],
    ["solve", "--p", "200", "--alpha", "0", "--m", "30", "--bc", "dirichlet", "--samples", "400",
     "--format", "csv"],
    ["solve", "--p", "1e8", "--m", "4", "--bc", "plane"],
    ["solve", "--p", "1", "--m", "2", "--bc", "dirichlet"],
    ["solve", "--p", "40", "--m", "1", "--bc", "neumann"],
    ["solve", "--p", "40", "--m", "2", "--bc", "robin"],
    ["solve", "--p", "40", "--m", "2", "--bc", "dirichlet", "--format", "csv"],
    ["solve", "--p", "40", "--m", "2", "--bc", "dirichlet", "--samples", "-1"],
    ["solve", "--p", "40", "--m", "2", "--bc", "dirichlet", "--tol", "2"],
    ["solve", "--p", "40", "--m", "2", "--bc", "dirichlet", "--tol", "nan"],
    ["solve", "--p", "2", "--alpha", "1e62", "--m", "1", "--bc", "plane"],
    ["solve", "--p", "1.03", "--alpha", "19.5", "--m", "8", "--bc", "dirichlet"],
    ["solve", "--p", "1e156", "--m", "1", "--bc", "plane"],
    # verify
    ["verify", "--m", "2", "--alpha", "0", "--bc", "dirichlet", "--p", "50,100,200"],
    ["verify", "--m", "3", "--bc", "neumann", "--p", "40,80", "--format", "json"],
    ["verify", "--m", "2", "--alpha", "1", "--bc", "plane", "--p", "40,80", "--out", "v.csv"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "80,40"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80", "--tol", "0"],
    ["verify", "--m", "2", "--bc", "dirichlet", "--p", "40,80", "--out", "missing/v.csv"],
    # bubble
    ["bubble", "--i", "1", "--alpha", "0", "--rmin", "1", "--rmax", "20", "--n", "100"],
    ["bubble", "--i", "0", "--alpha", "1.5", "--format", "json"],
    ["bubble", "--i", "2", "--alpha", "1", "--n", "50", "--format", "json", "--out", "bb.json"],
    ["bubble", "--i", "10", "--alpha", "1e300"],
    ["bubble", "--i", "10", "--alpha", "1e306"],
    ["bubble", "--i", "10", "--alpha", "2e306"],
    ["bubble", "--i", "3", "--alpha", "6.79e306", "--format", "json"],
    ["bubble", "--i", "-1"],
    ["bubble", "--i", "1", "--n", "0"],
    ["bubble", "--i", "1", "--rmin", "5", "--rmax", "2"],
    ["bubble", "--i", "3", "--alpha", "1e307"],
    ["bubble", "--i", "10000"],
    ["bubble", "--i", "100000"],
    # sweep
    ["sweep", "--config", "sweep.cfg", "--out", "out"],
    ["sweep", "--config", "sweep_tol.cfg", "--out", "out", "--workers", "1"],
    ["sweep", "--config", "sweep_bad.cfg", "--out", "out"],
    ["sweep", "--config", "missing.cfg", "--out", "out"],
    ["sweep", "--config", "sweep.cfg", "--out", "out", "--workers", "0"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_digest(files: dict[str, bytes]) -> str:
    """SHA-256 over the relative path and contents of each file a command wrote."""
    h = hashlib.sha256()
    for rel, data in files.items():
        h.update(rel.encode() + b"\0" + _sha(data).encode() + b"\n")
    return h.hexdigest()


def run_raw(src: Path, argv: list[str]) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """One invocation in a fresh process and working directory: the exit
    code, stdout, stderr, and the files the command wrote by relative path."""
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")  # one help width
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in CONFIGS.items():
            (root / name).write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "nodal.cli", *argv], cwd=root, env=env,
                              capture_output=True, timeout=600, check=False)
        written = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            rel = path.relative_to(root).as_posix()
            if rel not in CONFIGS:
                written[rel] = path.read_bytes()
    return proc.returncode, proc.stdout, proc.stderr, written


def run_one(src: Path, argv: list[str]) -> str:
    """One invocation's digest line."""
    code, out, err, files = run_raw(src, argv)
    return (f"exit={code} stdout={_sha(out)} stderr={_sha(err)} files={_files_digest(files)} "
            f"nodal {' '.join(argv)}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_bytes.py SRC_DIR", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    for args in INVOCATIONS:
        print(run_one(src, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
