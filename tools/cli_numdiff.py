"""Compare the outputs of ``tools/cli_bytes.py``'s invocations between two
checkouts, token by token:

    python tools/cli_numdiff.py path/to/old/src path/to/new/src

Each invocation in ``cli_bytes.INVOCATIONS`` runs in both trees, each time
in a fresh process and working directory set up as ``cli_bytes`` does.
For each one the script prints one line, then the command line:

* ``same`` when exit code, stdout, stderr and the files written are equal;
* ``N tokens, max rel D`` when only numbers differ: N differing tokens, and
  the largest relative difference ``|a - b| / max(|a|, |b|)`` among them;
* ``non-numeric`` when the exit code, the names of the files written, the
  number of tokens, or a token that is not a finite number differs.

Tokens are the text between whitespace and the separators ``,;:()[]{}"``,
over stdout, stderr and the files in turn.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

_SEPARATORS = re.compile(r'[\s,;:()\[\]{}"]+')


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare(old: str, new: str) -> str:
    """``same``, ``N tokens, max rel D`` or ``non-numeric`` for two texts."""
    a, b = _SEPARATORS.split(old), _SEPARATORS.split(new)
    if len(a) != len(b):
        return "non-numeric"
    count, worst = 0, 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return "non-numeric"
        scale = max(abs(fx), abs(fy))
        count, worst = count + 1, max(worst, abs(fx - fy) / scale if scale else 0.0)
    return f"{count} tokens, max rel {worst:.2g}" if count else "same"


def _text(out: bytes, err: bytes, files: dict[str, bytes]) -> str:
    return "\n".join(data.decode("utf-8", "replace") for data in (out, err, *files.values()))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_numdiff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cli_bytes import INVOCATIONS, run_raw

    old_src, new_src = (Path(arg).resolve() for arg in argv)
    for args in INVOCATIONS:
        (code_a, *old), (code_b, *new) = run_raw(old_src, args), run_raw(new_src, args)
        if code_a != code_b or list(old[2]) != list(new[2]):
            summary = "non-numeric"
        else:
            summary = compare(_text(*old), _text(*new))
        print(f"{summary}  nodal {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
