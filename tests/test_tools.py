"""The command lists of ``tools/cli_bytes.py`` and ``tools/cli_wall.py`` name real
subcommands and options."""

import argparse
import importlib.util
import sys
from pathlib import Path

from nodal import cli

_CLI_BYTES = Path(__file__).resolve().parents[1] / "tools" / "cli_bytes.py"


def test_cli_bytes_invocations_parse_as_commands(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it read-only
    spec = importlib.util.spec_from_file_location("cli_bytes", _CLI_BYTES)
    cb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cb)  # defines the list only; no process starts
    [commands] = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in cb.INVOCATIONS} == {"--help", *commands.choices}
    formats, used = {}, {}
    for argv in cb.INVOCATIONS:
        if argv == ["--help"]:
            continue
        options = commands.choices[argv[0]]._option_string_actions
        named = [arg.partition("=")[0] for arg in argv[1:] if arg.startswith("--")]
        assert set(named) <= set(options), argv
        used.setdefault(argv[0], {"-h"}).update(named)
        if "--format" in options:
            chosen = argv[argv.index("--format") + 1] if "--format" in argv else None
            formats.setdefault(argv[0], set()).add(chosen or options["--format"].default)
    # every option of every command, --out and --help included, appears in some line
    assert used == {name: set(p._option_string_actions) for name, p in commands.choices.items()}
    assert formats == dict.fromkeys(("constants", "bounds", "solve", "verify", "bubble"),
                                    {"csv", "json"})


_CLI_WALL = _CLI_BYTES.with_name("cli_wall.py")


def test_cli_wall_invocations_parse_as_commands(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("cli_wall", _CLI_WALL)
    cw = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cw)  # defines the list only; no process starts
    parser = cli._build_parser()
    for argv in cw.INVOCATIONS:
        args = parser.parse_args(argv)  # exits, failing the test, on an unknown option
        assert args.fn is not None, argv
    assert cw.ROUNDS >= 10
