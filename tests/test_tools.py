"""The command list of ``tools/cli_bytes.py`` names real subcommands and options."""

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
    assert {argv[0] for argv in cb.INVOCATIONS} == set(commands.choices)
    formats = {}
    for argv in cb.INVOCATIONS:
        options = commands.choices[argv[0]]._option_string_actions
        named = [arg.partition("=")[0] for arg in argv[1:] if arg.startswith("--")]
        assert set(named) <= set(options), argv
        if "--format" in options:
            chosen = argv[argv.index("--format") + 1] if "--format" in argv else None
            formats.setdefault(argv[0], set()).add(chosen or options["--format"].default)
    assert formats == dict.fromkeys(("constants", "bounds", "solve", "verify", "bubble"),
                                    {"csv", "json"})
