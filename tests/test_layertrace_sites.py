"""Every binding the benchmark tracer wraps still exists in the package."""

import importlib.util
import sys
from pathlib import Path

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_tracer_sites_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it read-only
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    lt = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lt)
    sites = [site[:2] for site in lt._SPAN_SITES + lt._LEAF_SITES]
    assert len(sites) > 20
    missing = []
    for path, attr in sites:
        owner, name = lt._resolve(path, attr)
        if not hasattr(owner, name):
            missing.append(f"{path}.{attr}")
    assert missing == []
