"""The public surface: each library module's ``__all__`` is the one list of its names."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import nodal
from nodal import bubbles, constants, radial_ode, specfun, verify

_MODULES = (bubbles, constants, radial_ode, specfun, verify)
_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_all_is_the_module_lists():
    expected = [name for mod in _MODULES for name in mod.__all__] + ["__version__"]
    assert nodal.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in _MODULES:
        for name in mod.__all__:
            assert getattr(nodal, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_module_all_lists_every_public_function_and_class():
    for mod in _MODULES:
        defined = {
            name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        }
        listed = {name for name in mod.__all__
                  if inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name))}
        assert listed == defined, mod.__name__


def test_version_matches_pyproject():
    text = _PYPROJECT.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert nodal.__version__ == version


def test_import_loads_the_library_modules_only():
    code = "import sys, nodal; print(*sorted(m for m in sys.modules if m.startswith('nodal')))"
    src = str(Path(nodal.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["nodal"] + [mod.__name__ for mod in _MODULES]
