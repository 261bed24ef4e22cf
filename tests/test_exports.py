"""Every name a factrail module exports in ``__all__`` exists, once, and
the package needs nothing outside the standard library."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import factrail

MODULES = sorted(info.name for info in pkgutil.iter_modules(factrail.__path__, "factrail."))


def test_the_package_modules_are_found():
    assert "factrail.orchestrator" in MODULES


@pytest.mark.parametrize("name", ["factrail", *MODULES])
def test_every_exported_name_exists_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []


def test_importing_the_package_and_its_cli_loads_only_the_standard_library():
    # A fresh interpreter, so no other test's imports count.
    probe = (
        "import sys; before = set(sys.modules); import factrail, factrail.cli; "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "loaded |= {'requests', 'urllib3'} & set(sys.modules); "
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'factrail'})))"
    )
    src = str(Path(factrail.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == []


def test_the_package_declares_no_runtime_dependency():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject.read_text(encoding="utf-8"), re.M | re.S)
    assert declared is not None
    assert declared.group(1).strip() == ""
