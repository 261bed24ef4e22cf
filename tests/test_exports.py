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


# The error classes some code or the acceptance tests catch by name. Every
# other fault raises its module's base class with a message naming it.
ERROR_CLASSES = {
    "factrail.backends": {"BackendError", "BackendUnavailableError", "MalformedUpstreamResponseError"},
    "factrail.cli": {"ConfigError"},
    "factrail.corpus": {"CorpusError", "EmptyQueryError"},
    "factrail.dataset": {"DatasetError"},
    "factrail.evaluation": {"SchemaMismatchError", "UnknownTaskError"},
    "factrail.grammar": {"GrammarError", "MultilinePassageError"},
    "factrail.orchestrator": {"PipelineError", "TraceFormatError"},
}


def test_the_package_defines_only_the_error_classes_code_tells_apart():
    defined = {}
    for name in MODULES:
        module = importlib.import_module(name)
        classes = {
            attr
            for attr, value in vars(module).items()
            if isinstance(value, type)
            and issubclass(value, Exception)
            and value.__module__ == name
        }
        if classes:
            defined[name] = classes
    assert defined == ERROR_CLASSES


def fresh_interpreter(probe: str) -> list[str]:
    """The words ``probe`` prints in a new interpreter, so no other test's imports count."""
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
    return done.stdout.split()


def test_importing_the_package_and_its_cli_loads_only_the_standard_library():
    probe = (
        "import sys; before = set(sys.modules); import factrail, factrail.cli; "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "loaded |= {'requests', 'urllib3'} & set(sys.modules); "
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'factrail'})))"
    )
    assert fresh_interpreter(probe) == []


def test_importing_one_module_loads_no_other_and_no_network_stack():
    # The package itself imports none of its modules, so a caller of the
    # grammar alone does not pay for the HTTP client.
    probe = (
        "import sys; import factrail.grammar; "
        "print(' '.join(sorted(name for name in sys.modules "
        "if name.startswith('factrail.') or name in ('ssl', 'http.client'))))"
    )
    assert fresh_interpreter(probe) == ["factrail.grammar"]


def test_importing_the_cli_loads_no_network_stack():
    # Only an HTTP request needs the network stack, so it loads on the first.
    probe = (
        "import sys; import factrail.cli; "
        "print(' '.join(sorted({'ssl', 'http.client'} & set(sys.modules))))"
    )
    assert fresh_interpreter(probe) == []


def test_importing_the_cli_loads_no_thread_pool():
    # Only a batch of more than one worker starts a pool, so it loads then.
    probe = "import sys; import factrail.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_interpreter(probe) == ["False"]


def test_the_package_declares_no_runtime_dependency():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject.read_text(encoding="utf-8"), re.M | re.S)
    assert declared is not None
    assert declared.group(1).strip() == ""
