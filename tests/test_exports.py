"""Every name a factrail module exports in ``__all__`` exists, once."""

import importlib
import pkgutil

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
