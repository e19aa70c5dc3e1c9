"""The public names: every module's __all__ and the package root's list
name something that exists."""

import importlib
import pkgutil

import pytest

import lenslab


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lenslab.__path__)))
def test_every_module_star_imports_and_its_all_resolves(name):
    module = importlib.import_module(f"lenslab.{name}")
    namespace = {}
    exec(f"from lenslab.{name} import *", namespace)  # AttributeError on a stale entry
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), attr
        assert attr in namespace, attr


def test_package_all_is_sorted_and_resolves():
    assert lenslab.__all__ == sorted(lenslab.__all__)
    for attr in lenslab.__all__:
        assert hasattr(lenslab, attr), attr
