"""Every name a module of the package exports must exist."""

import importlib
import pkgutil

import pytest

import nsmacdonald

MODULES = ["nsmacdonald"] + [
    f"nsmacdonald.{info.name}" for info in pkgutil.iter_modules(nsmacdonald.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
