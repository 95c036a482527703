"""The package's public names: every ``__all__`` entry must resolve."""

import importlib
import pkgutil

import pytest

import eddyspec

MODULES = ["eddyspec"] + [
    f"eddyspec.{info.name}" for info in pkgutil.iter_modules(eddyspec.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
