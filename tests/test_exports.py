import importlib
import pkgutil

import pytest

import clifract

MODULES = ["clifract"] + [
    f"clifract.{info.name}" for info in pkgutil.iter_modules(clifract.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [item for item in exported if not hasattr(module, item)] == []


def test_the_package_exports_are_found():
    assert {"clifract.engine", "clifract.lift", "clifract.cli"} <= set(MODULES)
    assert "fixed_point" in clifract.__all__
