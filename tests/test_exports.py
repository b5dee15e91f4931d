"""Every exported name resolves: the package's __all__ and each module's."""

import importlib
import pkgutil

import pytest

import pstruct

MODULES = sorted(info.name for info in pkgutil.iter_modules(pstruct.__path__)
                 if info.name != "__main__")


def test_the_package_exports_resolve():
    assert len(set(pstruct.__all__)) == len(pstruct.__all__)
    assert [name for name in pstruct.__all__ if not hasattr(pstruct, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pstruct.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
