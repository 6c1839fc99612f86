"""Every exported name resolves, so a stale export fails here instead of in `import *`."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import safeshift

MODULES = sorted(info.name for info in pkgutil.iter_modules(safeshift.__path__))


def test_package_exports_resolve():
    assert [name for name in safeshift.__all__ if not hasattr(safeshift, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"safeshift.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
