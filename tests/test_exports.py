"""Every exported name resolves, so a stale export fails here instead of in `import *`."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import safeshift

MODULES = sorted(info.name for info in pkgutil.iter_modules(safeshift.__path__))
# the directory this session imported safeshift from, for child interpreters
SRC = str(Path(safeshift.__file__).parents[1])


def test_package_exports_resolve():
    assert [name for name in safeshift.__all__ if not hasattr(safeshift, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"safeshift.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_without_scipy():
    """numpy is the only runtime dependency: no module pulls in scipy."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import safeshift\n"
        f"for m in {MODULES!r}:\n"
        "    __import__('safeshift.' + m)\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"
