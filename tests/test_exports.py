"""Every exported name resolves, so a stale export fails here instead of in `import *`."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
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


PACKAGE_DIR = Path(safeshift.__file__).parent
PERFBENCH_DIR = Path(__file__).parents[1] / "perfbench"


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read and attributes taken in tree, outside the node skip."""
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _unused_exports() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    perfbench_words = set()
    for path in PERFBENCH_DIR.rglob("*.py"):
        perfbench_words |= set(re.findall(r"\w+", path.read_text()))
    unused = set()
    for module in MODULES:
        tree = trees[module]
        elsewhere = perfbench_words.union(*(_names_used(t) for m, t in trees.items() if m != module))
        for name in importlib.import_module(f"safeshift.{module}").__all__:
            own = next((node for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name == name), None)
            if name not in elsewhere and name not in _names_used(tree, skip=own):
                unused.add(name)
    return unused


def test_every_export_is_used_outside_its_definition():
    """A name that only tests reach is dead code: delete it."""
    assert _unused_exports() == set()
