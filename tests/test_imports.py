"""Every name a profcalc module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module under
`src/profcalc` (except the package `__init__`, which re-exports) is parsed
with `ast`, and every name bound by an `import` statement must be read
somewhere in the module: as a bare name, as the root of an attribute chain,
or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "profcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                out[bound] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in _annotations(tree):
        for const in ast.walk(node):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                inner = ast.parse(const.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from typing import Callable, Iterator\n"
        "import os.path\n"
        "def f(x: 'Callable') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(mod) == ["mod.py:1: Iterator"]
