"""Every name a profcalc module imports is used in that module, every
import of a sibling module sits at module level, and no module asserts.

A stdlib-only stand-in for a linter's unused-import rule: each module under
`src/profcalc` (except the package `__init__`, which re-exports) is parsed
with `ast`, and every name bound by an `import` statement must be read
somewhere in the module: as a bare name, as the root of an attribute chain,
or inside a string annotation.  A relative import inside a function is
flagged too: the module graph (fincat <- colim <- presheaf <- prof <- relpsm,
symmon; presheaf <- day; seeds needs only fincat) has no cycle to break.
An `assert` statement anywhere in `src/profcalc` is flagged: `python -O`
strips them, and every check must survive it as a report item or a raised
error.
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


def local_relative_imports(path: Path) -> list[str]:
    """Every relative import inside a function body, nested functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {
        node.lineno: f"from {'.' * node.level}{node.module or ''}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    return [f"{path.name}:{line}: {text}" for line, text in sorted(found.items())]


def assert_statements(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))
    return [f"{path.name}:{line}: assert" for line in lines]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_relative_imports_inside_functions(path):
    assert local_relative_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.stem)
def test_no_assert_statements(path):
    assert assert_statements(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from typing import Callable, Iterator\n"
        "import os.path\n"
        "def f(x: 'Callable') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(mod) == ["mod.py:1: Iterator"]


def test_scan_flags_a_relative_import_inside_a_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .fincat import FinSet\n"
        "import json\n"
        "def f():\n"
        "    import os\n"
        "    def g():\n"
        "        from .colim import coend\n"
        "        return coend, os, json, FinSet\n"
        "    return g\n"
    )
    assert local_relative_imports(mod) == ["mod.py:6: from .colim"]


def test_scan_flags_an_assert(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return [y for y in x if y]\n"
        "assert f\n"
    )
    assert assert_statements(mod) == ["mod.py:3: assert", "mod.py:5: assert"]
