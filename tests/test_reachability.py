"""Every top-level function and class in `src/profcalc`, and every method of
such a class, serves the engine or is declared public, and nothing declared
public is already served.

A stdlib-only stand-in for a dead-code linter.  Each module under
`src/profcalc` (except the package `__init__`, which holds `PUBLIC`) is parsed
with `ast`.  A name read in a module resolves to that module's own top-level
binding, to the sibling definition it imports (`from .colim import coend`), or,
as `serialize.loads`, to a definition of a sibling module it imports whole
(`from . import serialize`).  Methods are reached by attribute: reading
`.name` anywhere reaches every method called name, whatever its class, and a
class reaches its dunder methods, which Python calls on its own.  The
engine's roots are every module's top-level code outside its `def` and
`class` bodies, and `cli.main`; a definition is reached when a chain of such
reads leads to it from a root.  The definitions the roots do not reach must
be exactly those reached only from `PUBLIC`, the declared dotted names of
`profcalc/__init__.py`, and no `PUBLIC` name may be reached from the roots,
so the list cannot go stale.
"""

import ast
import importlib
from pathlib import Path

import profcalc

SRC = Path(__file__).resolve().parent.parent / "src" / "profcalc"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_graph(src: Path):
    """(definitions, roots, edges) of the package at src, each name dotted as
    `module.name` (`module.Class.method` for a method): every top-level
    function and class and every method, the names the engine's roots read,
    and the names each definition's body reads.  A read of attribute `name`
    is the name `.name`, which leads to every method called name."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(src.glob("*.py"))}
    trees.pop("__init__", None)
    definitions, roots, edges = set(), {"cli.main"}, {}
    for module, tree in trees.items():
        bound, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in tree.body:
            names = [node.name] if isinstance(node, DEFINITIONS) else [
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
            bound.update((name, f"{module}.{name}") for name in names)

        def reads(*nodes):
            for n in (n for node in nodes for n in ast.walk(node)):
                if isinstance(n, ast.Name) and n.id in bound:
                    yield bound[n.id]
                elif isinstance(n, ast.Attribute):
                    if isinstance(n.value, ast.Name) and n.value.id in modules:
                        yield f"{modules[n.value.id]}.{n.attr}"
                    if isinstance(n.ctx, ast.Load):
                        yield f".{n.attr}"

        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                roots.update(reads(node))
                continue
            name = f"{module}.{node.name}"
            definitions.add(name)
            if not isinstance(node, ast.ClassDef):
                edges[name] = set(reads(node))
                continue
            methods = [m for m in node.body if isinstance(m, DEFINITIONS)]
            edges[name] = set(reads(*node.bases, *node.decorator_list, *(n for n in node.body if n not in methods)))
            for method in methods:
                dotted = f"{name}.{method.name}"
                definitions.add(dotted)
                edges[dotted] = set(reads(method))
                edges.setdefault(f".{method.name}", set()).add(dotted)
                if method.name.startswith("__") and method.name.endswith("__"):
                    edges[name].add(dotted)
    return definitions, roots, edges


def _closure(edges, start) -> set[str]:
    seen, todo = set(), list(start)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges.get(name, ()))
    return seen


def reachability_faults(src: Path, public) -> tuple[list[str], list[str]]:
    """(definitions that neither the engine nor `public` reaches, `public`
    names that the engine reaches)."""
    definitions, roots, edges = _read_graph(src)
    engine = _closure(edges, roots)
    stray = definitions - engine - _closure(edges, public)
    return sorted(stray), [name for name in public if name in engine]


def test_every_definition_serves_the_engine_or_is_public():
    stray, served = reachability_faults(SRC, profcalc.PUBLIC)
    assert stray == []
    assert served == []


def test_public_names_are_top_level_definitions():
    definitions, _, _ = _read_graph(SRC)
    assert len(set(profcalc.PUBLIC)) == len(profcalc.PUBLIC)
    for name in profcalc.PUBLIC:
        module, _, attr = name.partition(".")
        assert name in definitions
        assert callable(getattr(importlib.import_module(f"profcalc.{module}"), attr))


def _package(tmp_path, **modules):
    for name, text in modules.items():
        (tmp_path / f"{name}.py").write_text(text)
    return tmp_path


def test_scan_follows_imports_module_attributes_and_top_level_code(tmp_path):
    src = _package(
        tmp_path,
        __init__="PUBLIC = ()\n",
        core=(
            "from .util import helper as h\n"
            "def used():\n    return h()\n"
            "def by_table():\n    return 1\n"
            "TABLE = {'k': by_table}\n"
            "class Thing:\n    def method(self):\n        return nested()\n"
            "def nested():\n    return 2\n"
        ),
        util="def helper():\n    return 0\n",
        cli=(
            "from . import core\n"
            "def main():\n    return core.used(), core.Thing().method()\n"
        ),
    )
    assert reachability_faults(src, ()) == ([], [])


def test_scan_flags_a_method_only_a_test_calls_and_reaches_dunders(tmp_path):
    src = _package(
        tmp_path,
        core=(
            "class Thing:\n"
            "    def __len__(self):\n        return helper()\n"
            "    def used(self):\n        return 1\n"
            "    def only_tested(self):\n        return 2\n"
            "def helper():\n    return 0\n"
        ),
        cli="from .core import Thing\ndef main():\n    return len(Thing()) + Thing().used()\n",
    )
    assert reachability_faults(src, ()) == (["core.Thing.only_tested"], [])


def test_scan_flags_a_definition_only_a_test_calls(tmp_path):
    src = _package(
        tmp_path,
        core="def used():\n    return 1\ndef only_tested():\n    return used()\n",
        cli="from .core import used\ndef main():\n    return used()\n",
    )
    assert reachability_faults(src, ()) == (["core.only_tested"], [])
    assert reachability_faults(src, ("core.only_tested",)) == ([], [])


def test_scan_flags_a_public_name_the_engine_reaches(tmp_path):
    src = _package(
        tmp_path,
        core="def used():\n    return 1\n",
        cli="from .core import used\ndef main():\n    return used()\n",
    )
    assert reachability_faults(src, ("core.used",)) == ([], ["core.used"])
