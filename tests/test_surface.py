"""The package exports only what its own modules or the benchmark use.

Test oracles live in ``conftest.py``, not in the library: every name that
``majdyn/__init__.py`` exports must be used in ``src/majdyn/`` or in
``perfbench/`` outside its own definition.  Uses are read off the source
with ``ast``, so the benchmark's imports never run here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "majdyn"

# graph API for building a graph by hand, kept with no caller of its own
KEPT_WITHOUT_A_CALLER = {"from_edges"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names(tree: ast.AST, skip: str | None = None, bare: bool = True) -> set[str]:
    """Names read in ``tree`` outside every function or class called
    ``skip``: as an attribute, as a string that is the whole name (a
    benchmark hook's target), and, when ``bare``, as a bare name.  The
    benchmark reaches majdyn through module attributes and has functions
    of its own, so its bare names are not counted."""
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and bare:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_export_has_a_caller_in_the_library_or_the_benchmark():
    sources = [(p, True) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [(p, False) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    trees = [(ast.parse(p.read_text(encoding="utf-8")), bare) for p, bare in sources]
    unused = sorted(
        name for name in exported_names() - KEPT_WITHOUT_A_CALLER
        if not any(name in used_names(tree, name, bare) for tree, bare in trees)
    )
    assert unused == []

