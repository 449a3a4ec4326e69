"""The package exports only what its own modules or the benchmark use.

Test oracles live in ``conftest.py``, not in the library: every name that
``majdyn/__init__.py`` exports must be used in ``src/majdyn/`` or in
``perfbench/`` outside its own definition, and so must every public
method, property and dataclass field of an exported class.  Uses are read
off the source with ``ast``, so the benchmark's imports never run here.
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


def library_and_benchmark_trees() -> list[tuple[ast.AST, bool]]:
    """Each module of ``src/majdyn/`` but ``__init__.py``, then each of
    ``perfbench/``, parsed, with whether its bare names count as uses."""
    sources = [(p, True) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [(p, False) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return [(ast.parse(p.read_text(encoding="utf-8")), bare) for p, bare in sources]


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


def public_members(cls: ast.ClassDef) -> set[str]:
    """The public methods and properties of ``cls`` and, for a dataclass,
    its fields."""
    is_dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    members = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(node.name)
        elif is_dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.add(node.target.id)
    return {name for name in members if not name.startswith("_")}


def reads_member(tree: ast.AST, owner: str, member: str) -> bool:
    """Whether ``tree`` reads ``member`` outside its definition in the class
    ``owner``: as an attribute in load context, or as a string that is the
    whole name (a benchmark hook's target).  Reads go by name alone."""
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (cls, node.name) == (owner, member):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == member:
            return True
        if isinstance(node, ast.Constant) and node.value == member:
            return True
        inner = node.name if isinstance(node, ast.ClassDef) else None
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return False


def test_every_export_has_a_caller_in_the_library_or_the_benchmark():
    trees = library_and_benchmark_trees()
    unused = sorted(
        name for name in exported_names() - KEPT_WITHOUT_A_CALLER
        if not any(name in used_names(tree, name, bare) for tree, bare in trees)
    )
    assert unused == []


def test_every_member_of_an_exported_class_has_a_reader():
    exported = exported_names()
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef) and node.name in exported]
    trees = [tree for tree, _ in library_and_benchmark_trees()]
    unread = sorted(
        f"{cls.name}.{member}" for cls in classes for member in public_members(cls)
        if not any(reads_member(tree, cls.name, member) for tree in trees)
    )
    assert unread == []
