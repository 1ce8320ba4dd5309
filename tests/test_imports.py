"""Rules on the package source, read from its syntax trees.

networkx stays behind one call site.  It only proposes planarity
verdicts, a rotation system or "not planar", which the package checks
before it trusts them, so the package imports it exactly once, inside
invariants._rotation_system.  No check is an assert statement, which
python -O would strip."""

from __future__ import annotations

import ast
from pathlib import Path

import cyclepack

SRC = Path(cyclepack.__file__).parent


def networkx_imports(node: ast.AST, where: str):
    """Dotted scope (module.function...) of every networkx import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] == "networkx":
                yield where
        scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from networkx_imports(child, f"{where}.{child.name}" if scoped else where)


def test_networkx_is_imported_once_inside_the_rotation_verifier():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        sites += networkx_imports(ast.parse(path.read_text()), module)
    assert sites == ["invariants._rotation_system"]


def test_no_module_checks_with_assert():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sites == []


def package_imports(path: Path) -> set[str]:
    """Package modules a module imports, as names relative to the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyclepack"):
            names.add(node.module.removeprefix("cyclepack").lstrip(".") or "cyclepack")
        elif isinstance(node, ast.Import):
            names.update(a.name.removeprefix("cyclepack.") for a in node.names if a.name.startswith("cyclepack"))
    return names


def test_embedding_depends_on_graph_alone():
    # validating a packing and assembling its sum need no invariant: the
    # isomorphism test is canonical_form equality, made by the callers
    assert package_imports(SRC / "embedding.py") == {"graph"}
