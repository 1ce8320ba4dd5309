"""networkx stays behind one call site.  It only proposes planarity
verdicts, a rotation system or "not planar", which the package checks
before it trusts them, so the package imports it exactly once, inside
invariants._rotation_system."""

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
