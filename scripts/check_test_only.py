#!/usr/bin/env python3
"""Fail when package code is named only at its definition.

Lists every function, class and method defined in ``src/rummage`` and
looks for its name in the Python files under ``src/``, ``scripts/`` and
``loopbench/``: as a name, an attribute, an imported name, or a string
that is exactly the name (``getattr``-style lookups).  The tests are not
searched, so a definition that only tests call is reported.  Dunder
methods are called by Python itself and are not checked.  Names are
matched as identifiers, not resolved, so a name used for two things
counts as used for both.

    python scripts/check_test_only.py

Exits 1 and prints ``path:line: name`` for each unused definition, 0 when
there is none.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "scripts", "loopbench")


def definitions(tree: ast.AST):
    """``(name, line)`` of every function, class and method in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def unused(root: Path = ROOT) -> list[str]:
    used: set[str] = set()
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            used |= names_used(ast.parse(path.read_text(), str(path)))
    out = []
    for path in sorted((root / "src" / "rummage").rglob("*.py")):
        for name, line in sorted(definitions(ast.parse(path.read_text(), str(path))), key=lambda d: d[1]):
            if not (name.startswith("__") and name.endswith("__")) and name not in used:
                out.append(f"{path.relative_to(root)}:{line}: {name}")
    return out


def main() -> int:
    found = unused()
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} definition(s) in src/rummage named nowhere in {', '.join(SEARCHED)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
