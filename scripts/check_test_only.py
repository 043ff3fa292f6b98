#!/usr/bin/env python3
"""Fail when package code is named only at its definition, or a setting
is set nowhere.

Lists every function, class and method defined in ``src/rummage`` and
looks for its name in the Python files under ``src/``, ``scripts/`` and
``loopbench/``: as a name, an attribute, an imported name, or a string
that is exactly the name (``getattr``-style lookups).  The tests are not
searched, so a definition that only tests call is reported.  Dunder
methods are called by Python itself and are not checked.  Names are
matched as identifiers, not resolved, so a name used for two things
counts as used for both.

Lists every dataclass field of ``src/rummage`` that is an ``__init__``
parameter with a default, and reports it when nothing sets it and nothing
outside its own module names it.  A field is set by a keyword argument of
any call (``replace(...)`` included) or a string key of a dict literal or
a subscript, in the Python files under ``src/``, ``scripts/``,
``loopbench/`` and ``tests/``, or by a key, at any depth, of
``scenarios/*.json``.  A field that another module, a script or a test
names in any way, even only to read it, is part of an interface and is
not reported.  A reported field is a constant held as a setting.

    python scripts/check_test_only.py

Exits 1 and prints ``path:line: name`` for each unused definition and
``path:line: Class.field`` for each unset field, 0 when there is none.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "scripts", "loopbench")
SETTERS = ("src", "scripts", "loopbench", "tests")


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


def _parse(root: Path, tops) -> list[tuple[Path, ast.AST]]:
    return [
        (path, ast.parse(path.read_text(), str(path)))
        for top in tops
        for path in sorted((root / top).rglob("*.py"))
    ]


def unused(root: Path = ROOT) -> list[str]:
    used: set[str] = set()
    for _, tree in _parse(root, SEARCHED):
        used |= names_used(tree)
    out = []
    for path, tree in _parse(root, ("src/rummage",)):
        for name, line in sorted(definitions(tree), key=lambda d: d[1]):
            if not (name.startswith("__") and name.endswith("__")) and name not in used:
                out.append(f"{path.relative_to(root)}:{line}: {name}")
    return out


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def settings(tree: ast.AST):
    """``(class, field, line)`` of every dataclass field in a module that
    is an ``__init__`` parameter with a default."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.value):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and _called_name(value.func) == "field":
                kw = {k.arg: k.value for k in value.keywords}
                init = kw.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                if "default" not in kw and "default_factory" not in kw:
                    continue
            yield node.name, stmt.target.id, stmt.lineno


def names_set(tree: ast.AST) -> set[str]:
    """Keyword arguments, and string keys of dict literals and subscripts."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            named.update(k.arg for k in node.keywords if k.arg)
        keys = node.keys if isinstance(node, ast.Dict) else [node.slice] if isinstance(node, ast.Subscript) else []
        named.update(k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return named


def json_keys(data) -> set[str]:
    if isinstance(data, dict):
        return set(data).union(*(json_keys(v) for v in data.values()))
    if isinstance(data, list):
        return set().union(*(json_keys(v) for v in data))
    return set()


def unset(root: Path = ROOT) -> list[str]:
    sets, mentions = {}, {}
    for path, tree in _parse(root, SETTERS):
        sets[path] = names_set(tree)
        mentions[path] = sets[path] | names_used(tree)
    scenario_keys = set().union(*(json_keys(json.loads(p.read_text())) for p in sorted((root / "scenarios").glob("*.json"))))
    out = []
    for path, tree in _parse(root, ("src/rummage",)):
        named = scenario_keys.union(sets[path], *(m for other, m in mentions.items() if other != path))
        out += [f"{path.relative_to(root)}:{line}: {cls}.{name}" for cls, name, line in settings(tree) if name not in named]
    return out


def main() -> int:
    found, fields = unused(), unset()
    for line in found + fields:
        print(line)
    if found:
        print(f"{len(found)} definition(s) in src/rummage named nowhere in {', '.join(SEARCHED)}", file=sys.stderr)
    if fields:
        print(f"{len(fields)} dataclass field(s) in src/rummage set nowhere and named only in their own module", file=sys.stderr)
    return 1 if found or fields else 0


if __name__ == "__main__":
    sys.exit(main())
