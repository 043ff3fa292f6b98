#!/usr/bin/env python3
"""Fail when package code is named only at its definition, a setting is
set nowhere, or a test file imports a name it never uses.

Lists every function, class and method defined in ``src/rummage`` and
looks for its name in the Python files under ``src/``, ``scripts/`` and
``loopbench/``: as a name, an attribute, an imported name, or a string
that is exactly the name (``getattr``-style lookups).  The tests are not
searched, so a definition that only tests call is reported.  Dunder
methods are called by Python itself and are not checked.  Names are
matched as identifiers, not resolved, so a name used for two things
counts as used for both.

A setting is a dataclass field of ``src/rummage`` that is an
``__init__`` parameter with a default, or a parameter with a default of a
function or method defined there.  One rule holds for both: a setting
that nothing sets has one value in use, so it is a constant held as a
setting, and it is reported, whoever reads it.  Setters are searched in
the Python files under ``src/``, ``scripts/``, ``loopbench/`` and
``tests/``:

- A call to a function's name passes a parameter by keyword or by
  position (a method's ``self`` or ``cls`` takes no place), and a ``*`` or
  ``**`` argument passes every parameter.  A keyword counts only for the
  function called: ``f(scale=...)`` does not pass ``g``'s ``scale``.
  A call to a class's name calls the ``__init__`` the class defines.
- A dataclass field is set by a positional argument, at its place, of a
  call to its class's name; by a keyword argument of any call
  (``replace(...)`` included); by a string key of a dict literal or a
  subscript; or by a key, at any depth, of ``scenarios/*.json``.  A
  splat into a dataclass sets the keys its dict was built with, which
  those rules already see, so it sets nothing more.

A name a module under ``tests/`` imports is used when the module reads
it as a name anywhere (an attribute chain starts with one); ``__future__``
imports bind nothing to read.

    python scripts/check_test_only.py

Exits 1 and prints ``path:line: name`` for each unused definition,
``path:line: Class.field`` for each unset field,
``path:line: function(parameter)`` for each unset default and
``path:line: name`` for each unused test import, 0 when there is none.
"""

from __future__ import annotations

import ast
import json
import sys
from collections import defaultdict
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)


def _init_fields(node: ast.ClassDef):
    """``(field, has default, line)`` of a dataclass's ``__init__``
    parameters, in order."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value, default = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and _called_name(value.func) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = "default" in kw or "default_factory" in kw
        yield stmt.target.id, default, stmt.lineno


def _parameters(node: ast.FunctionDef, method: bool):
    """A function's positional parameters, in order and without a method's
    ``self``/``cls``, and ``(parameter, line)`` of each one with a
    default."""
    a = node.args
    positional = a.posonlyargs + a.args
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    static = any(_called_name(d) == "staticmethod" for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    return [p.arg for p in positional], [(p.arg, p.lineno) for p in defaulted]


def settings(tree: ast.AST):
    """``(callee, positional parameters, name, setting, line, is field)``
    of every setting defined in a module: each dataclass field that is an
    ``__init__`` parameter with a default and each defaulted parameter of
    a function or method.  ``callee`` is the name a call to it is made by."""

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node) and not any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body
                ):
                    fields = list(_init_fields(node))
                    order = [f for f, _, _ in fields]
                    for f, default, line in fields:
                        if default:
                            yield node.name, order, f"{node.name}.{f}", f, line, True
                yield from visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _parameters(node, cls is not None)
                callee = cls.name if cls is not None and node.name == "__init__" else node.name
                qualname = node.name if cls is None else f"{cls.name}.{node.name}"
                for p, line in defaulted:
                    yield callee, positional, f"{qualname}({p})", p, line, False
                yield from visit(node.body, None)

    yield from visit(tree.body, None)


def _leading(call: ast.Call) -> int:
    """The number of positional arguments before a call's first ``*``."""
    return next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))


def passes(call: ast.Call, positional: list[str], parameter: str) -> bool:
    """Whether a call to a function passes a parameter: by position, by
    keyword, or through a ``*`` or ``**`` splat."""
    if _leading(call) < len(call.args) or any(k.arg is None for k in call.keywords):
        return True
    return parameter in positional[:len(call.args)] or any(k.arg == parameter for k in call.keywords)


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
    by_callee: dict[str, list[ast.Call]] = defaultdict(list)
    keyed = set().union(*(json_keys(json.loads(p.read_text())) for p in sorted((root / "scenarios").glob("*.json"))))
    for _, tree in _parse(root, SETTERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                by_callee[_called_name(node.func)].append(node)
        keyed |= names_set(tree)
    out = []
    for path, tree in _parse(root, ("src/rummage",)):
        for callee, positional, name, setting, line, is_field in sorted(settings(tree), key=lambda s: s[4]):
            if is_field:
                done = setting in keyed or any(setting in positional[:_leading(c)] for c in by_callee[callee])
            else:
                done = any(passes(c, positional, setting) for c in by_callee[callee])
            if not done:
                out.append(f"{path.relative_to(root)}:{line}: {name}")
    return out


def unused_imports(root: Path = ROOT) -> list[str]:
    """``path:line: name`` of every name a test module imports and never
    reads."""
    out = []
    for path, tree in _parse(root, ("tests",)):
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        ]
        for node in sorted(imports, key=lambda n: n.lineno):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in read:
                    out.append(f"{path.relative_to(root)}:{node.lineno}: {bound}")
    return out


def main() -> int:
    found, loose, imported = unused(), unset(), unused_imports()
    for line in found + loose + imported:
        print(line)
    if found:
        print(f"{len(found)} definition(s) in src/rummage named nowhere in {', '.join(SEARCHED)}", file=sys.stderr)
    if loose:
        print(f"{len(loose)} setting(s) in src/rummage set nowhere in {', '.join(SETTERS)} or scenarios", file=sys.stderr)
    if imported:
        print(f"{len(imported)} name(s) imported in tests and never used", file=sys.stderr)
    return 1 if found or loose or imported else 0


if __name__ == "__main__":
    sys.exit(main())
