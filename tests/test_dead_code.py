"""Every public module-level function of the package is exported or used,
and the package exports each one under its own name.

References are read off the syntax tree (names and attribute names), so
a word in a docstring or comment does not count, and neither does a
function's reference to itself.
"""

import ast
from pathlib import Path

import trilink

SRC = Path(trilink.__file__).resolve().parent
INIT = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))


def _exported() -> set[tuple[str, str]]:
    """(module, function) pairs that __init__ imports under a name in __all__."""
    return {
        (node.module, alias.name)
        for node in INIT.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in trilink.__all__
    }


def test_no_export_is_renamed():
    renamed = [
        f"{alias.name} as {alias.asname}"
        for node in INIT.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if alias.asname
    ]
    assert renamed == []


def test_every_public_function_is_exported_or_used():
    defined = []
    refs = set()  # (name, module, top-level definition it occurs in)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                defined.append((module, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, module, owner))
    exported = _exported()
    dead = [
        f"{module}.{name}" for module, name in defined
        if (module, name) not in exported
        and not any(ref == name and (where, owner) != (module, name)
                    for ref, where, owner in refs)
    ]
    assert dead == []
