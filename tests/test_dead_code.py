"""Every public module-level function of the package is exported or used,
and the package exports each one under its own name.

References are read off the syntax tree (names and attribute names), so
a word in a docstring or comment does not count, and neither does a
function's reference to itself.  Imports between the package's modules
are read the same way: the Seifert layer takes nothing from the
infection layer, and private names cross modules only from _record or
where the design shares one (the slot helper and the degree-2 read).
No public function takes an rng, and only the CLI imports random.  No
public function is an alias: a body that only forwards its parameters to
another public function is that function under a second name.
"""

import ast
import importlib
import inspect
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


def _sibling_imports() -> list[tuple[str, str, str | None]]:
    """(module, sibling it imports, name taken from it or None) for each
    import of the package's own modules, read off the syntax tree."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.stem, alias.name.split(".")[1], None)
                          for alias in node.names if alias.name.startswith("trilink.")]
            elif isinstance(node, ast.ImportFrom):
                source = ".".join(filter(None, ["trilink" if node.level else "", node.module]))
                if source == "trilink":  # from . import a, b
                    found += [(path.stem, alias.name, None) for alias in node.names]
                elif source.startswith("trilink."):
                    found += [(path.stem, source.split(".")[1], alias.name)
                              for alias in node.names]
    return found


def test_seifert_imports_nothing_from_infection():
    # the Seifert layer sits below the infection layer
    assert [i for i in _sibling_imports() if i[:2] == ("seifert", "infection")] == []


def test_private_names_cross_modules_only_from_record_or_by_design():
    shared = {("intlinalg", "_Slots"), ("magnus", "_commutator_degree_two")}
    crossing = [
        f"{module}: from {sibling} import {name}"
        for module, sibling, name in _sibling_imports()
        if name and name.startswith("_") and sibling != "_record"
        and (sibling, name) not in shared
    ]
    assert crossing == []


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


def test_functions_the_benchmark_tracer_names_are_public():
    # perfbench/tracer.py wraps the public functions each module defines,
    # then looks these two up by name in every traced run
    for module, name in (("seifert", "enumerate_metabolizers"), ("intlinalg", "snf")):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert name in {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
        fn = getattr(importlib.import_module(f"trilink.{module}"), name)
        assert inspect.isfunction(fn) and fn.__module__ == f"trilink.{module}"


def _trees():
    """(module, syntax tree) for each module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_no_public_function_takes_an_rng():
    # each operation is a function of its inputs; a seeded self-check varies the inputs
    takes_rng = [
        f"{module}.{node.name}"
        for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(a, ast.arg) and a.arg == "rng" for a in ast.walk(node.args))
    ]
    assert takes_rng == []


def test_only_the_cli_imports_random():
    importers = {
        module
        for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level
        and node.module.split(".")[0] == "random"
    }
    assert importers == {"cli"}


# seifert.is_metabolizer stays until the benchmark stops naming it: perfbench's
# tracer reports seifert.is_metabolizer.calls and .self_s (ROADMAP item 14)
ALIASES_KEPT = {"seifert.is_metabolizer"}


def _is_alias(fn: ast.FunctionDef, public: set[str]) -> bool:
    """True if fn's body (after its docstring) is one return of a call to
    another public function of the package, perhaps followed by one
    attribute read, on fn's parameters or their attributes."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if isinstance(call, ast.Attribute):
        call = call.value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in public and call.func.id != fn.name):
        return False
    params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}

    def of_a_parameter(node) -> bool:
        if isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in params

    arguments = call.args + [k.value for k in call.keywords]
    return all(map(of_a_parameter, arguments))


def test_no_public_function_is_an_alias():
    functions = [(module, top) for module, tree in _trees() for top in tree.body
                 if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")]
    public = {fn.name for _, fn in functions}
    aliases = [f"{module}.{fn.name}" for module, fn in functions
               if _is_alias(fn, public)]
    assert sorted(set(aliases) - ALIASES_KEPT) == []
    assert ALIASES_KEPT <= set(aliases)  # drop a name here once its alias is gone
