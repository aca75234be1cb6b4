"""Every name a module of the package imports is used in it or exported
through its ``__all__``: a deletion that leaves an import behind fails
here, as no linter runs on the package.  And no function imports from a
module that its own module already imports from at top level; such an
import breaks no cycle, so it belongs at the top.  The two imports
inside functions that do break a cycle are ``quadratic.diagonalize_gram``
-> ``algebras`` and ``splitting.find_certificate`` -> ``signatures``."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hermstab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports, ``from __future__``
    aside, that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def late_imports(source: str) -> list[str]:
    """The imports inside functions from a module that the module also
    imports from at top level."""
    tree = ast.parse(source)

    def origin(node):
        if isinstance(node, ast.ImportFrom):
            return ("." * node.level + (node.module or ""),)
        return tuple(alias.name for alias in node.names)

    imports = (ast.Import, ast.ImportFrom)
    top = {m for node in tree.body if isinstance(node, imports) for m in origin(node)}
    return [
        f"{m} (line {node.lineno})"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, imports)
        for m in origin(node)
        if m in top
    ]


def test_guard_finds_a_late_import():
    source = (
        "from .a import x\nimport os\n"
        "def f():\n    from .a import y\n    import os\n    from .b import z\n"
    )
    assert late_imports(source) == [".a (line 4)", "os (line 5)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_late_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert late_imports(source) == []


def test_guard_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["os (line 1)", "dumps (line 2)"]
    assert unused_imports(source + "os.sep\ndumps\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
