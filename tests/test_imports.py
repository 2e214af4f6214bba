"""Every import in the source, test, demo and tool trees is used by its
module, and no module binds an imported name a second time.

``src/qimpute/__init__.py`` is exempt: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("src", "tests", "demos", "tools")
    for path in (ROOT / tree).rglob("*.py")
    if path != ROOT / "src" / "qimpute" / "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line of that statement."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def shadowed_imports(source: str) -> list[str]:
    """The places a module binds an imported name again, in line order.

    A binding is an assignment, a loop, ``with`` or ``except`` target, a
    function argument or a def. A class-body field or method is an
    attribute of the class, not a binding of the module's name.
    """
    tree = ast.parse(source)
    imported = imported_names(tree)
    attributes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                attributes.add(id(stmt))
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    for target in getattr(stmt, "targets", [getattr(stmt, "target", None)]):
                        attributes.update(id(n) for n in ast.walk(target))
    shadows = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.ExceptHandler, ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in imported and id(node) not in attributes:
            shadows.add((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(shadows)]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, List\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Any"]


def test_shadowed_imports_are_found():
    # A loop variable named like an unused import hid it from unused_imports.
    source = (
        "from dataclasses import field\n"
        "def load(rows):\n"
        "    for name, field in rows:\n"
        "        print(name, field)\n"
    )
    assert unused_imports(source) == []
    assert shadowed_imports(source) == ["line 3: field"]
    source = (
        "import json\nimport os\nimport re\nimport sys\nimport csv\nimport io\n"
        "json = 1\n"
        "with open('f') as os:\n    pass\n"
        "try:\n    pass\nexcept ValueError as re:\n    pass\n"
        "def f(sys, *csv):\n    return [io for io in sys]\n"
        "def io():\n    pass\n"
    )
    assert shadowed_imports(source) == [
        "line 7: json", "line 8: os", "line 12: re", "line 14: csv", "line 14: sys",
        "line 15: io", "line 16: io",
    ]


def test_class_fields_and_methods_do_not_shadow():
    source = (
        "from .training import train\n"
        "class Config:\n"
        "    train: int = 0\n"
        "    def train(self):\n"
        "        return train\n"
    )
    assert shadowed_imports(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_binds_no_imported_name(module):
    assert shadowed_imports((ROOT / module).read_text(encoding="utf-8")) == []
