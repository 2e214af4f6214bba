"""Every import in the source, test and demo trees is used by its module.

``src/qimpute/__init__.py`` is exempt: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("src", "tests", "demos")
    for path in (ROOT / tree).rglob("*.py")
    if path != ROOT / "src" / "qimpute" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, List\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Any"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
