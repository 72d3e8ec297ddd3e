"""Every name a library module imports is referenced somewhere in that
module.  ``__init__.py`` re-exports, so it is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ajar"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in referenced]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unused_imports(tree) == []


def test_guard_catches_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, Optional\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: Any"]
