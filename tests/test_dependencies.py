"""The package runs on the Python standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spikesev").glob("*.py"))


def _imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = [
        name for name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != "numpy"
    ]
    assert foreign == [], f"{path.name} imports {foreign}"
