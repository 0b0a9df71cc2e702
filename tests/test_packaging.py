"""The package imports no third-party module that pyproject.toml does not declare."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        # "numpy>=2.0" -> "numpy"; import names use "_" where distributions use "-".
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group()
        names.add(name.lower().replace("-", "_"))
    return names


def imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    declared = declared_dependencies()
    undeclared = sorted(
        f"{path.name}: {name}"
        for path in (ROOT / "src" / "noonchip").glob("*.py")
        for name in imported_top_level_names(path)
        if name not in sys.stdlib_module_names and name != "noonchip" and name not in declared
    )
    assert undeclared == []
