"""Packaging checks: declared dependencies, script entry points, ``__all__`` and input checks."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noonchip"
PERFBENCH = ROOT / "perfbench"

# Public names that nothing in src/ or perfbench/ reads yet, each with the reason it stays.
UNREAD_PUBLIC_NAMES = {
    "circuit.circuit_to_json": "ROADMAP item 4's run report writes its config's netlist",
    "circuit.circuit_from_json": "item 4 reads a report's netlist back to rerun its config",
    "detection.LossSpec": "item 4's brightness round trip passes the pair rate through it",
    "detection.loss_budget": "item 4 recovers the configured brightness with it",
    "sources.pair_rate": "item 4 turns brightness and pump power into the pair rate",
    "fock.enumerate_sectors": "the multi-sector basis that DensityMatrix requires after loss",
}


def project_table() -> dict:
    """The [project] table of pyproject.toml; skips the calling test without tomllib."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def declared_dependencies() -> set[str]:
    project = project_table()
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
        for path in PACKAGE.glob("*.py")
        for name in imported_top_level_names(path)
        if name not in sys.stdlib_module_names and name != "noonchip" and name not in declared
    )
    assert undeclared == []


def test_project_scripts_name_functions_defined_in_the_package():
    scripts = project_table().get("scripts", {})
    for command, target in scripts.items():
        module, _, function = target.partition(":")
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        assert path.is_relative_to(PACKAGE) and path.is_file(), f"{command}: no file for {module}"
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert function in defined, f"{command}: {module} defines no function {function}"


@pytest.mark.parametrize(
    "module", ["noonchip"] + sorted(f"noonchip.{p.stem}" for p in PACKAGE.glob("[!_]*.py"))
)
def test_every_name_in_all_is_bound(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def calls_math_isfinite(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "isfinite":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "isfinite" for alias in node.names):
                return True
    return False


def test_only_fock_checks_scalars_with_math_isfinite():
    # Scalar inputs go through fock's shared checks; the others must not test them by hand.
    offenders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "fock.py" and calls_math_isfinite(path)
    )
    assert offenders == []


def module_definitions(tree: ast.Module):
    """(name, node) for each name a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree: ast.Module):
    """(name, node) for each private name (``_x``, not dunder) a module defines at top level."""
    for name, node in module_definitions(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, node


def name_reads(tree: ast.AST):
    """(name, node) for every name read and every attribute named under `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def read_outside(name: str, definition: ast.AST | None, reads) -> bool:
    inside = {id(node) for node in ast.walk(definition)} if definition else set()
    return any(read == name and id(node) not in inside for read, node in reads)


def test_every_private_module_name_is_used_in_the_package():
    # Delete what nothing uses: a module-level _name must be read somewhere in src/ other
    # than inside its own definition.
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    reads = [(name, node) for tree in trees for name, node in name_reads(tree)]
    unused = []
    for path, tree in zip(paths, trees):
        for name, definition in private_definitions(tree):
            if not read_outside(name, definition, reads):
                unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_public_name_is_read_in_the_package_or_the_benchmark():
    # Delete what nothing uses: a name in a module's __all__ must be read somewhere in src/
    # or perfbench/ other than inside its own definition, or be listed with its reason.
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    readers = list(trees.values()) + [
        ast.parse(path.read_text(), filename=str(path)) for path in sorted(PERFBENCH.glob("*.py"))
    ]
    reads = [(name, node) for tree in readers for name, node in name_reads(tree)]
    unread = []
    for path, tree in trees.items():
        module = "noonchip" if path.stem == "__init__" else f"noonchip.{path.stem}"
        definitions = dict(module_definitions(tree))
        for name in importlib.import_module(module).__all__:
            if not read_outside(name, definitions.get(name), reads):
                unread.append(f"{path.stem}.{name}")
    # A listed name that gains a reader leaves the list.
    assert sorted(unread) == sorted(UNREAD_PUBLIC_NAMES)
