"""The package root holds only its version; public names live in their modules, and each has a user."""

import ast
import importlib
import pkgutil
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import prtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(prtrack.__path__))
ROOT = Path(__file__).resolve().parent.parent


def test_package_root_exposes_its_version_and_no_function():
    assert isinstance(prtrack.__version__, str)
    exported = [
        name
        for name, value in vars(prtrack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert exported == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves_in_its_module(name):
    module = importlib.import_module(f"prtrack.{name}")
    assert module.__all__, f"prtrack.{name} lists no public names"
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == []


def test_tracker_lists_its_run_type():
    from prtrack import tracker

    assert "TrackRun" in tracker.__all__


def _public_definitions(tree: ast.Module, module: str):
    """(dotted name, node) of each public module-level function and class, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    """How often each name appears as a variable or an attribute in tree; strings are no references."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def test_every_public_definition_has_a_user():
    # Public API that no package code, acceptance criterion or README
    # example uses does not earn its lines.  Unit tests do not count as users.
    package = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "prtrack").glob("*.py"))}
    users = list(package.values())
    users.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    readme = (ROOT / "README.md").read_text()
    users += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)]
    refs = sum((_references(tree) for tree in users), Counter())
    unused = [
        name
        for module, tree in package.items()
        for name, node in _public_definitions(tree, module)
        if refs[node.name] == _references(node)[node.name]
    ]
    assert not unused, f"public definitions nothing uses: {unused}"


def _imported_names(tree: ast.Module):
    """(bound name, line) of each module-level import; __future__ imports bind nothing."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_used():
    # A cut leaves dead imports behind; a name counts as used where the
    # module reads it or lists it in __all__.
    unused = []
    for path in sorted((ROOT / "src" / "prtrack").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = importlib.import_module(f"prtrack.{path.stem}") if path.stem != "__init__" else prtrack
        read |= set(getattr(module, "__all__", ()))
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in read]
    assert not unused, f"imports nothing uses: {unused}"
