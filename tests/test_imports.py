"""Imports between the package's modules: no private names, none unused."""

import ast
from pathlib import Path

import pytest

import adspectral

MODULES = sorted(Path(adspectral.__file__).parent.glob("*.py"))

# (importing module, imported module, name) for every relative import of a
# name with a leading underscore. A new one is added here on purpose.
CROSSINGS = set()


def test_private_imports_between_modules_are_pinned():
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, node.module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_"))
    assert found == CROSSINGS


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export; every other module imports to use.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()
