"""Private names that one module of the package imports from another."""

import ast
from pathlib import Path

import adspectral

# (importing module, imported module, name) for every relative import of a
# name with a leading underscore. A new one is added here on purpose.
CROSSINGS = {
    ("analysis", "solver", "_initial_spectrum"),
    ("analysis", "solver", "_unit_solve"),
    ("semianalytic", "solver", "_initial_spectrum"),
    ("semianalytic", "solver", "_times_in_horizon"),
}


def test_private_imports_between_modules_are_pinned():
    found = set()
    for path in Path(adspectral.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, node.module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_"))
    assert found == CROSSINGS
