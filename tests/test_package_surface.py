"""The package keeps only what it runs: every top-level function and class
of ``src/dpa`` and every method not named ``__*__`` is used somewhere in
the package itself.  The modules are parsed, not imported, and
``__init__.py`` counts neither as a definition nor as a use, so a name that
only the public re-exports or the tests reach is flagged.  Code that only
the tests need belongs next to them, in ``tests/``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpa"

# kept on purpose, though no line of the package reads it: it regenerates
# the bundled model files (a test's failure message names it)
KEPT = {"models.write_bundled"}


def _definitions_and_uses(package):
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_package_definition_is_used_by_the_package():
    defined, used = _definitions_and_uses(PACKAGE)
    assert len(defined) > 100  # the scan found the modules
    unused = {label for label, name in defined.items() if name not in used}
    assert unused == KEPT
