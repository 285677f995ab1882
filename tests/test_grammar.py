"""Every source and test file parses under the Python 3.10 grammar.

The package declares requires-python >= 3.10. This catches syntax newer
than 3.10 (such as `except*`) on any interpreter; it cannot catch a
standard-library name that 3.10 lacks. Every package module also reads
each name it imports, so an import that a change leaves unused shows.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "shuttlekit").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py")
)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_covers_the_package_and_the_tests():
    names = {p.name for p in FILES}
    assert {"baseline.py", "test_grammar.py"} <= names


def unused_imports(path):
    """Names a module imports and never reads, as `file:line name` strings.

    `from __future__` imports are directives, not names. A package's
    `__init__.py` re-exports what it imports from its own submodules, so
    only its other imports are checked there.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reexports = path.name == "__init__.py"
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level > 0):
                continue
        elif not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in read]


def test_package_modules_use_every_name_they_import():
    package = [p for p in FILES if "src" in p.relative_to(ROOT).parts]
    assert [entry for path in package for entry in unused_imports(path)] == []
