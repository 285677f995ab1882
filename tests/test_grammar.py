"""Every source, test and tooling file parses under the Python 3.10 grammar.

The package declares requires-python >= 3.10, and CI runs the tools and
the benchmark harness on 3.10 too. This catches syntax newer than 3.10
(such as `except*`) on any interpreter; it cannot catch a
standard-library name that 3.10 lacks. Every package module also reads
each name it imports, and some package module reads each private name a
package module defines, so an import or a helper that a change leaves
unused shows. A public function or class must have a reader outside the
tests too, so product code that only tests call shows as well.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLING = sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))
FILES = sorted((ROOT / "src" / "shuttlekit").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py")
)


@pytest.mark.parametrize("path", FILES + TOOLING, ids=lambda p: str(p.relative_to(ROOT)))
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


def private_definitions(path):
    """Module-level `_name` functions, classes and constants, as name -> line."""
    defined = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def loaded_names(path):
    """Every name a module reads: a bare name or an attribute, in a Load context."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_package_reads_every_private_name_it_defines():
    package = [p for p in FILES if "src" in p.relative_to(ROOT).parts]
    read = set().union(*(loaded_names(path) for path in package))
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in package
        for name, line in private_definitions(path).items()
        if name not in read
    ]
    assert dead == []


def public_definitions(path):
    """Module-level public functions and classes, as name -> line."""
    return {
        node.name: node.lineno
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def imported_names(path):
    """Every name a module binds by import."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_every_public_definition_has_a_reader_outside_the_tests():
    """A public function or class is read by the package, re-exported, or named by tooling.

    Tooling is the benchmark harness under perfbench/ and the scripts
    under tools/; the harness's tracer names its targets in strings, so
    any word of those files counts.
    """
    package = [p for p in FILES if "src" in p.relative_to(ROOT).parts]
    read = set().union(*(loaded_names(path) for path in package))
    read |= imported_names(ROOT / "src" / "shuttlekit" / "__init__.py")
    for path in TOOLING:
        read |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in package
        for name, line in public_definitions(path).items()
        if name not in read
    ]
    assert unread == []
