"""Every source and test file parses under the Python 3.10 grammar.

The package declares requires-python >= 3.10. This catches syntax newer
than 3.10 (such as `except*`) on any interpreter; it cannot catch a
standard-library name that 3.10 lacks.
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
