import ast
from pathlib import Path

import hurwitz


def test_library_has_no_assert_statements():
    # `assert` vanishes under `python -O`; invariants raise AssertionError
    # explicitly instead
    package = Path(hurwitz.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
