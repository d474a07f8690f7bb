"""Package-wide checks on the source tree."""

import ast
from pathlib import Path

import gowers_forms

PACKAGE = Path(gowers_forms.__file__).parent


def test_no_assert_statements():
    # result checks must raise typed errors: `python -O` strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"
