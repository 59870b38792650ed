"""Source checks on the library itself."""

import ast
from pathlib import Path

import supercalc

SOURCE = Path(supercalc.__file__).parent


def test_no_assert_statements():
    """Input checks must raise real exceptions: `python -O` strips asserts."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
