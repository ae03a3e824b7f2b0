"""Properties of the source tree itself."""
import ast
from pathlib import Path

import ftop

SRC = Path(ftop.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; an invariant check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
