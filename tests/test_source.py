import ast
from pathlib import Path

import ndsys


def test_no_assert_statements_in_the_package():
    """Invariants raise InvariantError; an assert vanishes under python -O."""
    hits = []
    for path in sorted(Path(ndsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
    assert not hits, hits
