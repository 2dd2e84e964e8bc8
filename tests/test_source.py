import ast
import sys
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


def test_the_package_imports_only_the_standard_library():
    """No runtime dependencies beyond the standard library: every import in
    the package is relative or names a standard-library module."""
    hits = []
    for path in sorted(Path(ndsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not hits, hits
