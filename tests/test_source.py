"""Checks on the package source itself."""
import ast
import pathlib

import qsiegel


def test_no_assert_statements():
    # `python -O` strips asserts, so correctness checks must be real raises.
    files = sorted(pathlib.Path(qsiegel.__file__).parent.glob("*.py"))
    assert files
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
