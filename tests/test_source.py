"""Checks on the package source itself: no asserts, no reads of the
environment, a caller for every public name, a README Library example that
runs and prints what it says, and a target for every committed mutant."""
import ast
import io
import pathlib
import tokenize
from fractions import Fraction

import mutants
import qsiegel

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(qsiegel.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so correctness checks must be real raises.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_reads_no_environment():
    # Only the command line configures a run: a cache directory is trusted
    # like the package, so no exported variable may name one.
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             or isinstance(node, ast.Name) and node.id in ("environ", "getenv")]
    assert found == []


def _library_block():
    """The first python code block of the README's Library section."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_every_public_name_has_a_caller():
    # Each public name is used, as a name or an attribute, by the library, a
    # demo or the README's Library example; imports, definitions, docstrings
    # and the tests do not count.
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in sources]
    used = set()
    for node in (n for tree in trees + [ast.parse(_library_block())] for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    public = {name for names in qsiegel._PUBLIC.values() for name in names}
    assert sorted(public - used) == []


def _is_expression(text):
    try:
        ast.parse(text, mode="eval")
    except SyntaxError:
        return False
    return True


def test_readme_library_example_runs():
    # Each expression statement whose trailing comment parses as a Python
    # expression must equal it; every other statement just runs.
    block = _library_block()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    scope, checked = {"Fraction": Fraction}, 0
    for stmt in ast.parse(block).body:
        want = comments.get(stmt.end_lineno, "")
        if isinstance(stmt, ast.Expr) and _is_expression(want):
            got = eval(compile(ast.Expression(stmt.value), "<README>", "eval"), scope)
            assert got == eval(want, scope), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "<README>", "exec"), scope)
    assert checked == 5


def test_every_mutant_targets_one_place():
    # A refactor that moves a mutant's old text retires the mutant quietly;
    # tests/mutants.py applies each edit only where its text occurs once.
    assert len(mutants.MUTANTS) == len({m[0] for m in mutants.MUTANTS}) == 47
    for name, path, old, new, tests in mutants.MUTANTS:
        assert (PACKAGE / path).read_text().count(old) == 1, name
        assert old != new and tests, name
        assert all((ROOT / t).is_file() for t in tests), name
