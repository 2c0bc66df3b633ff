"""Each condition of the suite is declared once, in `bitime.suite.CONDITIONS`.

A string literal that names a condition, such as "(7.1)", "(26)" or
"(K-equation)", appears in `src/bitime/` only inside the `CONDITIONS`
assignment; the stream, the report, the tolerances and the CSV columns read
the name from its row.  Docstrings are exempt: they cite the equations the
code discretises.
"""

import ast
import re
from pathlib import Path

from bitime.suite import CONDITIONS

SRC = Path(__file__).resolve().parent.parent / "src" / "bitime"
# a parenthesised equation number, as in (7.1), (6.R) or (26), or the K-equation
CONDITION_NAME = re.compile(r"\((\d+(\.\w+)?|K-equation)\)")


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _tables(tree: ast.Module) -> list[ast.Assign]:
    """The module-level assignments to `CONDITIONS`."""
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "CONDITIONS" for t in node.targets)]


def _names_outside_tables(path: Path) -> list[tuple[str, int, str]]:
    """(file, line, literal) of each non-docstring literal outside the table naming a condition."""
    tree = ast.parse(path.read_text(), path.name)
    exempt = _docstrings(tree) | {id(node) for table in _tables(tree) for node in ast.walk(table)}
    return [(path.name, node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in exempt and CONDITION_NAME.search(node.value)]


def test_sources_found():
    assert (SRC / "suite.py").exists() and (SRC / "cli.py").exists()


def test_one_table_in_suite():
    tables = {path.name: len(_tables(ast.parse(path.read_text(), path.name)))
              for path in sorted(SRC.glob("*.py"))}
    assert {name for name, n in tables.items() if n} == {"suite.py"}
    assert tables["suite.py"] == 1


def test_the_pattern_covers_every_row():
    names = [condition.name for condition in CONDITIONS]
    assert all(CONDITION_NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)


def test_no_condition_name_outside_the_table():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _names_outside_tables(path)]
    assert found == [], f"condition names outside CONDITIONS: {found}"
