"""No public name that only tests use.

Every name a module of `bitime` lists in `__all__` must be referenced by
the program itself: by another definition in `src/bitime/` or by the
benchmark in `perfbench/`.  A name that only `tests/` reference (or that
nothing references) is test scaffolding in the package and belongs in
`tests/conftest.py` instead.

A reference is any use of the name as a variable, an attribute or an
imported name.  A definition's uses of its own name (a recursive call, a
class naming itself) do not count, nor does the `__all__` entry.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "bitime").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _used(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _references(tree: ast.Module) -> set[str]:
    """Names used by the module's top-level statements, each without its own name."""
    names = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        names |= _used(stmt) - {own}
    return names


def test_program_files_found():
    assert (ROOT / "src" / "bitime" / "__init__.py") in PROGRAM
    assert (ROOT / "perfbench" / "run.py") in PROGRAM


def test_every_public_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    referenced = set().union(*map(_references, trees.values()))
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              for name in _exported(tree) if name not in referenced]
    assert unused == [], f"public names no program code uses: {unused}"
