"""No public name that only tests use.

Every name a module of `bitime` lists in `__all__`, and every public method
and property of a class defined in `src/bitime/`, must be referenced by the
program itself: by another definition in `src/bitime/` or by the benchmark
in `perfbench/`.  A name that only `tests/` reference (or that nothing
references) is test scaffolding in the package and belongs in
`tests/conftest.py` instead.  A method that overrides one of a base class
defined outside `bitime` is exempt: that library calls it.

A reference is any use of the name as a variable, an attribute or an
imported name.  A definition's uses of its own name (a recursive call, a
class naming itself) do not count, nor do an assignment's targets or the
`__all__` entry.
"""

import ast
import importlib
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


def _references(stmts: list[ast.stmt]) -> set[str]:
    """Names the statements use, each without its own; a class's members count one by one."""
    names = set()
    for stmt in stmts:
        if isinstance(stmt, ast.ClassDef):
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            names |= (_references(stmt.body) | set().union(*map(_used, header))) - {stmt.name}
        else:
            own = {getattr(stmt, "name", None)}
            if isinstance(stmt, ast.Assign):
                own |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            names |= _used(stmt) - own
    return names


def _members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of each public method and property the module's classes define."""
    members = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                names = [stmt.name]
            elif (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                  and getattr(stmt.value.func, "id", None) == "property"):
                names = [t.id for t in stmt.targets]
            else:
                continue
            members += [(cls.name, name) for name in names if not name.startswith("_")]
    return members


def _overrides_foreign(module: str, cls_name: str, name: str) -> bool:
    """True if a base class of bitime.<module>.<cls_name> defined outside bitime has `name`."""
    cls = getattr(importlib.import_module(f"bitime.{module}"), cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("bitime"))


def _program() -> tuple[dict[Path, ast.Module], set[str]]:
    """The parsed program files, and every name they reference."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    return trees, set().union(*(_references(tree.body) for tree in trees.values()))


def test_program_files_found():
    assert (ROOT / "src" / "bitime" / "__init__.py") in PROGRAM
    assert (ROOT / "perfbench" / "run.py") in PROGRAM


def test_every_public_name_is_used_by_the_program():
    trees, referenced = _program()
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              for name in _exported(tree) if name not in referenced]
    assert unused == [], f"public names no program code uses: {unused}"


def test_every_public_member_is_used_by_the_program():
    trees, referenced = _program()
    unused = [f"{path.stem}.{cls}.{name}" for path, tree in trees.items()
              if path.parent.name == "bitime"
              for cls, name in _members(tree)
              if name not in referenced and not _overrides_foreign(path.stem, cls, name)]
    assert unused == [], f"public methods and properties no program code uses: {unused}"
