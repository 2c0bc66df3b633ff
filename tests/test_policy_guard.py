"""The floating-point policy lives in `bitime.grid` alone.

`grid` checks values where they enter (`DiscGrid.on_mask`, `DiscGrid.field`)
and runs the band walk under a raising numpy error state.  No other module
sets an error state of its own (`np.errstate`, `np.seterr`), a `ScalarField`
checks only its shape, and `systems` does not re-check what `on_mask`
returned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bitime"
POLICY_SETTERS = {"errstate", "seterr"}
# the one function of grid.py that sets the policy, for the band walk and on_mask
GRID_SETTERS = {"_raising"}


def _parsed(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), name)


def _names(node: ast.AST) -> list[str]:
    """Every name `node` uses as a variable, an attribute or an imported name."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names += [alias.name.rsplit(".", 1)[-1] for alias in sub.names]
    return names


def _functions(tree: ast.Module):
    """(name, node) of every function the module defines, methods included."""
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_sources_found():
    assert (SRC / "grid.py").exists() and (SRC / "cli.py").exists()


def test_no_error_state_outside_grid():
    setters = {path.name for path in sorted(SRC.glob("*.py"))
               if POLICY_SETTERS & set(_names(_parsed(path.name)))}
    assert setters == {"grid.py"}, setters


def test_grid_sets_the_error_state_in_one_place():
    tree = _parsed("grid.py")

    def setters(node):
        return sum(name in POLICY_SETTERS for name in _names(node))

    functions = _functions(tree)
    assert {name for name, fn in functions if setters(fn)} == GRID_SETTERS
    # no use of the error state outside those functions
    assert setters(tree) == sum(setters(fn) for name, fn in functions if name in GRID_SETTERS)
    users = {name for name, fn in functions if "_raising" in _names(fn)}
    assert users >= {"on_mask", "_walk"}, users


def test_scalar_field_checks_shape_only():
    (cls,) = [node for node in _parsed("grid.py").body
              if isinstance(node, ast.ClassDef) and node.name == "ScalarField"]
    (init,) = [node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assert "isfinite" not in _names(init)


def test_systems_does_not_recheck_coefficients():
    assert "isfinite" not in _names(_parsed("systems.py"))
