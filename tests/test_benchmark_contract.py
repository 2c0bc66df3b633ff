"""Every name the benchmark harness takes from bitime must exist.

The files under perfbench/ are parsed with `ast`, never imported: a
refactor that deletes or renames a name they use fails here, in tier-1,
instead of making every benchmark run raise ImportError.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bitime_uses():
    """(file, module, name) for each `from bitime... import name`, `import bitime...`
    and attribute read `mod.name` of a bitime module bound by those imports."""
    uses = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {}  # local name -> bitime module it may stand for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "bitime":
                        uses.append((path.name, alias.name, None))
                        bound[alias.asname or alias.name] = alias.name
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "bitime"):
                for alias in node.names:
                    uses.append((path.name, node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                uses.append((path.name, bound[node.value.id], node.attr))
    return sorted(set(uses), key=str)


USES = _bitime_uses()


def _resolve(module, name):
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        # `module` is "pkg.name" for a name imported from pkg
        parent, _, attr = module.rpartition(".")
        obj = getattr(importlib.import_module(parent), attr)
    if name is None or hasattr(obj, name):
        return
    if isinstance(obj, types.ModuleType):
        importlib.import_module(f"{module}.{name}")  # a submodule, e.g. bitime.cli
        return
    raise AttributeError(f"{module} has no attribute {name!r}")


def test_harness_uses_found():
    assert {module for _, module, _ in USES} >= {"bitime.grid", "bitime.suite"}


@pytest.mark.parametrize("source, module, name", USES,
                         ids=[f"{s}:{m}.{n}" if n else f"{s}:{m}" for s, m, n in USES])
def test_name_resolves(source, module, name):
    _resolve(module, name)
