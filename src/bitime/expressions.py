"""Whitelisted expression evaluator for config-defined systems.

Matrix entries, right-hand sides, and field formulas arrive as strings in
the variables (x, y, state symbols, control symbols).  Supported syntax:
numbers, names, + - * /, powers (** or ^), unary minus, and the calls
sin, cos, atan2 (atan2 is an extension beyond polynomials + sin/cos: it is
what lets a config express a single-valued angle sheet on a half-plane).
Every numeric literal is a float64, so "9**9**9" overflows to inf at once
instead of running Python integer arithmetic.

Expressions compile to a tree of closures (no `eval`).  Errors carry the
1-based line and column of the offending token; errors in a system config
also name the entry's JSON location, such as ``A[0][1][0]`` or
``state_fields.rho``.
"""

from __future__ import annotations

import ast
import keyword
import operator
import warnings
from typing import Callable, Sequence

import numpy as np

from .grid import DiscGrid, ExclusionZone, _finite_real, build_disc_grid
from .systems import QuasiLinearSystem

__all__ = [
    "ExpressionError",
    "compile_expression",
    "system_from_config",
    "field_sampler",
    "fields_from_config",
    "grid_from_config",
]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "atan2": np.arctan2}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
# Deepest expression tree accepted; a sum of n terms is n levels deep.
_MAX_DEPTH = 200
# Names every expression already has; a state or control may not take them.
_RESERVED = ("x", "y", *_FUNCTIONS)


class ExpressionError(ValueError):
    """Bad expression or system config; `line` and `column` locate the problem
    in an expression (1-based) and are None for errors that have no place."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


def _build(node: ast.AST, index: dict[str, int], depth: int = 0) -> Callable:
    """Validate `node` and return f(values) evaluating it.

    Numeric literals become float64, so overflow gives inf (raised as an
    error under `DiscGrid.on_mask`) instead of unbounded integer arithmetic.
    """
    where = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1)
    if depth > _MAX_DEPTH:
        raise ExpressionError("expression nested too deeply", *where)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric constants are allowed", *where)
        try:
            value = np.float64(node.value)
        except OverflowError:
            value = np.float64(np.inf)
        if not np.isfinite(value):
            raise ExpressionError("numeric literal out of float64 range", *where)
        return lambda values: value
    if isinstance(node, ast.Name):
        if node.id not in index:
            raise ExpressionError(f"unknown symbol {node.id!r}", *where)
        k = index[node.id]
        return lambda values: values[k]
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError("operator not allowed", *where)
        left, right = _build(node.left, index, depth + 1), _build(node.right, index, depth + 1)
        return lambda values: op(left(values), right(values))
    if isinstance(node, ast.UnaryOp):
        op = _UNARYOPS.get(type(node.op))
        if op is None:
            raise ExpressionError("operator not allowed", *where)
        arg = _build(node.operand, index, depth + 1)
        return lambda values: op(arg(values))
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _FUNCTIONS or node.keywords:
            raise ExpressionError("only sin, cos, atan2 calls are allowed", *where)
        want = 2 if name == "atan2" else 1
        if len(node.args) != want:
            raise ExpressionError(f"{name} takes {want} argument(s)", *where)
        fn = _FUNCTIONS[name]
        args = [_build(arg, index, depth + 1) for arg in node.args]
        return lambda values: fn(*(arg(values) for arg in args))
    raise ExpressionError("syntax not allowed in expressions", *where)


def compile_expression(src: str, names: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile `src` into f(*values) with `names` as the positional variables."""
    if not isinstance(src, str):
        raise ExpressionError("expression must be a string")
    try:
        with warnings.catch_warnings():  # e.g. SyntaxWarning for "1if": the error says it
            warnings.simplefilter("ignore")
            tree = ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(exc.msg or "syntax error",
                              exc.lineno or 1, exc.offset or 1) from None
    except (MemoryError, RecursionError):  # the parser's own nesting limits
        raise ExpressionError("expression nested too deeply") from None
    except ValueError as exc:  # e.g. a null byte in the source
        raise ExpressionError(str(exc)) from None
    body = _build(tree.body, {name: k for k, name in enumerate(names)})
    return lambda *values: body(values)


def _compile_entry(src, names: Sequence[str], where: str) -> Callable[..., np.ndarray]:
    """`compile_expression` with the entry's JSON location `where` before any error."""
    try:
        return compile_expression(src, names)
    except ExpressionError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _matrix_entries(raw, n: int):
    """The config's A: a list of n matrices, each a list of two rows of two entries."""
    if not isinstance(raw, list):
        raise ExpressionError(f"A: must be a list of {n} coefficient matrices, "
                              f"got {type(raw).__name__}")
    if len(raw) != n:
        raise ExpressionError(f"A: need {n} coefficient matrices, got {len(raw)}")
    for i, mat in enumerate(raw):
        if not isinstance(mat, list) or len(mat) != 2:
            raise ExpressionError(f"A[{i}]: each coefficient matrix must be 2x2, "
                                  "a list of two rows")
        for b, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != 2:
                raise ExpressionError(f"A[{i}][{b}]: each coefficient matrix must be 2x2, "
                                      "a row is a list of two entries")
    return raw


def _declared_names(cfg: dict, key: str, taken: set) -> list[str]:
    """The `key` list of the config: identifiers, none reserved or already in `taken`."""
    names = cfg.get(key, [])
    if not isinstance(names, list):
        raise ExpressionError(f"{key} must be a list of names, got {names!r}")
    for name in names:
        if not isinstance(name, str) or not name.isidentifier() or keyword.iskeyword(name):
            raise ExpressionError(f"{key} entry {name!r} is not an identifier")
        if name in _RESERVED:
            raise ExpressionError(f"{key} entry {name!r} is reserved: x, y, sin, cos "
                                  "and atan2 cannot be declared")
        if name in taken:
            raise ExpressionError(f"{key} entry {name!r} is declared twice: state and "
                                  "control names must be distinct")
        taken.add(name)
    return names


def system_from_config(cfg: dict) -> QuasiLinearSystem:
    """Build a system from {states, controls, A, B} with expression entries.

    A is a list of n 2x2 string matrices, B a pair of strings; all in the
    variables x, y plus the declared state and control names, which must be
    distinct identifiers other than x, y, sin, cos and atan2.
    """
    if not isinstance(cfg, dict):
        raise ExpressionError("system config must be a JSON object")
    taken: set[str] = set()
    states = _declared_names(cfg, "states", taken)
    controls = _declared_names(cfg, "controls", taken)
    if not states:
        raise ExpressionError("config declares no states")
    names = ["x", "y"] + states + controls
    n = len(states)
    a_raw = _matrix_entries(cfg.get("A", []), n)
    b_raw = cfg.get("B", ["0", "0"])
    if not isinstance(b_raw, list) or len(b_raw) != 2:
        raise ExpressionError("B: must be a list of two components")

    a_fns = [[[_compile_entry(a_raw[i][b][al], names, f"A[{i}][{b}][{al}]")
               for al in range(2)] for b in range(2)] for i in range(n)]
    b_fns = [_compile_entry(expr, names, f"B[{b}]") for b, expr in enumerate(b_raw)]

    def make_a(i):
        def f(x, y, state_values, control_values, _i=i):
            args = [x, y, *state_values, *control_values]
            return tuple(tuple(a_fns[_i][b][al](*args) for al in range(2)) for b in range(2))
        return f

    def b(x, y, state_values, control_values):
        args = [x, y, *state_values, *control_values]
        return (b_fns[0](*args), b_fns[1](*args))

    return QuasiLinearSystem(a=tuple(make_a(i) for i in range(n)), b=b)


def field_sampler(cfg: dict) -> Callable[[DiscGrid], tuple]:
    """Compile the config's state_fields / control_fields formulas once.

    Formulas are expressions in x and y only.  Returns sample(grid), which
    evaluates them on a grid's nodes and returns (states, controls) as
    ScalarField tuples in declaration order.
    """
    def compiled(section, declared):
        exprs = cfg.get(section, {})
        if not isinstance(exprs, dict):
            raise ExpressionError(f"{section}: must be an object mapping each name to a "
                                  f"formula, got {type(exprs).__name__}")
        out = []
        for name in declared:
            if name not in exprs:
                raise ExpressionError(f"missing {section} entry for {name!r}")
            where = f"{section}.{name}"
            out.append((_compile_entry(exprs[name], ["x", "y"], where), where))
        return out

    states = compiled("state_fields", cfg.get("states", []))
    controls = compiled("control_fields", cfg.get("controls", []))

    def sample(grid: DiscGrid):
        return tuple(tuple(grid.sample(f, where)[0] for f, where in section)
                     for section in (states, controls))

    return sample


def fields_from_config(cfg: dict, grid: DiscGrid):
    """`field_sampler(cfg)` on one grid: (states, controls) as ScalarField tuples."""
    return field_sampler(cfg)(grid)


def grid_from_config(cfg: dict, h: float | None = None) -> DiscGrid:
    """The disc grid minus the config's `zones`, at spacing `h`, else the config's "h" or 1/64."""
    h = cfg.get("h", 1.0 / 64.0) if h is None else h
    if not _finite_real(h):
        raise ExpressionError(f"h: must be a finite number, got {h!r}")
    entries = cfg.get("zones", [])
    if not isinstance(entries, list):
        raise ExpressionError(f"zones: must be a list, got {entries!r}")
    zones = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"kind", "size"} <= entry.keys():
            raise ExpressionError(f'zones[{i}]: not a {{"kind", "size"}} object: {entry!r}')
        try:
            zones.append(ExclusionZone(entry["kind"], entry["size"]))
        except ValueError as exc:
            raise ExpressionError(f"zones[{i}]: {exc}") from None
    return build_disc_grid(h, zones=zones)
