"""Whitelisted expression evaluator for config-defined systems.

Matrix entries, right-hand sides, and field formulas arrive as strings in
the variables (x, y, state symbols, control symbols).  Supported syntax:
numbers, names, + - * /, powers (** or ^), unary minus, and the calls
sin, cos, atan2 (atan2 is an extension beyond polynomials + sin/cos: it is
what lets a config express a single-valued angle sheet on a half-plane).
Every numeric literal is a float64, so "9**9**9" overflows to inf at once
instead of running Python integer arithmetic.

Expressions compile to a tree of closures (no `eval`).  Errors carry the
1-based line and column of the offending token.
"""

from __future__ import annotations

import ast
import operator
from typing import Callable, Sequence

import numpy as np

from .grid import DiscGrid
from .systems import QuasiLinearSystem

__all__ = [
    "ExpressionError",
    "compile_expression",
    "system_from_config",
    "fields_from_config",
]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "atan2": np.arctan2}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
# Deepest expression tree accepted; a sum of n terms is n levels deep.
_MAX_DEPTH = 200


class ExpressionError(ValueError):
    """Bad expression; `line` and `column` locate the problem (1-based)."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
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
        tree = ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(exc.msg or "syntax error",
                              exc.lineno or 1, exc.offset or 1) from None
    except (MemoryError, RecursionError):  # the parser's own nesting limits
        raise ExpressionError("expression nested too deeply") from None
    body = _build(tree.body, {name: k for k, name in enumerate(names)})
    return lambda *values: body(values)


def _matrix_entries(raw, n: int):
    if len(raw) != n:
        raise ExpressionError(f"need {n} coefficient matrices, got {len(raw)}")
    for mat in raw:
        if len(mat) != 2 or any(len(row) != 2 for row in mat):
            raise ExpressionError("each coefficient matrix must be 2x2")
    return raw


def system_from_config(cfg: dict) -> QuasiLinearSystem:
    """Build a system from {states, controls, A, B} with expression entries.

    A is a list of n 2x2 string matrices, B a pair of strings; all in the
    variables x, y plus the declared state and control names.
    """
    states = list(cfg.get("states", []))
    controls = list(cfg.get("controls", []))
    if not states:
        raise ExpressionError("config declares no states")
    names = ["x", "y"] + states + controls
    n = len(states)
    a_raw = _matrix_entries(cfg.get("A", []), n)
    b_raw = cfg.get("B", ["0", "0"])
    if len(b_raw) != 2:
        raise ExpressionError("B must have two components")

    a_fns = [[[compile_expression(a_raw[i][b][al], names) for al in range(2)]
              for b in range(2)] for i in range(n)]
    b_fns = [compile_expression(expr, names) for expr in b_raw]

    def make_a(i):
        def f(x, y, state_values, control_values, _i=i):
            args = [x, y, *state_values, *control_values]
            return tuple(tuple(a_fns[_i][b][al](*args) for al in range(2)) for b in range(2))
        return f

    def b(x, y, state_values, control_values):
        args = [x, y, *state_values, *control_values]
        return (b_fns[0](*args), b_fns[1](*args))

    return QuasiLinearSystem(n=n, n_controls=len(controls),
                             a=tuple(make_a(i) for i in range(n)), b=b)


def fields_from_config(cfg: dict, grid: DiscGrid):
    """Sample the config's state_fields / control_fields formulas on a grid.

    Formulas are expressions in x and y only; returns (states, controls) as
    ScalarField tuples in declaration order.
    """
    def build(section, declared):
        exprs = cfg.get(section, {})
        out = []
        for name in declared:
            if name not in exprs:
                raise ExpressionError(f"missing {section} entry for {name!r}")
            out.append(grid.field(compile_expression(exprs[name], ["x", "y"])))
        return tuple(out)

    return (build("state_fields", cfg.get("states", [])),
            build("control_fields", cfg.get("controls", [])))
