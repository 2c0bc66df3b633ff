"""Whitelisted expression evaluator for config-defined systems.

Matrix entries, right-hand sides, and field formulas arrive as strings in
the variables (x, y, state symbols, control symbols).  Supported syntax:
numbers, names, + - * /, powers (** or ^), unary minus, and the calls
sin, cos, atan2 (atan2 is an extension beyond polynomials + sin/cos: it is
what lets a config express a single-valued angle sheet on a half-plane).

Parsing errors carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
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

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    """Bad expression; `line` and `column` locate the problem (1-based)."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _validate(node: ast.AST, names: set[str], src: str) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(sub, ast.Constant) and not isinstance(sub.value, (int, float)):
                raise ExpressionError("only numeric constants are allowed",
                                      sub.lineno, sub.col_offset + 1)
        elif isinstance(sub, ast.BinOp):
            if not isinstance(sub.op, _BINOPS):
                raise ExpressionError("operator not allowed", sub.lineno, sub.col_offset + 1)
        elif isinstance(sub, ast.UnaryOp):
            if not isinstance(sub.op, _UNARYOPS):
                raise ExpressionError("operator not allowed", sub.lineno, sub.col_offset + 1)
        elif isinstance(sub, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                              ast.USub, ast.UAdd)):
            pass
        elif isinstance(sub, ast.Call):
            if (not isinstance(sub.func, ast.Name) or sub.func.id not in _FUNCTIONS
                    or sub.keywords):
                raise ExpressionError("only sin, cos, atan2 calls are allowed",
                                      sub.lineno, sub.col_offset + 1)
            want = 2 if sub.func.id == "atan2" else 1
            if len(sub.args) != want:
                raise ExpressionError(f"{sub.func.id} takes {want} argument(s)",
                                      sub.lineno, sub.col_offset + 1)
        elif isinstance(sub, ast.Name):
            if sub.id in _FUNCTIONS:
                continue
            if sub.id not in names:
                raise ExpressionError(f"unknown symbol {sub.id!r}",
                                      sub.lineno, sub.col_offset + 1)
        else:
            raise ExpressionError("syntax not allowed in expressions",
                                  getattr(sub, "lineno", 1),
                                  getattr(sub, "col_offset", 0) + 1)


def compile_expression(src: str, names: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile `src` into f(*values) with `names` as the positional variables."""
    if not isinstance(src, str):
        raise ExpressionError("expression must be a string")
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(exc.msg or "syntax error",
                              exc.lineno or 1, exc.offset or 1) from None
    _validate(tree, set(names), text)
    code = compile(tree, "<expression>", "eval")
    glb = {"__builtins__": {}, **_FUNCTIONS}
    order = list(names)

    def evaluate(*values):
        env = dict(zip(order, values))
        return eval(code, glb, env)

    return evaluate


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
