"""Quasi-linear plane PDE systems A_i grad x^i = B and their gradient split.

A system couples n scalar sheets x^i(t^1, t^2) through 2x2 coefficient
matrices A_i(t, x, u) and a right-hand side B(t, x, u).  Splitting the
system assigns each of the first n-1 gradient equations its own canonical
control field v_i = A_i grad x^i, leaving the last equation to absorb
B - sum(v_i).  Per-state quantities (the split, the cross-triples) never
sum over the state index; the alpha/beta sums are explicit loops.
Coefficients are evaluated on the masked nodes only (`DiscGrid.on_mask`)
and are zero elsewhere, so an entry may be singular off the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import AngleField, DiscGrid, ScalarField

__all__ = [
    "QuasiLinearSystem",
    "SplitSystem",
    "CrossTriple",
    "split_controls",
    "cross_triple",
    "forward_residual",
]

# A matrix evaluator maps (x, y, state_values, control_values) to a 2x2 nest
# of arrays/scalars broadcastable against the grid.  Scalar states pass their
# value array; angle states pass the (cos, sin) pair of arrays.
MatrixEval = Callable[..., Sequence[Sequence[np.ndarray]]]
RhsEval = Callable[..., Sequence[np.ndarray]]


def nest_array(raw, shape, rank: int) -> np.ndarray:
    """A 2-vector (rank 1) or 2x2 nest (rank 2) of arrays/scalars as one array.

    The result has shape (2,) * rank + shape; entries broadcast into place.
    """
    out = np.empty((2,) * rank + tuple(shape))
    for idx in np.ndindex(*out.shape[:rank]):
        entry = raw
        for k in idx:
            entry = entry[k]
        out[idx] = entry
    return out


@dataclass(frozen=True)
class QuasiLinearSystem:
    """n coefficient matrices plus right-hand side; evaluators are stateless."""

    n: int
    n_controls: int
    a: tuple[MatrixEval, ...]
    b: RhsEval

    def __post_init__(self):
        if len(self.a) != self.n:
            raise ValueError("need one coefficient evaluator per state")

    def matrix(self, i: int, grid: DiscGrid, state_values, control_values) -> np.ndarray:
        """A_i, shape (2, 2) + grid.shape, zero off the mask.  i is 1-based."""
        return _on_mask(self.a[i - 1], grid, state_values, control_values, 2,
                        f"coefficient matrix A_{i}")

    def rhs(self, grid: DiscGrid, state_values, control_values) -> np.ndarray:
        """B, shape (2,) + grid.shape, zero off the mask."""
        return _on_mask(self.b, grid, state_values, control_values, 1, "right-hand side B")


def _on_mask(fn, grid: DiscGrid, state_values, control_values, rank: int, what: str):
    """Evaluate a coefficient on the masked nodes only (see `DiscGrid.on_mask`)."""
    m = grid.mask
    sv = [tuple(a[m] for a in v) if isinstance(v, tuple) else v[m] for v in state_values]
    cv = [a[m] for a in control_values]
    values = nest_array(grid.on_mask(lambda x, y: fn(x, y, sv, cv), what),
                        (grid.n_nodes,), rank)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite on the mask")
    out = np.zeros(values.shape[:rank] + grid.shape)
    for idx in np.ndindex(*values.shape[:rank]):
        out[idx][m] = values[idx]
    return out


def state_value(f):
    """What the coefficient evaluators see for a state sheet."""
    if isinstance(f, AngleField):
        return (f.c.data, f.s.data)
    if isinstance(f, ScalarField):
        return f.data
    raise TypeError("states must be ScalarField or AngleField")


@dataclass(frozen=True)
class SplitSystem:
    """A system plus its canonical control fields v_i, i = 1..n-1."""

    base: QuasiLinearSystem
    grid: DiscGrid
    states: tuple
    controls: tuple
    v: tuple[tuple[ScalarField, ScalarField], ...]

    def state_values(self):
        return [state_value(f) for f in self.states]

    def control_values(self):
        return [f.data for f in self.controls]


@dataclass(frozen=True)
class CrossTriple:
    """(P_i, Q_i, R_i) fields; R_i is det A_i for every i including the last."""

    p: ScalarField
    q: ScalarField
    r: ScalarField


def split_controls(sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()) -> SplitSystem:
    """Manufacture canonical controls v_i = A_i grad x^i node-wise (no sum over i)."""
    if len(states) != sys.n:
        raise ValueError("state count does not match the system")
    sv = [state_value(f) for f in states]
    cv = [f.data for f in controls]
    v = []
    for i in range(1, sys.n):
        a = sys.matrix(i, grid, sv, cv)
        gx = states[i - 1].partial(1).data
        gy = states[i - 1].partial(2).data
        v1 = a[0, 0] * gx + a[0, 1] * gy
        v2 = a[1, 0] * gx + a[1, 1] * gy
        v.append((grid.field(v1), grid.field(v2)))
    return SplitSystem(base=sys, grid=grid, states=tuple(states),
                       controls=tuple(controls), v=tuple(v))


def cross_triple(split: SplitSystem, i: int) -> CrossTriple:
    """Cross-triple of state i: built from v_i for i < n, from B - sum(v) for i = n."""
    sys = split.base
    if not 1 <= i <= sys.n:
        raise ValueError(f"state index {i} out of range 1..{sys.n}")
    grid = split.grid
    sv = split.state_values()
    cv = split.control_values()
    a = sys.matrix(i, grid, sv, cv)
    if i < sys.n:
        w1 = split.v[i - 1][0].data
        w2 = split.v[i - 1][1].data
    else:
        w1, w2 = sys.rhs(grid, sv, cv)
        for vj in split.v:
            w1 -= vj[0].data
            w2 -= vj[1].data
    p = a[0, 1] * w2 - a[1, 1] * w1
    q = a[1, 0] * w1 - a[0, 0] * w2
    r = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return CrossTriple(grid.field(p), grid.field(q), grid.field(r))


def forward_residual(sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()) -> tuple[ScalarField, ScalarField]:
    """Residual of the unsplit constraint, one field per equation row.

    residual^beta = sum_i sum_alpha A_i^{beta alpha} dx^i/dt^alpha - B^beta.
    Raw (unnormalised): scaling a row of (A, B) scales its residual.
    """
    sv = [state_value(f) for f in states]
    cv = [f.data for f in controls]
    b = sys.rhs(grid, sv, cv)
    res = [-b[0], -b[1]]
    for i in range(1, sys.n + 1):
        a = sys.matrix(i, grid, sv, cv)
        gx = states[i - 1].partial(1).data
        gy = states[i - 1].partial(2).data
        res[0] = res[0] + a[0, 0] * gx + a[0, 1] * gy
        res[1] = res[1] + a[1, 0] * gx + a[1, 1] * gy
    return grid.field(res[0]), grid.field(res[1])
