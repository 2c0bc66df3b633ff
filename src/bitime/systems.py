"""Quasi-linear plane PDE systems A_i grad x^i = B and their gradient split.

A system `QuasiLinearSystem(a, b)` couples n = len(a) scalar sheets
x^i(t^1, t^2) through 2x2 coefficient matrices A_i(t, x, u) and a
right-hand side B(t, x, u).  Splitting the system assigns each of the
first n-1 gradient equations its own canonical control field
v_i = A_i grad x^i, leaving the last equation to absorb B - sum(v_i).
Per-state quantities (the split, the cross-triples) never sum over the
state index; the alpha/beta sums are explicit loops.  Coefficients are
evaluated on the node coordinates (`DiscGrid.on_mask`) and stored like
fields, one value per node, so an entry may be singular off the mask.

The residuals are taken in one walk over the states (`ForwardPass`), which
checks that it is handed n states: B once, then per state A_i and grad x^i
once.  Each step adds A_i grad x^i to the forward rows and yields A_i with
w_i, the right-hand side of state i's own split equation (v_i for i < n,
B - v_1 - ... - v_{n-1} for i = n).  The rows, v_i, that running B - sum(v)
and each triple's P, Q and R are built in place, by the same additions and
subtractions in the same order as the formulas written out, so every value
is the same bit for bit.  `forward_residual` and `split_controls` are such
walks; `cross_triple` evaluates one state on its own, with `CrossTriple.of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .grid import AngleField, DiscGrid, ScalarField

__all__ = [
    "QuasiLinearSystem",
    "SplitSystem",
    "CrossTriple",
    "ForwardPass",
    "split_controls",
    "cross_triple",
    "forward_residual",
]

# A matrix evaluator maps (x, y, state_values, control_values) to a 2x2 nest
# of arrays/scalars broadcastable against the node vectors.  Scalar states
# pass their node values; angle states pass the (cos, sin) pair of arrays.
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


def det2(a: np.ndarray) -> np.ndarray:
    """a00 a11 - a01 a10 of a 2x2 nest whose entries are arrays (A_i, shape (2, 2) + ...)."""
    d = a[0, 0] * a[1, 1]
    d -= a[0, 1] * a[1, 0]
    return d


@dataclass(frozen=True)
class QuasiLinearSystem:
    """Coefficient matrices A_1..A_n, one per state, and B; evaluators are stateless."""

    a: tuple[MatrixEval, ...]
    b: RhsEval

    @property
    def n(self) -> int:
        return len(self.a)

    def matrix(self, i: int, grid: DiscGrid, state_values, control_values) -> np.ndarray:
        """A_i, shape (2, 2, grid.n_nodes).  i is 1-based."""
        return nest_array(grid.on_mask(lambda x, y: self.a[i - 1](x, y, state_values, control_values),
                                       f"coefficient matrix A_{i}"), (grid.n_nodes,), 2)

    def rhs(self, grid: DiscGrid, state_values, control_values) -> np.ndarray:
        """B, shape (2, grid.n_nodes)."""
        return nest_array(grid.on_mask(lambda x, y: self.b(x, y, state_values, control_values),
                                       "right-hand side B"), (grid.n_nodes,), 1)


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


@dataclass(frozen=True)
class CrossTriple:
    """(P_i, Q_i, R_i) fields; R_i is det A_i for every i including the last."""

    p: ScalarField
    q: ScalarField
    r: ScalarField

    @classmethod
    def of(cls, grid: DiscGrid, a: np.ndarray, w: np.ndarray) -> "CrossTriple":
        """The triple of A_i and the right-hand side w = (w1, w2) of its own equation.

        Each of P, Q and R is one product less the other, subtracted in place.
        """
        p = a[0, 1] * w[1]
        p -= a[1, 1] * w[0]
        q = a[1, 0] * w[0]
        q -= a[0, 0] * w[1]
        return cls(ScalarField(grid, p), ScalarField(grid, q), ScalarField(grid, det2(a)))


class ForwardPass:
    """One walk over the states of a system: B once, then each A_i and grad x^i once.

    `rows` starts at -B and each step adds A_i grad x^i to it, so after the
    last state rows^beta = sum_i sum_alpha A_i^{beta alpha} dx^i/dt^alpha - B^beta,
    summed as ((-B + A_1 col 1 dx^1/dt^1) + A_1 col 2 dx^1/dt^2) + ...
    Iterating yields each state's (A_i, w_i): w_i is v_i = A_i grad x^i for
    i < n and `w` = B - v_1 - ... - v_{n-1}, subtracted in that order, for
    i = n, the w_i `cross_triple` takes on `split_controls` of the states.
    A pass walks once and keeps no step it has handed on; its callers drop
    each (A_i, w_i) before asking for the next, so one matrix is alive at a time.
    """

    def __init__(self, sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()):
        if len(states) != sys.n:
            raise ValueError("state count does not match the system")
        self.sys, self.grid, self.states = sys, grid, states
        self._sv = [state_value(f) for f in states]
        self._cv = [f.data for f in controls]
        self.w = sys.rhs(grid, self._sv, self._cv)
        self.rows = -self.w
        self._done = 0

    def _step(self) -> tuple[np.ndarray, np.ndarray]:
        """The next state's (A_i, w_i), with its products added to the rows in place.

        v starts as A_i's first column times dx^i/dt^1; its second column's
        product with dx^i/dt^2 is then taken one row at a time and added to
        the row and to v, so a step never holds both column products.
        """
        self._done += 1
        a = self.sys.matrix(self._done, self.grid, self._sv, self._cv)
        f = self.states[self._done - 1]
        v = a[:, 0] * f.partial(1).data
        self.rows += v
        dy = f.partial(2).data
        for beta in (0, 1):
            ay = a[beta, 1] * dy
            self.rows[beta] += ay
            v[beta] += ay
        if self._done == self.sys.n:
            return a, self.w
        self.w -= v
        return a, v

    def __iter__(self):
        while self._done < self.sys.n:
            yield self._step()

    def residual(self) -> tuple[ScalarField, ScalarField]:
        """The two rows as fields (raw: scaling a row of (A, B) scales its residual)."""
        return ScalarField(self.grid, self.rows[0]), ScalarField(self.grid, self.rows[1])


def split_controls(sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()) -> SplitSystem:
    """Manufacture canonical controls v_i = A_i grad x^i node-wise: n-1 steps of a walk."""
    steps = islice(ForwardPass(sys, grid, states, controls), sys.n - 1)
    v = tuple(tuple(ScalarField(grid, row) for row in w) for _, w in steps)
    return SplitSystem(base=sys, grid=grid, states=tuple(states),
                       controls=tuple(controls), v=v)


def cross_triple(split: SplitSystem, i: int) -> CrossTriple:
    """Cross-triple of state i: built from v_i for i < n, from B - sum(v) for i = n."""
    sys = split.base
    if not 1 <= i <= sys.n:
        raise ValueError(f"state index {i} out of range 1..{sys.n}")
    grid = split.grid
    sv = split.state_values()
    cv = [f.data for f in split.controls]
    a = sys.matrix(i, grid, sv, cv)
    if i < sys.n:
        w = (split.v[i - 1][0].data, split.v[i - 1][1].data)
    else:
        w = sys.rhs(grid, sv, cv)
        for vj in split.v:
            w[0] -= vj[0].data
            w[1] -= vj[1].data
    return CrossTriple.of(grid, a, w)


def forward_residual(sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()) -> tuple[ScalarField, ScalarField]:
    """Residual of the unsplit constraint, one field per equation row (see `ForwardPass`)."""
    fwd = ForwardPass(sys, grid, states, controls)
    for _ in fwd:
        pass
    return fwd.residual()
