"""Hamiltonian assembly and the stationarity condition (26).

A `MultiplierSystem` is the right-hand side f_i(t, x, u-bar) of each
state's gradient-solved equation; the Hamiltonian is
H = X + sum_i p^i . f_i.  The plastic example attaches its multipliers to
the equations grad rho = f_1, grad K = f_2 and K grad phi = f_3 (matrices
I, I, K I), which is the form its stationarity relations, costate system
(28.x) and circle conditions (27.x) are written in; the last two are
assembled in `plastic`.

H is affine in the controls for every system built here, so dH/du-bar^a is
the same at every control value; it is read exactly as H(e_a) - H(0), at
scalar controls 0.0 and 1.0: no step size, no finite differences, and no
node-sized control field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import DiscGrid, ScalarField
from .systems import state_value

__all__ = [
    "CostateBundle",
    "CostBundle",
    "MultiplierSystem",
    "hamiltonian",
    "stationarity_residual",
]


@dataclass(frozen=True)
class CostateBundle:
    """One 2-vector multiplier field per state."""

    components: tuple[tuple[ScalarField, ScalarField], ...]

    def values(self):
        return [(p1.data, p2.data) for p1, p2 in self.components]


@dataclass(frozen=True)
class CostBundle:
    """Running cost X(t, x, u); None means X = 0."""

    running: Callable = None

    def running_value(self, x, y, states, controls):
        """X as a fresh float array of the shape of x, which the caller may add into."""
        if self.running is None:
            return np.zeros(np.shape(x))
        value = np.asarray(self.running(x, y, states, controls), dtype=float)
        return np.broadcast_to(value, np.shape(x)).copy()


@dataclass(frozen=True)
class MultiplierSystem:
    """Multiplier-form right-hand sides f_i(x, y, states, controls) -> 2-vector, one per state."""

    rhs: tuple[Callable, ...]


def hamiltonian(msys: MultiplierSystem, cost: CostBundle, x, y,
                states, controls, costates) -> np.ndarray:
    """H = X + sum_i p^i_beta f_i^beta at a point or over arrays.

    The terms are added into the running cost in place, p1 f_i^1 then
    p2 f_i^2; each product and each component of f_i is dropped as soon as
    it has been added.
    """
    h = cost.running_value(x, y, states, controls)
    for f_i, (p1, p2) in zip(msys.rhs, costates, strict=True):
        f1, f2 = f_i(x, y, states, controls)
        h += p1 * f1
        del f1
        h += p2 * f2
        del f2
    return h


def stationarity_residual(msys: MultiplierSystem, cost: CostBundle, grid: DiscGrid,
                          states, controls, costates: CostateBundle):
    """dH/du-bar^a = H(e_a) - H(0), one field per control (exact for affine H).

    H is read at scalar controls, 0.0 and the unit vectors e_a, so
    `controls` gives only the control count: its values are not read.  A
    generator: each field is computed when it is asked for, so a caller
    that folds them in turn holds one at a time.
    """
    sv = [state_value(f) for f in states]
    pv = costates.values()
    x, y = grid.x, grid.y
    zero = [0.0] * len(controls)
    h0 = hamiltonian(msys, cost, x, y, sv, zero, pv)
    for a in range(len(zero)):
        unit = list(zero)
        unit[a] = 1.0
        h = hamiltonian(msys, cost, x, y, sv, unit, pv)
        h -= h0
        yield ScalarField(grid, h)
