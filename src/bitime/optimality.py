"""Hamiltonian assembly and the stationarity condition (26).

A `MultiplierSystem` is the right-hand side f_i(t, x, u-bar) of each
state's gradient-solved equation; the Hamiltonian is
H = X + sum_i p^i . f_i.  The plastic example attaches its multipliers to
the equations grad rho = f_1, grad K = f_2 and K grad phi = f_3 (matrices
I, I, K I), which is the form its stationarity relations, costate system
(28.x) and circle conditions (27.x) are written in; the last two are
assembled in `plastic`.

H is affine in the controls for every system built here, so dH/du-bar^a is
extracted exactly as H(u + e_a) - H(u): no step size, no finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import DiscGrid, ScalarField
from .systems import nest_array, state_value

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
        if self.running is None:
            return np.zeros(np.shape(x))
        return np.asarray(self.running(x, y, states, controls), dtype=float)


@dataclass(frozen=True)
class MultiplierSystem:
    """Multiplier-form right-hand sides f_i(x, y, states, controls) -> 2-vector."""

    n: int
    n_controls: int
    rhs: tuple[Callable, ...]

    def rhs_value(self, i: int, x, y, states, controls) -> np.ndarray:
        return nest_array(self.rhs[i - 1](x, y, states, controls), np.shape(x), 1)


def hamiltonian(msys: MultiplierSystem, cost: CostBundle, x, y,
                states, controls, costates) -> np.ndarray:
    """H = X + sum_i p^i_beta f_i^beta at a point or over arrays."""
    h = cost.running_value(x, y, states, controls)
    for i in range(1, msys.n + 1):
        f = msys.rhs_value(i, x, y, states, controls)
        p1, p2 = costates[i - 1]
        h = h + p1 * f[0] + p2 * f[1]
    return h


def stationarity_residual(msys: MultiplierSystem, cost: CostBundle, grid: DiscGrid,
                          states, controls, costates: CostateBundle) -> list[ScalarField]:
    """dH/du-bar^a = H(u + e_a) - H(u), one field per control (exact for affine H)."""
    sv = [state_value(f) for f in states]
    cv = [f.data for f in controls]
    pv = costates.values()
    x, y = grid.X, grid.Y
    h0 = hamiltonian(msys, cost, x, y, sv, cv, pv)
    out = []
    for a in range(msys.n_controls):
        shifted = list(cv)
        shifted[a] = cv[a] + 1.0
        out.append(grid.field(hamiltonian(msys, cost, x, y, sv, shifted, pv) - h0))
    return out
