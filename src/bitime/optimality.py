"""Hamiltonian assembly and the necessary-condition residuals.

A `MultiplierSystem` is the object the costate machinery works on: per
state i, a 2x2 matrix M_i(t, x) acting on grad x^i and a right-hand side
f_i(t, x, u-bar).  The Hamiltonian is H = X + sum_i p^i . f_i.  For a
canonically split quasi-linear system f_i = v_i (i < n) and
f_n = B - sum(v); the plastic example instead attaches its multipliers to
the gradient-solved equations (matrices I, I, K*I), which is the form its
stationarity relations and costate system are written in.

Residuals evaluated here:
  * stationarity dH/du-bar^a (minus the matrix-sensitivity correction for
    control-dependent coefficients),
  * the costate PDE, in general or variational form,
  * transversality on parametric circle samples, from closed-form samplers
    only -- grid values are never extrapolated to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import DiscGrid, ScalarField, partial
from .systems import QuasiLinearSystem, nest_array, state_value

__all__ = [
    "CostateBundle",
    "CostBundle",
    "MultiplierSystem",
    "split_multiplier_system",
    "hamiltonian",
    "stationarity_residual",
    "costate_residual",
    "transversality_residual",
]

_FD_STEP = 1e-6


@dataclass(frozen=True)
class CostateBundle:
    """One 2-vector multiplier field per state."""

    components: tuple[tuple[ScalarField, ScalarField], ...]

    def values(self):
        return [(p1.data, p2.data) for p1, p2 in self.components]


@dataclass(frozen=True)
class CostBundle:
    """Running cost X(t, x, u) and boundary cost g(t, x).

    Exact state gradients may be supplied; otherwise they are taken by a
    central difference in the state argument (angle states are perturbed by
    rotating their unit pair).
    """

    running: Callable = None
    boundary: Callable = None
    running_state_grad: Sequence[Callable] | None = None
    boundary_state_grad: Sequence[Callable] | None = None

    def running_value(self, x, y, states, controls):
        if self.running is None:
            return np.zeros(np.shape(x))
        return np.asarray(self.running(x, y, states, controls), dtype=float)

    def boundary_value(self, x, y, states):
        if self.boundary is None:
            return np.zeros(np.shape(x))
        return np.asarray(self.boundary(x, y, states), dtype=float)


@dataclass(frozen=True)
class MultiplierSystem:
    """Per-state matrices and multiplier-form right-hand sides."""

    n: int
    n_controls: int
    state_kinds: tuple[str, ...]  # "scalar" | "angle"
    matrices: tuple[Callable, ...]  # (x, y, states, controls) -> 2x2 nest
    rhs: tuple[Callable, ...]       # (x, y, states, controls) -> 2-vector

    def matrix(self, i: int, x, y, states, controls) -> np.ndarray:
        return nest_array(self.matrices[i - 1](x, y, states, controls), np.shape(x), 2)

    def rhs_value(self, i: int, x, y, states, controls) -> np.ndarray:
        return nest_array(self.rhs[i - 1](x, y, states, controls), np.shape(x), 1)


def split_multiplier_system(sys: QuasiLinearSystem, state_kinds: Sequence[str] | None = None
                            ) -> MultiplierSystem:
    """Multiplier form of a canonically split system.

    The control vector is the N initial controls followed by the 2(n-1)
    canonical components (v_1^1, v_1^2, v_2^1, ...).
    """
    n, nn = sys.n, sys.n_controls
    if state_kinds is None:
        state_kinds = ("scalar",) * n

    def make_rhs(i):
        if i < n:
            def f(x, y, states, controls, _i=i):
                base = nn + 2 * (_i - 1)
                return (controls[base], controls[base + 1])
        else:
            def f(x, y, states, controls):
                out = nest_array(sys.b(x, y, states, controls[:nn]), np.shape(x), 1)
                for j in range(n - 1):
                    out[0] -= controls[nn + 2 * j]
                    out[1] -= controls[nn + 2 * j + 1]
                return out
        return f

    def make_matrix(i):
        def m(x, y, states, controls, _i=i):
            return sys.a[_i - 1](x, y, states, controls[:nn])
        return m

    return MultiplierSystem(
        n=n,
        n_controls=nn + 2 * (n - 1),
        state_kinds=tuple(state_kinds),
        matrices=tuple(make_matrix(i) for i in range(1, n + 1)),
        rhs=tuple(make_rhs(i) for i in range(1, n + 1)),
    )


def hamiltonian(msys: MultiplierSystem, cost: CostBundle, x, y,
                states, controls, costates) -> np.ndarray:
    """H = X + sum_i p^i_beta f_i^beta at a point or over arrays."""
    h = cost.running_value(x, y, states, controls)
    for i in range(1, msys.n + 1):
        f = msys.rhs_value(i, x, y, states, controls)
        p1, p2 = costates[i - 1]
        h = h + p1 * f[0] + p2 * f[1]
    return h


def _perturbed_state(value, kind: str, delta: float):
    if kind == "angle":
        c, s = value
        cd, sd = math.cos(delta), math.sin(delta)
        return (c * cd - s * sd, s * cd + c * sd)
    return value + delta


def _with_state(states, i, value):
    out = list(states)
    out[i - 1] = value
    return out


def _with_control(controls, a, value):
    out = list(controls)
    out[a - 1] = value
    return out


def stationarity_residual(msys: MultiplierSystem, cost: CostBundle, grid: DiscGrid,
                          states, controls, costates: CostateBundle,
                          method: str = "affine") -> list[ScalarField]:
    """dH/du-bar^a minus the coefficient-sensitivity term, one field per control.

    "affine" extracts the linear coefficient exactly (valid for systems
    control-affine in u-bar, which covers the plastic case); "fd" uses a
    central difference with step 1e-6.
    """
    sv = [state_value(f) for f in states]
    cv = [f.data for f in controls]
    pv = costates.values()
    x, y = grid.X, grid.Y
    grads = [(f.partial(1).data, f.partial(2).data) for f in states]
    out = []
    h0 = hamiltonian(msys, cost, x, y, sv, cv, pv)
    for a in range(1, msys.n_controls + 1):
        if method == "affine":
            hp = hamiltonian(msys, cost, x, y, sv, _with_control(cv, a, cv[a - 1] + 1.0), pv)
            dh = hp - h0
        elif method == "fd":
            hp = hamiltonian(msys, cost, x, y, sv, _with_control(cv, a, cv[a - 1] + _FD_STEP), pv)
            hm = hamiltonian(msys, cost, x, y, sv, _with_control(cv, a, cv[a - 1] - _FD_STEP), pv)
            dh = (hp - hm) / (2.0 * _FD_STEP)
        else:
            raise ValueError("method must be 'affine' or 'fd'")
        # - p^i_beta dM_i^{beta alpha}/du^a dx^i/dt^alpha
        corr = np.zeros(grid.shape)
        for i in range(1, msys.n + 1):
            mp = msys.matrix(i, x, y, sv, _with_control(cv, a, cv[a - 1] + _FD_STEP))
            mm = msys.matrix(i, x, y, sv, _with_control(cv, a, cv[a - 1] - _FD_STEP))
            dm = (mp - mm) / (2.0 * _FD_STEP)
            if not dm.any():
                continue
            p1, p2 = pv[i - 1]
            gx, gy = grads[i - 1]
            corr += p1 * (dm[0, 0] * gx + dm[0, 1] * gy) + p2 * (dm[1, 0] * gx + dm[1, 1] * gy)
        out.append(grid.field(dh - corr))
    return out


def _dh_dstate(msys, cost, grid, sv, cv, pv, i):
    x, y = grid.X, grid.Y
    kind = msys.state_kinds[i - 1]
    hp = hamiltonian(msys, cost, x, y,
                     _with_state(sv, i, _perturbed_state(sv[i - 1], kind, _FD_STEP)), cv, pv)
    hm = hamiltonian(msys, cost, x, y,
                     _with_state(sv, i, _perturbed_state(sv[i - 1], kind, -_FD_STEP)), cv, pv)
    return (hp - hm) / (2.0 * _FD_STEP)


def costate_residual(msys: MultiplierSystem, cost: CostBundle, grid: DiscGrid,
                     states, controls, costates: CostateBundle,
                     variational: bool = False) -> list[ScalarField]:
    """Residual of the costate PDE per state (no sum over the state index).

    res_i = dH/dx^i + sum_{alpha,beta} [ d(p^i_beta)/dt^alpha M_i^{beta alpha}
            + p^i_beta d(M_i^{beta alpha})/dt^alpha ]
            - sum_j p^j_beta dM_j^{beta alpha}/dx^i dx^j/dt^alpha

    The divergence term is discretised in expanded (Leibniz) form so the
    variational specialisation -- which drops j = i from the last sum -- is
    the identical assembly whenever M_i does not depend on its own state.
    """
    sv = [state_value(f) for f in states]
    cv = [f.data for f in controls]
    pv = costates.values()
    x, y = grid.X, grid.Y
    grads = [(f.partial(1).data, f.partial(2).data) for f in states]
    mats = [msys.matrix(i, x, y, sv, cv) for i in range(1, msys.n + 1)]
    # grid derivatives of the composed matrix entries (total t-derivative)
    mat_dt = []
    for m in mats:
        d = np.empty((2, 2, 2) + grid.shape)  # [beta, alpha, t-axis]
        for b in range(2):
            for al in range(2):
                entry = grid.field(m[b, al])
                d[b, al, 0] = partial(entry, 1).data
                d[b, al, 1] = partial(entry, 2).data
        mat_dt.append(d)

    out = []
    for i in range(1, msys.n + 1):
        res = _dh_dstate(msys, cost, grid, sv, cv, pv, i)
        p = pv[i - 1]
        pgrad = [(partial(costates.components[i - 1][b], 1).data,
                  partial(costates.components[i - 1][b], 2).data) for b in range(2)]
        for b in range(2):
            for al in range(2):
                res = res + pgrad[b][al] * mats[i - 1][b, al] + p[b] * mat_dt[i - 1][b, al, al]
        kind = msys.state_kinds[i - 1]
        sp = _with_state(sv, i, _perturbed_state(sv[i - 1], kind, _FD_STEP))
        sm = _with_state(sv, i, _perturbed_state(sv[i - 1], kind, -_FD_STEP))
        for j in range(1, msys.n + 1):
            if variational and j == i:
                continue
            mj_p = msys.matrix(j, x, y, sp, cv)
            mj_m = msys.matrix(j, x, y, sm, cv)
            dm = (mj_p - mj_m) / (2.0 * _FD_STEP)
            if not dm.any():
                continue
            pj = pv[j - 1]
            gx, gy = grads[j - 1]
            res = res - (pj[0] * (dm[0, 0] * gx + dm[0, 1] * gy)
                         + pj[1] * (dm[1, 0] * gx + dm[1, 1] * gy))
        out.append(grid.field(res))
    return out


def transversality_residual(msys: MultiplierSystem, cost: CostBundle,
                            samples: tuple[np.ndarray, np.ndarray],
                            state_samplers: Sequence[Callable],
                            costate_samplers: Sequence[Callable],
                            control_samplers: Sequence[Callable] = ()) -> list[np.ndarray]:
    """dg/dx^i - p^i_beta M_i^{beta alpha} n_alpha at each circle sample.

    `samples` is the (x, y) pair of circle points from `boundary_samples`,
    which are also the normals n.  All other inputs are closed-form
    samplers of (x, y); nothing is read off the grid, so the
    machine-precision boundary identities are checked exactly.
    """
    xs, ys = samples  # also the normals n
    states = [f(xs, ys) for f in state_samplers]
    controls = [np.broadcast_to(f(xs, ys), xs.shape) for f in control_samplers]
    out = []
    for i in range(1, msys.n + 1):
        kind = msys.state_kinds[i - 1]
        if cost.boundary_state_grad is not None:
            dg = np.broadcast_to(cost.boundary_state_grad[i - 1](xs, ys, states), xs.shape)
        else:
            gp = cost.boundary_value(xs, ys, _with_state(states, i, _perturbed_state(states[i - 1], kind, _FD_STEP)))
            gm = cost.boundary_value(xs, ys, _with_state(states, i, _perturbed_state(states[i - 1], kind, -_FD_STEP)))
            dg = (gp - gm) / (2.0 * _FD_STEP)
        m = msys.matrix(i, xs, ys, states, controls)
        p1, p2 = costate_samplers[i - 1](xs, ys)
        flux = (p1 * (m[0, 0] * xs + m[0, 1] * ys)
                + p2 * (m[1, 0] * xs + m[1, 1] * ys))
        out.append(np.asarray(dg - flux))
    return out
