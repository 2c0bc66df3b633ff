"""The perfect-plastic plane-medium example in polar stress variables.

State order is (rho, K, phi): mean stress, Mohr-circle radius, principal
direction angle.  The angle is carried exclusively as its (cos, sin) unit
pair; the closed-form sheet used throughout is

    phi*(x, y) = pi - 2 atan2(y, x),
    cos phi* = (y^2 - x^2)/r^2,   sin phi* = 2 x y / r^2.

Four closed-form solution families (quadratic, 1/x, 1/y, constant K) are
provided together with their exact gradients, the canonical control fields,
the closed-form costates, and the residual assemblies specific to this
system: stress equilibrium, the second-order K-equation, the costate
system, and the circle boundary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import AngleField, DiscGrid, ExclusionZone, ScalarField, partial
from .optimality import CostateBundle, CostBundle, MultiplierSystem
from .systems import QuasiLinearSystem

__all__ = [
    "FAMILY_KINDS",
    "Family",
    "phi_star",
    "phi_star_field",
    "PlasticState",
    "build_state",
    "canonical_controls",
    "plastic_system",
    "plastic_multiplier_system",
    "plastic_cost",
    "StressTensor2D",
    "stress_from_polar",
    "equilibrium_residual",
    "k_equation_residual",
    "costates_star",
    "costate_bundle_star",
    "costate_system_residual",
    "boundary_condition_residual",
]

FAMILY_KINDS = ("quadratic", "inv_x", "inv_y", "constant")


def phi_star(x, y):
    """The closed-form angle sheet as its (cos, sin) pair.

    cos = (y^2 - x^2)/r^2, sin = 2xy/r^2; undefined at the origin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    if np.any(r2 == 0.0):
        raise ValueError("angle singular at origin")
    return (y * y - x * x) / r2, 2.0 * x * y / r2


def phi_star_field(grid: DiscGrid) -> AngleField:
    return AngleField(*grid.sample(phi_star))


@dataclass(frozen=True)
class Family:
    """A closed-form (K, rho) solution family compatible with phi*.

    kinds and their fields (c0 is the free additive constant of rho):
      quadratic : K = a r^2,  rho = -2 a r^2 + c0
      inv_x     : K = b / x,  rho =  b / x   + c0
      inv_y     : K = g / y,  rho =  g / y   + c0
      constant  : K = d,      rho = -d ln r^2 + c0

    eps0 sizes the exclusion zone keeping the grid away from the family's
    singular set (and from the origin, where the angle sheet degenerates).
    """

    kind: str
    coeff: float
    c0: float = 0.0
    eps0: float = 0.1

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.coeff <= 0:
            raise ValueError("family coefficient must be positive (K > 0)")
        if not 0 < self.eps0 < 1:
            raise ValueError("family zone size must be in (0, 1)")

    def least_k(self, h: float) -> float:
        """A lower bound of K on the nodes of a grid at spacing h.

        Quadratic K = a r^2, and a node has r^2 >= eps0^2 - 1e-15 (its
        zone's test, in the same float arithmetic) and r^2 >= h^2 (the
        origin is no node: the angle sheet is singular there); 1/x and 1/y
        exceed their coefficient inside the unit disc, and constant K is its
        coefficient.
        """
        if self.kind == "quadratic":
            return self.coeff * max(self.eps0**2 - 1e-15, h * h)
        return self.coeff

    def zones(self) -> tuple[ExclusionZone, ...]:
        if self.kind == "inv_x":
            return (ExclusionZone("half_x", self.eps0),)
        if self.kind == "inv_y":
            return (ExclusionZone("half_y", self.eps0),)
        return (ExclusionZone("origin", self.eps0),)

    def _domain(self, x, y):
        """(x, y) as float arrays; raises if any point is on the singular set."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "inv_x":
            singular = x == 0.0
        elif self.kind == "inv_y":
            singular = y == 0.0
        else:
            singular = x * x + y * y == 0.0
        if np.any(singular):
            raise ValueError("family singular here")
        return x, y

    def k(self, x, y):
        x, y = self._domain(x, y)
        if self.kind == "quadratic":
            return self.coeff * (x * x + y * y)
        if self.kind == "inv_x":
            return self.coeff / x
        if self.kind == "inv_y":
            return self.coeff / y
        return self.coeff * np.ones(np.shape(x))

    def rho(self, x, y):
        x, y = self._domain(x, y)
        if self.kind == "quadratic":
            return -2.0 * self.coeff * (x * x + y * y) + self.c0
        if self.kind == "inv_x":
            return self.coeff / x + self.c0
        if self.kind == "inv_y":
            return self.coeff / y + self.c0
        return -self.coeff * np.log(x * x + y * y) + self.c0

    def k_grad(self, x, y):
        x, y = self._domain(x, y)
        zero = np.zeros(np.shape(x))
        if self.kind == "quadratic":
            return 2.0 * self.coeff * x, 2.0 * self.coeff * y
        if self.kind == "inv_x":
            return -self.coeff / (x * x), zero
        if self.kind == "inv_y":
            return zero, -self.coeff / (y * y)
        return zero, zero

    def rho_grad(self, x, y):
        x, y = self._domain(x, y)
        zero = np.zeros(np.shape(x))
        if self.kind == "quadratic":
            return -4.0 * self.coeff * x, -4.0 * self.coeff * y
        if self.kind == "inv_x":
            return -self.coeff / (x * x), zero
        if self.kind == "inv_y":
            return zero, -self.coeff / (y * y)
        r2 = x * x + y * y
        return -2.0 * self.coeff * x / r2, -2.0 * self.coeff * y / r2


@dataclass(frozen=True)
class PlasticState:
    """(rho, K, phi) on a common grid with K > 0 enforced."""

    rho: ScalarField
    k: ScalarField
    phi: AngleField

    def __post_init__(self):
        grid = self.rho.grid
        if self.k.grid is not grid or self.phi.grid is not grid:
            raise ValueError("state components live on different grids")
        if (self.k.data <= 0).any():
            raise ValueError("degenerate Mohr radius")

    def as_list(self):
        return [self.rho, self.k, self.phi]


def build_state(grid: DiscGrid, family: Family) -> PlasticState:
    """Family state with the closed-form angle sheet."""
    return PlasticState(rho=grid.field(family.rho),
                        k=grid.field(family.k),
                        phi=phi_star_field(grid))


def canonical_controls(grid: DiscGrid, family: Family) -> tuple[ScalarField, ...]:
    """(u, v, mu, nu) from the exact family gradients.

    (u, v) = grad rho; (mu, nu) solve the rotated K-equation, i.e.
    mu = -c K_x + s K_y, nu = s K_x + c K_y with (c, s) = phi*.
    """
    def controls(x, y):
        u, v = family.rho_grad(x, y)
        kx, ky = family.k_grad(x, y)
        c, s = phi_star(x, y)
        return u, v, -c * kx + s * ky, s * kx + c * ky

    return grid.sample(controls)


def _phi_cs(value):
    """(cos, sin) of an angle state given as a unit pair or a scalar sheet."""
    if isinstance(value, tuple):
        return value
    return np.cos(value), np.sin(value)


def plastic_system() -> QuasiLinearSystem:
    """The quasi-linear form: A_1 = I (rho), A_2 rotation-like (K), A_3 (phi).

    State values arrive as (rho, K, phi) where phi is either the (cos, sin)
    pair of an AngleField or a plain scalar sheet (usable on zones where a
    single-valued angle exists); B = 0 and there are no initial controls.
    """
    def a1(x, y, states, controls):
        return ((1.0, 0.0), (0.0, 1.0))

    def a2(x, y, states, controls):
        c, s = _phi_cs(states[2])
        return ((-c, s), (s, c))

    def a3(x, y, states, controls):
        k = states[1]
        c, s = _phi_cs(states[2])
        return ((k * s, k * c), (k * c, -k * s))

    def b(x, y, states, controls):
        return (0.0, 0.0)

    return QuasiLinearSystem(a=(a1, a2, a3), b=b)


def plastic_multiplier_system() -> MultiplierSystem:
    """Multiplier form attached to the gradient-solved equations.

    The equations are grad rho = f_1, grad K = f_2 and K grad phi = f_3
    (matrices I, I, K I); right-hand sides in the controls (u, v, mu, nu):
      f_1 = (u, v)
      f_2 = (-mu c + nu s,  mu s + nu c)
      f_3 = (-(u+mu) s - (v+nu) c,  -(u+mu) c + (v+nu) s)
    """
    def f1(x, y, states, controls):
        u, v = controls[0], controls[1]
        return (u, v)

    def f2(x, y, states, controls):
        mu, nu = controls[2], controls[3]
        c, s = states[2]
        return (-mu * c + nu * s, mu * s + nu * c)

    def f3(x, y, states, controls):
        u, v, mu, nu = controls[:4]
        c, s = states[2]
        return (-(u + mu) * s - (v + nu) * c, -(u + mu) * c + (v + nu) * s)

    return MultiplierSystem(rhs=(f1, f2, f3))


def plastic_cost() -> CostBundle:
    """Zero running cost.

    The boundary cost g = phi enters only the circle conditions, through
    dg/dphi = 1 in `boundary_condition_residual`.
    """
    return CostBundle(running=None)


@dataclass(frozen=True)
class StressTensor2D:
    """Cartesian stress components on a grid."""

    sxx: ScalarField
    syy: ScalarField
    sxy: ScalarField


def stress_from_polar(state: PlasticState) -> StressTensor2D:
    """sigma_xx = rho - K c, sigma_yy = rho + K c, sigma_xy = K s."""
    kc = state.k * state.phi.c
    return StressTensor2D(sxx=state.rho - kc,
                          syy=state.rho + kc,
                          sxy=state.k * state.phi.s)


def equilibrium_residual(stress: StressTensor2D) -> tuple[ScalarField, ScalarField]:
    """Divergence of the stress tensor, row by row."""
    r1 = partial(stress.sxx, 1) + partial(stress.sxy, 2)
    r2 = partial(stress.sxy, 1) + partial(stress.syy, 2)
    return r1, r2


def k_equation_residual(k: ScalarField) -> ScalarField:
    """The decoupled second-order equation satisfied by K under phi*.

    2 (y^2 - x^2) K_xy - 2 x y (K_yy - K_xx) + 4 (y K_x - x K_y) = 0,
    with composed first-derivative stencils for the second derivatives.
    """
    g = k.grid
    kx = partial(k, 1)
    ky = partial(k, 2)
    kxy = partial(kx, 2)
    kxx = partial(kx, 1)
    kyy = partial(ky, 2)
    out = (2.0 * (g.y**2 - g.x**2) * kxy.data
           - 2.0 * g.x * g.y * (kyy.data - kxx.data)
           + 4.0 * (g.y * kx.data - g.x * ky.data))
    return ScalarField(g, out)


def costates_star(x, y, q1_shift: float = 0.0):
    """Closed-form costates (p1, p2, r1, r2, q1, q2) of the angle-cost problem.

    p = (y, -x); q1 = y s - x c, q2 = y c + x s with (c, s) = phi*;
    r = (-q2, q1).  A nonzero q1_shift is the negative control: it is added
    to the returned q1 only (r keeps the exact q1).
    """
    c, s = phi_star(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q1 = y * s - x * c
    q2 = y * c + x * s
    return y, -x, -q2, q1, q1 + q1_shift, q2


def costate_bundle_star(grid: DiscGrid, q1_shift: float = 0.0) -> CostateBundle:
    """The closed-form costates as fields, ordered (p, r, q) to match (rho, K, phi)."""
    p1, p2, r1, r2, q1, q2 = grid.sample(lambda x, y: costates_star(x, y, q1_shift))
    return CostateBundle(components=((p1, p2), (r1, r2), (q1, q2)))


def costate_system_residual(p1: ScalarField, p2: ScalarField,
                            q1: ScalarField, q2: ScalarField,
                            phi: AngleField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Residuals of the three costate PDE lines.

    l1 = dp1/dx + dp2/dy
    l2 = -dq2/dx + dq1/dy - q1 phi_x - q2 phi_y
    l3 =  dq1/dx + dq2/dy + q1 phi_y - q2 phi_x
    """
    phix, phiy = phi.partial(1), phi.partial(2)
    l1 = partial(p1, 1) + partial(p2, 2)
    l2 = -1.0 * partial(q2, 1) + partial(q1, 2) - q1 * phix - q2 * phiy
    l3 = partial(q1, 1) + partial(q2, 2) + q1 * phiy - q2 * phix
    return l1, l2, l3


def boundary_condition_residual(x, y, q1_shift: float = 0.0
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circle conditions p.n, q.n - 1, r.n from the closed-form costates.

    (x, y) are points of S^1 (see `boundary_samples`), so n = (x, y).  The
    "- 1" is dg/dphi for the boundary cost g = phi; g does not depend on
    rho or K, so (27.1) and (27.3) have no such term.
    """
    p1, p2, r1, r2, q1, q2 = costates_star(x, y, q1_shift)
    return (p1 * x + p2 * y,
            q1 * x + q2 * y - 1.0,
            r1 * x + r2 * y)
