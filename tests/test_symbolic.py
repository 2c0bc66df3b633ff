"""Symbolic oracle: the closed forms satisfy the continuous conditions.

No stencil enters here.  Each family's (K, rho), the angle sheet phi*, the
canonical controls and the closed-form costates are written in sympy with
a symbolic coefficient `a` and constant `c0`; every condition the suite
scores is differentiated exactly and must simplify to 0.  The forward
system (8.x) and the Hamiltonian of (26) are built from the package's own
coefficient and right-hand-side callables, and the sympy closed forms are
checked against the package's numeric ones at sample points, so the oracle
speaks about the code rather than about a copy of it.

The costates and the angle sheet do not depend on the family, so (26),
(27.x) and (28.x) are one check each for all four families.
"""

import numpy as np
import pytest
import sympy as sp

from bitime.grid import build_disc_grid
from bitime.plastic import (FAMILY_KINDS, Family, canonical_controls,
                            costates_star, phi_star, plastic_multiplier_system,
                            plastic_system)

x, y, t = sp.symbols("x y t", real=True)
a = sp.symbols("a", positive=True)
c0 = sp.symbols("c0", real=True)
R2 = x**2 + y**2
PHI = sp.pi - 2 * sp.atan2(y, x)
C, S = (y**2 - x**2) / R2, 2 * x * y / R2  # cos phi*, sin phi*
PHI_X, PHI_Y = sp.diff(PHI, x), sp.diff(PHI, y)
Q1, Q2 = y * S - x * C, y * C + x * S
COSTATES = ((y, -x), (-Q2, Q1), (Q1, Q2))  # (p, r, q), ordered like (rho, K, phi)

FAMILIES = {
    "quadratic": (a * R2, -2 * a * R2 + c0),
    "inv_x": (a / x, a / x + c0),
    "inv_y": (a / y, a / y + c0),
    "constant": (a + 0 * x, -a * sp.log(R2) + c0),
}

POINTS = (np.array([0.3, 0.5, 0.25, -0.6]), np.array([0.4, -0.2, 0.6, 0.35]))


def vanishes(expr) -> bool:
    return sp.simplify(expr) == 0


def controls(kind):
    k, rho = FAMILIES[kind]
    kx, ky = sp.diff(k, x), sp.diff(k, y)
    return sp.diff(rho, x), sp.diff(rho, y), -C * kx + S * ky, S * kx + C * ky


def conditions(kind):
    """Continuous form of every grid condition the suite scores for `kind`."""
    d = sp.diff
    k, rho = FAMILIES[kind]
    kx, ky = d(k, x), d(k, y)
    sxx, syy, sxy = rho - k * C, rho + k * C, k * S
    u, v, mu, nu = controls(kind)
    states = [rho, k, (C, S)]
    grads = [(d(rho, x), d(rho, y)), (kx, ky), (PHI_X, PHI_Y)]
    forward = [sum(sys_a(x, y, states, [])[beta][al] * grads[i][al]
                   for i, sys_a in enumerate(plastic_system().a) for al in range(2))
               for beta in range(2)]
    b1 = (u + mu) * S + (v + nu) * C
    b2 = (u + mu) * C - (v + nu) * S
    return {
        "(7.1)": d(sxx, x) + d(sxy, y),
        "(7.2)": d(sxy, x) + d(syy, y),
        "(7.3)": (syy - sxx)**2 + 4 * sxy**2 - 4 * k**2,
        "(8.1)": forward[0],
        "(8.2)": forward[1],
        "(10.1)": d(u, y) - d(v, x),
        "(10.2)": d(-mu * C + nu * S, y) - d(mu * S + nu * C, x),
        "(10.3)": d(b1, y) + ky * PHI_X - d(b2, x) - kx * PHI_Y,
        "(K-equation)": (2 * (y**2 - x**2) * d(k, x, y) - 2 * x * y * (d(k, y, 2) - d(k, x, 2))
                         + 4 * (y * kx - x * ky)),
    }


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_conditions_vanish(kind):
    residuals = conditions(kind)
    assert [name for name, expr in residuals.items() if not vanishes(expr)] == []


def test_angle_sheet():
    # (C, S) is the unit pair of phi*, and c dS - s dC is its gradient, the
    # branch-free rule `AngleField.partial` uses
    assert vanishes(C**2 + S**2 - 1)
    assert vanishes(C * sp.diff(S, x) - S * sp.diff(C, x) - PHI_X)
    assert vanishes(C * sp.diff(S, y) - S * sp.diff(C, y) - PHI_Y)
    cos_phi = sp.lambdify((x, y), sp.cos(PHI))(*POINTS)
    sin_phi = sp.lambdify((x, y), sp.sin(PHI))(*POINTS)
    c, s = phi_star(*POINTS)
    assert np.abs(c - cos_phi).max() <= 1e-14 and np.abs(s - sin_phi).max() <= 1e-14


def test_stationarity_26():
    # dH/du^a of the package's multiplier right-hand sides vanishes at the
    # closed-form costates
    u = sp.symbols("u v mu nu", real=True)
    states = [None, None, (C, S)]
    f = [fn(x, y, states, u) for fn in plastic_multiplier_system().rhs]
    ham = sum(p[0] * fi[0] + p[1] * fi[1] for p, fi in zip(COSTATES, f))
    assert [ua for ua in u if not vanishes(sp.diff(ham, ua))] == []


def test_costate_system_28():
    (p1, p2), _, (q1, q2) = COSTATES
    d = sp.diff
    lines = (d(p1, x) + d(p2, y),
             -d(q2, x) + d(q1, y) - q1 * PHI_X - q2 * PHI_Y,
             d(q1, x) + d(q2, y) + q1 * PHI_Y - q2 * PHI_X)
    assert all(vanishes(line) for line in lines)


def test_circle_conditions_27():
    # p.n, q.n - dg/dphi and r.n on S^1, where n = (x, y) and g = phi
    on_circle = {x: sp.cos(t), y: sp.sin(t)}
    (p1, p2), (r1, r2), (q1, q2) = COSTATES
    rows = (p1 * x + p2 * y, q1 * x + q2 * y - 1, r1 * x + r2 * y)
    assert all(vanishes(row.subs(on_circle)) for row in rows)


def test_costates_match_package():
    want = [sp.lambdify((x, y), e)(*POINTS) for pair in COSTATES for e in pair]
    p1, p2, r1, r2, q1, q2 = costates_star(*POINTS)
    for got, expect in zip((p1, p2, r1, r2, q1, q2), want):
        assert np.abs(got - expect).max() <= 1e-14


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_closed_forms_match_package(kind):
    fam = Family(kind, 0.7, c0=0.3)
    num = lambda e: sp.lambdify((x, y), e.subs({a: 0.7, c0: 0.3}))
    k, rho = FAMILIES[kind]
    pts = (np.abs(POINTS[0]), POINTS[1]) if kind == "inv_x" else POINTS
    for got, expr in ((fam.k, k), (fam.rho, rho)):
        assert np.abs(got(*pts) - num(expr)(*pts)).max() <= 1e-12
    for got, expr in ((fam.k_grad, k), (fam.rho_grad, rho)):
        gx, gy = got(*pts)
        assert np.abs(gx - num(sp.diff(expr, x))(*pts)).max() <= 1e-12
        assert np.abs(gy - num(sp.diff(expr, y))(*pts)).max() <= 1e-12

    grid = build_disc_grid(1 / 16, zones=fam.zones())
    xs, ys = grid.x, grid.y
    for field, expr in zip(canonical_controls(grid, fam), controls(kind)):
        want = np.broadcast_to(num(expr)(xs, ys), xs.shape)
        assert np.abs(field.data - want).max() <= 1e-11
