
import numpy as np
import pytest

from bitime.grid import build_disc_grid
from bitime.optimality import CostateBundle, hamiltonian, stationarity_residual
from bitime.plastic import (Family, build_state, canonical_controls,
                            costate_bundle_star, plastic_cost,
                            plastic_multiplier_system)


@pytest.fixture(scope="module")
def quad_setup():
    fam = Family("quadratic", 1.0)
    grid = build_disc_grid(1 / 32, zones=fam.zones())
    state = build_state(grid, fam)
    controls = canonical_controls(grid, fam)
    costates = costate_bundle_star(grid)
    return grid, state, controls, costates


MSYS = plastic_multiplier_system()
COST = plastic_cost()


def point_h(states, controls, costates, x=0.3, y=0.4):
    x = np.asarray(x)
    return float(hamiltonian(MSYS, COST, x, np.asarray(y), states, controls, costates))


class TestHamiltonian:
    def test_zero_controls(self):
        # H is homogeneous in the controls when X = 0
        states = [0.0, 1.0, (1.0, 0.0)]
        controls = [0.0, 0.0, 0.0, 0.0]
        costates = [(0.3, -0.2), (1.0, 2.0), (0.5, 0.5)]
        assert point_h(states, controls, costates) == 0.0

    def test_phi_zero_u_one(self):
        # phi = 0, u = 1, p1 = 1, q = (0, 1): H = p1*1 + q2*(-1) = 0
        states = [0.0, 1.0, (1.0, 0.0)]
        controls = [1.0, 0.0, 0.0, 0.0]
        costates = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]
        assert abs(point_h(states, controls, costates)) <= 1e-14

    def test_phi_zero_mu_one(self):
        # phi = 0, mu = 1, r = (-1, 0), q = (0, 1): r1*(-1) + q2*(-1) = 1 - 1
        states = [0.0, 1.0, (1.0, 0.0)]
        controls = [0.0, 0.0, 1.0, 0.0]
        costates = [(0.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]
        assert abs(point_h(states, controls, costates)) <= 1e-14


class TestStationarity:
    def test_vanishes_under_relations_26(self, quad_setup):
        grid, state, controls, costates = quad_setup
        res = list(stationarity_residual(MSYS, COST, grid, state.as_list(), controls,
                                         costates))
        assert len(res) == 4
        assert max(r.max_norm() for r in res) <= 1e-12

    def test_components_match_hand_formulas(self, quad_setup):
        # dH/du^a of H = p.f_1 + r.f_2 + q.f_3, written out by hand, on
        # costates that violate relations (26)
        grid, state, controls, _ = quad_setup
        f = grid.field
        p1, p2 = f(lambda x, y: x + 1.0), f(0.5)
        r1, r2 = f(0.2), f(lambda x, y: y * y)
        q1, q2 = f(lambda x, y: x * y), f(-1.0)
        bad = CostateBundle(components=((p1, p2), (r1, r2), (q1, q2)))
        c, s = state.phi.c, state.phi.s
        expect = (p1 - q1 * s - q2 * c,
                  p2 - q1 * c + q2 * s,
                  -1.0 * r1 * c + r2 * s - q1 * s - q2 * c,
                  r1 * s + r2 * c - q1 * c + q2 * s)
        res = list(stationarity_residual(MSYS, COST, grid, state.as_list(), controls, bad))
        for got, want in zip(res, expect):
            assert (got - want).max_norm() <= 1e-12
        assert min(r.max_norm() for r in res) > 0.1

    def test_violating_costates_nonzero(self, quad_setup):
        grid, state, controls, _ = quad_setup
        # random-ish costates violating relations (26)
        f = grid.field
        bad = CostateBundle(components=(
            (f(lambda x, y: x + 1.0), f(0.5)),
            (f(0.2), f(lambda x, y: y)),
            (f(1.0), f(-1.0))))
        res = stationarity_residual(MSYS, COST, grid, state.as_list(), controls, bad)
        assert max(r.max_norm() for r in res) > 1e-3
