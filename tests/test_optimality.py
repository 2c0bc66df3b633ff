
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime.grid import build_disc_grid, boundary_samples
from bitime.optimality import (CostBundle, CostateBundle, costate_residual,
                               hamiltonian, split_multiplier_system,
                               stationarity_residual, transversality_residual)
from bitime.plastic import (Family, build_state, canonical_controls,
                            costate_bundle_star, costates_star, phi_star,
                            plastic_cost, plastic_multiplier_system,
                            plastic_system)
from bitime.systems import QuasiLinearSystem


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


class TestSplitMultiplierSystem:
    def test_canonical_rhs(self, grid32):
        # for a split system the multiplier rhs are the v controls and B - sum v
        base = QuasiLinearSystem(
            n=2, n_controls=0,
            a=(lambda x, y, s, c: ((1.0, 0.0), (0.0, 1.0)),) * 2,
            b=lambda x, y, s, c: (5.0, -1.0))
        msys = split_multiplier_system(base)
        assert msys.n_controls == 2
        f1 = msys.rhs_value(1, np.asarray(0.1), np.asarray(0.2), [0.0, 0.0], [3.0, 4.0])
        assert f1[0] == 3.0 and f1[1] == 4.0
        f2 = msys.rhs_value(2, np.asarray(0.1), np.asarray(0.2), [0.0, 0.0], [3.0, 4.0])
        assert f2[0] == 2.0 and f2[1] == -5.0


class TestStationarity:
    def test_vanishes_under_relations_26(self, quad_setup):
        grid, state, controls, costates = quad_setup
        res = stationarity_residual(MSYS, COST, grid, state.as_list(), controls,
                                    costates, method="affine")
        assert len(res) == 4
        assert max(r.max_norm() for r in res) <= 1e-12

    def test_affine_matches_fd(self, quad_setup):
        grid, state, controls, costates = quad_setup
        aff = stationarity_residual(MSYS, COST, grid, state.as_list(), controls,
                                    costates, method="affine")
        fd = stationarity_residual(MSYS, COST, grid, state.as_list(), controls,
                                   costates, method="fd")
        assert max((a - b).max_norm() for a, b in zip(aff, fd)) <= 1e-6

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

    def test_bad_method(self, quad_setup):
        grid, state, controls, costates = quad_setup
        with pytest.raises(ValueError):
            stationarity_residual(MSYS, COST, grid, state.as_list(), controls,
                                  costates, method="nope")


class TestCostateResidual:
    def test_rho_line_exact(self, quad_setup):
        # state 1 line is div p = dp1/dx + dp2/dy = 0 for p = (y, -x)
        grid, state, controls, costates = quad_setup
        res = costate_residual(MSYS, COST, grid, state.as_list(), controls, costates)
        assert res[0].max_norm() <= 1e-12

    def test_all_lines_order_h2(self, quad_setup):
        grid, state, controls, costates = quad_setup
        res = costate_residual(MSYS, COST, grid, state.as_list(), controls, costates)
        for r in res:
            assert r.max_norm() <= 200.0 * grid.h**2

    def test_zero_costates_zero_residual(self, quad_setup):
        grid, state, controls, _ = quad_setup
        zero = CostateBundle(components=tuple(
            (grid.zeros(), grid.zeros()) for _ in range(3)))
        res = costate_residual(MSYS, COST, grid, state.as_list(), controls, zero)
        # X = 0 and all multipliers 0: H = 0 identically
        assert max(r.max_norm() for r in res) <= 1e-12

    def test_general_equals_variational(self, quad_setup):
        # N = 0 and no M_i depends on its own state, so the two forms coincide
        grid, state, controls, costates = quad_setup
        gen = costate_residual(MSYS, COST, grid, state.as_list(), controls,
                               costates, variational=False)
        var = costate_residual(MSYS, COST, grid, state.as_list(), controls,
                               costates, variational=True)
        assert max((g - v).max_norm() for g, v in zip(gen, var)) <= 1e-10


def closed_form_samplers():
    fam = Family("quadratic", 1.0)

    def state_rho(x, y):
        return fam.rho(x, y)

    def state_k(x, y):
        return fam.k(x, y)

    def state_phi(x, y):
        return phi_star(x, y)

    def costate(i):
        def f(x, y):
            vals = costates_star(x, y)
            return ((vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5]))[i]
        return f

    zero = lambda x, y: np.zeros(np.shape(x))
    return ([state_rho, state_k, state_phi],
            [costate(0), costate(1), costate(2)],
            [zero] * 4)


class TestTransversality:
    def run(self, samples):
        states, costates, controls = closed_form_samplers()
        return transversality_residual(MSYS, COST, samples, states, costates, controls)

    def test_closed_forms_on_circle(self):
        res = self.run(boundary_samples(360))
        # rows: rho (p.n), K (r.n), phi (dg/dphi - K q.n) = (0, 0, 1 - q.n)
        for row in res:
            assert np.abs(row).max() <= 1e-12

    def test_single_point(self):
        res = self.run((np.array([0.0]), np.array([1.0])))
        assert all(abs(float(row[0])) <= 1e-14 for row in res)

    def test_rotation_invariance(self):
        base = max(np.abs(row).max() for row in self.run(boundary_samples(36)))
        delta = 0.7
        xs, ys = boundary_samples(36)
        th = np.arctan2(ys, xs) + delta
        rot = max(np.abs(row).max() for row in self.run((np.cos(th), np.sin(th))))
        assert abs(base - rot) <= 1e-12

    def test_fd_boundary_gradient_fallback(self):
        # dropping the exact gradient exercises the FD-in-state path; samples
        # near y = 0 are excluded because atan2 branch-cuts there (phi* = pi),
        # which is exactly why the plastic cost ships an exact gradient
        cost = CostBundle(running=None, boundary=COST.boundary)
        states, costates, controls = closed_form_samplers()
        xs, ys = boundary_samples(16)
        keep = np.abs(ys) > 0.1
        res = transversality_residual(MSYS, cost, (xs[keep], ys[keep]),
                                      states, costates, controls)
        for row in res:
            assert np.abs(row).max() <= 1e-8
