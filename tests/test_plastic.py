import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime.grid import ExclusionZone, boundary_samples, build_disc_grid, line_integral
from bitime.plastic import (Family, PlasticState, boundary_condition_residual,
                            build_state, canonical_controls,
                            costate_system_residual, costates_star,
                            equilibrium_residual, k_equation_residual, k_family,
                            phi_star, phi_star_field, plastic_system,
                            rho_family, stress_from_polar)
from bitime.systems import forward_residual

ALL_FAMILIES = [Family("quadratic", 1.0), Family("inv_x", 1.0),
                Family("inv_y", 1.0), Family("constant", 1.0)]


def family_grid(fam, h=1 / 32):
    return build_disc_grid(h, zones=fam.zones())


class TestPhiStar:
    def test_values(self):
        for (x, y), (c, s) in [((0, 1), (1, 0)), ((1, 0), (-1, 0)), ((1, 1), (0, 1))]:
            got_c, got_s = phi_star(float(x), float(y))
            assert math.isclose(float(got_c), c, abs_tol=1e-14)
            assert math.isclose(float(got_s), s, abs_tol=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="angle singular at origin"):
            phi_star(0.0, 0.0)

    @given(x=st.floats(-1, 1), y=st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm(self, x, y):
        if x * x + y * y < 0.01:
            return
        c, s = phi_star(x, y)
        assert abs(float(c)**2 + float(s)**2 - 1.0) <= 1e-14

    def test_field(self):
        fam = Family("quadratic", 1.0)
        grid = family_grid(fam)
        pair = phi_star_field(grid)
        norm = pair.c.data**2 + pair.s.data**2
        assert abs(norm[grid.mask] - 1.0).max() <= 1e-14


class TestFamilies:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="unknown family"):
            Family("cubic", 1.0)
        with pytest.raises(ValueError, match="positive"):
            Family("quadratic", -1.0)

    def test_quadratic_values(self):
        fam = Family("quadratic", 1.0)
        assert float(fam.k(1.0, 1.0)) == 2.0
        assert float(fam.rho(1.0, 1.0)) == -4.0

    def test_constant_values(self):
        fam = Family("constant", 1.0)
        assert float(fam.k(1.0, 0.0)) == 1.0
        assert float(fam.rho(1.0, 0.0)) == 0.0  # ln 1 = 0

    def test_inv_x_values(self):
        fam = Family("inv_x", 1.0)
        assert float(fam.k(0.5, 0.0)) == 2.0
        assert float(fam.rho(0.5, 0.0)) == 2.0  # K = rho for this family

    def test_c0_shift(self):
        fam = Family("quadratic", 1.0, c0=3.0)
        assert float(fam.rho(1.0, 1.0)) == -1.0

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError, match="family singular here"):
            Family("inv_x", 1.0).k(0.0, 0.5)
        with pytest.raises(ValueError, match="family singular here"):
            Family("constant", 1.0).rho(0.0, 0.0)

    def test_family_fields_on_zone(self):
        fam = Family("inv_x", 1.0)
        grid = family_grid(fam)
        k = k_family(grid, fam)
        assert (k.data[grid.mask] > 0).all()
        xs, _ = grid.node_coordinates()
        assert xs.min() >= 0.1 - 1e-12

    def test_gradients_match_fd(self):
        # closed-form gradients cross-checked against stencil derivatives
        for fam in ALL_FAMILIES:
            grid = family_grid(fam, h=1 / 64)
            rho = rho_family(grid, fam)
            inner = grid.interior_mask(2)
            gx, gy = fam.rho_grad(grid.X[inner], grid.Y[inner])
            assert abs(rho.partial(1).data[inner] - gx).max() <= 3000.0 * grid.h**2
            assert abs(rho.partial(2).data[inner] - gy).max() <= 3000.0 * grid.h**2


class TestPlasticState:
    def test_positive_k_enforced(self):
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("origin", 0.1)])
        with pytest.raises(ValueError, match="degenerate Mohr radius"):
            PlasticState(rho=grid.zeros(), k=grid.field(0.0),
                         phi=phi_star_field(grid))

    def test_det_examples(self):
        # det A_1 = 1, det A_2 = -1, det A_3 = -K^2
        fam = Family("quadratic", 1.0)
        grid = family_grid(fam)
        state = build_state(grid, fam)
        sys = plastic_system()
        sv = [state.rho.data, state.k.data, (state.phi.c.data, state.phi.s.data)]
        a1 = sys.matrix(1, grid, sv, [])
        a2 = sys.matrix(2, grid, sv, [])
        a3 = sys.matrix(3, grid, sv, [])
        det = lambda a: a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert abs(det(a1)[grid.mask] - 1.0).max() <= 1e-14
        assert abs(det(a2)[grid.mask] + 1.0).max() <= 1e-14
        assert abs((det(a3) + state.k.data**2)[grid.mask]).max() <= 1e-12


class TestStress:
    def test_unit_substitution(self, grid32):
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("origin", 0.1)])
        state = PlasticState(rho=grid.zeros(), k=grid.field(1.0),
                             phi=phi_star_field(grid))
        # phi = 0 via a constant pair
        from bitime.grid import AngleField
        state = PlasticState(rho=grid.zeros(), k=grid.field(1.0),
                             phi=AngleField(grid.field(1.0), grid.field(0.0)))
        s = stress_from_polar(state)
        assert abs(s.sxx.data[grid.mask] + 1.0).max() <= 1e-14
        assert abs(s.syy.data[grid.mask] - 1.0).max() <= 1e-14
        assert s.sxy.max_norm() <= 1e-14

    def test_quadratic_point_values(self):
        fam = Family("quadratic", 1.0)
        # at (1,1): rho = -4, K = 2, (c, s) = (0, 1) -> (-4, -4, 2)
        c, s = phi_star(1.0, 1.0)
        rho, k = float(fam.rho(1.0, 1.0)), float(fam.k(1.0, 1.0))
        assert math.isclose(rho - k * float(c), -4.0, abs_tol=1e-14)
        assert math.isclose(rho + k * float(c), -4.0, abs_tol=1e-14)
        assert math.isclose(k * float(s), 2.0, abs_tol=1e-14)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_yield_identity(self, fam):
        grid = family_grid(fam)
        state = build_state(grid, fam)
        s = stress_from_polar(state)
        res = ((s.syy - s.sxx) * (s.syy - s.sxx) + 4.0 * s.sxy * s.sxy
               - 4.0 * state.k * state.k)
        assert res.max_norm() <= 1e-12

    def test_quadratic_equilibrium_exact(self):
        fam = Family("quadratic", 1.0)
        grid = family_grid(fam)
        r1, r2 = equilibrium_residual(stress_from_polar(build_state(grid, fam)))
        assert r1.max_norm() <= 1e-12
        assert r2.max_norm() <= 1e-12

    def test_constant_stress_zero_residual(self, grid32):
        from bitime.plastic import StressTensor2D
        s = StressTensor2D(grid32.field(2.0), grid32.field(-1.0), grid32.field(0.5))
        r1, r2 = equilibrium_residual(s)
        assert r1.max_norm() == 0.0
        assert r2.max_norm() == 0.0


class TestKEquation:
    def test_constant(self, grid32):
        assert k_equation_residual(grid32.field(5.0)).max_norm() == 0.0

    def test_quadratic_exact(self, grid32):
        res = k_equation_residual(grid32.field(lambda x, y: x * x + y * y))
        assert res.max_norm() <= 1e-12

    def test_inv_x_converges(self):
        norms = []
        for h in (1 / 32, 1 / 64):
            grid = build_disc_grid(h, zones=[ExclusionZone("half_x", 0.1)])
            with np.errstate(all="ignore"):  # off-mask x = 0 column
                res = k_equation_residual(
                    grid.field(lambda x, y: 1.0 / np.where(x == 0, np.inf, x)))
            inner = grid.interior_mask(2) if h == 1 / 32 else None
            norms.append((grid, res))
        coarse_grid, coarse = norms[0]
        fine_grid, fine = norms[1]
        inner = coarse_grid.interior_mask(2)
        xs, ys = coarse_grid.X[inner], coarse_grid.Y[inner]

        def at(grid, f):
            i = np.rint((xs - grid.coords[0]) / grid.h).astype(int)
            j = np.rint((ys - grid.coords[0]) / grid.h).astype(int)
            return np.abs(f.data[i, j]).max()

        ratio = at(coarse_grid, coarse) / at(fine_grid, fine)
        assert 3.5 <= ratio <= 4.5


class TestForwardSystem:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_family_residual_small(self, fam):
        grid = family_grid(fam, h=1 / 64)
        state = build_state(grid, fam)
        r1, r2 = forward_residual(plastic_system(), grid, state.as_list())
        tol = 1e5 * grid.h**2
        assert r1.max_norm() <= tol
        assert r2.max_norm() <= tol


class TestCostatesStar:
    def test_point_examples(self):
        p1, p2, r1, r2, q1, q2 = [float(v) for v in costates_star(0.0, 1.0)]
        assert (p1, p2) == (1.0, 0.0)
        assert (q1, q2) == (0.0, 1.0)
        assert (r1, r2) == (-1.0, 0.0)
        p1, p2, r1, r2, q1, q2 = [float(v) for v in costates_star(1.0, 0.0)]
        assert (p1, p2) == (0.0, -1.0)
        assert (q1, q2) == (1.0, 0.0)
        assert (r1, r2) == (0.0, 1.0)

    @given(x=st.floats(-1, 1), y=st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_relations_26(self, x, y):
        if x * x + y * y < 0.01:
            return
        p1, p2, r1, r2, q1, q2 = [float(v) for v in costates_star(x, y)]
        c, s = [float(v) for v in phi_star(x, y)]
        assert abs(p1 - (q1 * s + q2 * c)) <= 1e-12
        assert abs(p2 - (q1 * c - q2 * s)) <= 1e-12
        assert abs(r1 + q2) <= 1e-12
        assert abs(r2 - q1) <= 1e-12


class TestCostateSystem:
    def test_closed_forms_small_residual(self):
        fam = Family("quadratic", 1.0)
        grid = family_grid(fam, h=1 / 64)
        from bitime.plastic import costate_bundle_star
        (p1, p2), _, (q1, q2) = costate_bundle_star(grid).components
        l1, l2, l3 = costate_system_residual(p1, p2, q1, q2, phi_star_field(grid))
        assert l1.max_norm() <= 1e-12  # p is linear
        assert l2.max_norm() <= 200.0 * grid.h**2
        assert l3.max_norm() <= 200.0 * grid.h**2

    def test_linear_p_line_exact(self, grid32):
        p1 = grid32.field(lambda x, y: y)
        p2 = grid32.field(lambda x, y: -x)
        z = grid32.zeros()
        from bitime.grid import AngleField
        phi = AngleField(grid32.field(1.0), grid32.field(0.0))
        l1, l2, l3 = costate_system_residual(p1, p2, z, z, phi)
        assert l1.max_norm() <= 1e-12
        assert l2.max_norm() == 0.0
        assert l3.max_norm() == 0.0


class TestBoundaryConditions:
    def test_360_samples(self):
        res = boundary_condition_residual(*boundary_samples(360))
        for row in res:
            assert np.abs(row).max() <= 1e-12

    def test_m4(self):
        res = boundary_condition_residual(*boundary_samples(4))
        for row in res:
            assert np.abs(row).max() <= 1e-12


class TestPathIndependence:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_two_polylines(self, fam):
        grid = family_grid(fam, h=1 / 64)
        start = (0.5, 0.2)
        # (-0.3, 0.6) sits inside the excluded half-plane of inv_x, so that
        # family uses a target with x >= eps0
        end = (0.3, 0.6) if fam.kind == "inv_x" else (-0.3, 0.6)
        way = (0.5, 0.6)
        sampler = lambda x, y: fam.rho_grad(x, y)
        direct = line_integral(grid, sampler, [start, end])
        dog_leg = line_integral(grid, sampler, [start, way, end])
        length = (math.dist(start, end) + math.dist(start, way)
                  + math.dist(way, end))
        assert abs(direct - dog_leg) <= 10.0 * grid.h**2 * length
