import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime.grid import AngleField, ExclusionZone, build_disc_grid
from bitime.integrability import cic_multi, cic_single, plastic_cic
from bitime.plastic import (Family, k_family, phi_star_field, plastic_system,
                            rho_family)
from bitime.systems import QuasiLinearSystem, cross_triple, split_controls

IDENTITY = lambda x, y, states, controls: ((1.0, 0.0), (0.0, 1.0))
ZERO_B = lambda x, y, states, controls: (0.0, 0.0)


def angle_zero(grid):
    return AngleField(grid.field(1.0), grid.field(0.0))


class TestCicSingle:
    def test_constant_triple(self, grid32):
        res = cic_single(grid32.zeros(), grid32.zeros(), grid32.field(1.0),
                         grid32.field(lambda x, y: x * y))
        assert res.max_norm() <= 1e-12

    def test_symmetric_linear_controls(self, grid32):
        # P = -u with u = y, Q = -v with v = x: du/dy = dv/dx so residual = 0
        p = grid32.field(lambda x, y: -y)
        q = grid32.field(lambda x, y: -x)
        res = cic_single(p, q, grid32.field(1.0), grid32.field(lambda x, y: x))
        assert res.max_norm() <= 1e-12

    def test_constant_residual(self, grid32):
        # P = -y, Q = 0, R = 1: residual is identically -1
        p = grid32.field(lambda x, y: -y)
        res = cic_single(p, grid32.zeros(), grid32.field(1.0), grid32.zeros())
        assert abs(res.data[grid32.mask] + 1.0).max() <= 1e-12


class TestCicMulti:
    def test_constant_everything_zero(self, grid32):
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        split = split_controls(sys, grid32, [grid32.field(1.0), grid32.field(2.0)])
        rep = cic_multi(split)
        assert all(n <= 1e-12 for n in rep.max_norms)

    def test_matches_manual_assembly(self, grid32):
        # two-path oracle: cic_multi vs manual cic_single over cross_triple
        a1 = lambda x, y, s, c: ((1.0 + x * x, x * y), (0.2 * y, 2.0 - x))
        a2 = lambda x, y, s, c: ((1.0, 0.5 * x), (0.0, 1.0 + y * y))
        b = lambda x, y, s, c: (x + y, x * y)
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(a1, a2), b=b)
        s1 = grid32.field(lambda x, y: x * x * y)
        s2 = grid32.field(lambda x, y: y + 0.3 * x)
        split = split_controls(sys, grid32, [s1, s2])
        rep = cic_multi(split)
        for i, state in enumerate((s1, s2), start=1):
            t = cross_triple(split, i)
            manual = cic_single(t.p, t.q, t.r, state)
            assert (rep.residuals[i - 1] - manual).max_norm() <= 1e-10

    def test_angle_state_rejected(self, grid32):
        sys = QuasiLinearSystem(n=1, n_controls=0, a=(IDENTITY,), b=ZERO_B)
        split = split_controls(sys, grid32, [grid32.field(0.0)])
        with pytest.raises(TypeError, match="scalar state sheets"):
            cic_multi(split, states=[angle_zero(grid32)])

    def test_report_json(self, grid32):
        sys = QuasiLinearSystem(n=1, n_controls=0, a=(IDENTITY,), b=ZERO_B)
        rep = cic_multi(split_controls(sys, grid32, [grid32.field(0.0)]))
        data = json.loads(rep.to_json())
        assert data[0]["state_index"] == 1
        assert data[0]["h"] == grid32.h
        assert data[0]["max_norm"] >= 0.0


class TestPlasticCic:
    def test_all_zero_controls(self, grid32):
        z = grid32.zeros()
        lines = plastic_cic(z, angle_zero(grid32), grid32.field(1.0), z, z, z, z)
        assert all(l.max_norm() <= 1e-12 for l in lines)

    def test_symmetric_linear_case(self, grid32):
        # u = y, v = x, mu = nu = 0, phi = 0, K = 1: all three lines vanish
        u = grid32.field(lambda x, y: y)
        v = grid32.field(lambda x, y: x)
        z = grid32.zeros()
        lines = plastic_cic(z, angle_zero(grid32), grid32.field(1.0), u, v, z, z)
        assert all(l.max_norm() <= 1e-12 for l in lines)

    def test_degenerate_mohr_radius(self, grid32):
        z = grid32.zeros()
        with pytest.raises(ValueError, match="degenerate Mohr radius"):
            plastic_cic(z, angle_zero(grid32), grid32.field(0.0), z, z, z, z)

    @given(lam=st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_controls(self, grid32, lam):
        z = grid32.zeros()
        phi = angle_zero(grid32)
        k = grid32.field(1.0)
        u = grid32.field(lambda x, y: np.sin(x) * y)
        base = plastic_cic(z, phi, k, u, z, z, z)
        scaled = plastic_cic(z, phi, k, lam * u, z, z, z)
        for b, s in zip(base, scaled):
            assert (s - lam * b).max_norm() <= 1e-10 * (1 + abs(lam))


class TestTwoPathEquivalence:
    def test_constant_family_node_wise(self):
        # constant-K family on the branch-free half-plane x >= 0.1: with the
        # split's own stencil controls the two assemblies differ only by the
        # known normalization (cic_1 = -line1, cic_2 = line2, cic_3 = -K line3)
        fam = Family("constant", 1.0)
        grid = build_disc_grid(1 / 64, zones=[ExclusionZone("half_x", 0.1)])
        rho = rho_family(grid, fam)
        k = k_family(grid, fam)
        phi = phi_star_field(grid)
        phi_scalar = grid.field(
            lambda x, y: np.pi - 2 * np.arctan2(y, np.where(x == 0, 1.0, x)))
        split = split_controls(plastic_system(), grid, [rho, k, phi])
        u, v = split.v[0]
        v21, v22 = split.v[1]
        mu = -1.0 * phi.c * v21 + phi.s * v22
        nu = phi.s * v21 + phi.c * v22
        c1, c2, c3 = cic_multi(split, states=[rho, k, phi_scalar]).residuals
        l1, l2, l3 = plastic_cic(rho, phi, k, u, v, mu, nu)
        assert (c1 + l1).max_norm() <= 1e-10
        assert (c2 - l2).max_norm() <= 1e-10
        assert (c3 + k * l3).max_norm() <= 1e-10
