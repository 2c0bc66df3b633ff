import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime.grid import ExclusionZone, build_disc_grid
from bitime.systems import (QuasiLinearSystem, cross_triple, forward_residual,
                            split_controls)

IDENTITY = lambda x, y, states, controls: ((1.0, 0.0), (0.0, 1.0))
ZERO_B = lambda x, y, states, controls: (0.0, 0.0)


def single_state_system(b=ZERO_B):
    return QuasiLinearSystem(n=1, n_controls=0, a=(IDENTITY,), b=b)


class TestQuasiLinearSystem:
    def test_matrix_count_checked(self):
        with pytest.raises(ValueError):
            QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY,), b=ZERO_B)

    def test_nonfinite_matrix_rejected(self, grid32):
        bad = QuasiLinearSystem(
            n=1, n_controls=0,
            a=(lambda x, y, s, c: ((1.0 / (x - x), 0.0), (0.0, 1.0)),), b=ZERO_B)
        state = grid32.field(0.0)
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(all="ignore"):
                bad.matrix(1, grid32, [state.data], [])


    def test_coefficients_evaluated_on_mask_only(self):
        # 1/w and 1/x are singular on x = 0, which half_x removes from the mask
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("half_x", 0.1)])
        sys = QuasiLinearSystem(
            n=1, n_controls=0,
            a=(lambda x, y, s, c: ((1.0 / s[0], 0.0), (0.0, 1.0)),),
            b=lambda x, y, s, c: (1.0 / x, 0.0))
        w = grid.field(lambda x, y: x)
        a = sys.matrix(1, grid, [w.data], [])
        b = sys.rhs(grid, [w.data], [])
        assert not a[:, :, ~grid.mask].any() and not b[:, ~grid.mask].any()
        assert abs((a[0, 0] * w.data)[grid.mask] - 1.0).max() <= 1e-15
        assert abs((b[0] * grid.X)[grid.mask] - 1.0).max() <= 1e-15

    def test_nonfinite_rhs_rejected(self, grid32):
        bad = QuasiLinearSystem(n=1, n_controls=0, a=(IDENTITY,),
                                b=lambda x, y, s, c: (1.0 / (x - x), 0.0))
        with pytest.raises(ValueError, match="right-hand side B is not finite"):
            bad.rhs(grid32, [grid32.zeros().data], [])


class TestSplitControls:
    def test_identity_gradient(self, grid32):
        # A_1 = I: the canonical control is the plain state gradient
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        rho = grid32.field(lambda x, y: x + 2 * y)
        other = grid32.field(0.0)
        split = split_controls(sys, grid32, [rho, other])
        v1, v2 = split.v[0]
        assert abs(v1.data[grid32.mask] - 1.0).max() <= 1e-12
        assert abs(v2.data[grid32.mask] - 2.0).max() <= 1e-12

    def test_constant_states_zero_controls(self, grid32):
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        split = split_controls(sys, grid32, [grid32.field(3.0), grid32.field(1.0)])
        assert split.v[0][0].max_norm() == 0.0
        assert split.v[0][1].max_norm() == 0.0

    def test_state_count_checked(self, grid32):
        with pytest.raises(ValueError):
            split_controls(single_state_system(), grid32, [])

    def test_split_line_exact_by_construction(self, grid32):
        # v_i = A_i grad x^i makes Eq (5) line i hold at grid precision
        a2 = lambda x, y, s, c: ((x, 1.0 + y * y), (np.sin(x), 2.0))
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(a2, IDENTITY), b=ZERO_B)
        s1 = grid32.field(lambda x, y: np.sin(x) * y)
        s2 = grid32.field(lambda x, y: x * y)
        split = split_controls(sys, grid32, [s1, s2])
        a = sys.matrix(1, grid32, split.state_values(), [])
        gx, gy = s1.partial(1).data, s1.partial(2).data
        for b in range(2):
            lhs = a[b, 0] * gx + a[b, 1] * gy
            assert abs((lhs - split.v[0][b].data)[grid32.mask]).max() <= 1e-14


class TestCrossTriple:
    def test_identity_matrix(self, grid32):
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        u = grid32.field(lambda x, y: x)
        split = split_controls(sys, grid32, [u, grid32.field(0.0)])
        t = cross_triple(split, 1)
        # (P, Q, R) = (-u, -v, 1) with (u, v) the gradient components
        assert abs((t.p.data + split.v[0][0].data)[grid32.mask]).max() <= 1e-14
        assert abs((t.q.data + split.v[0][1].data)[grid32.mask]).max() <= 1e-14
        assert abs(t.r.data[grid32.mask] - 1.0).max() <= 1e-14

    def test_plastic_a2_at_phi_zero(self, grid32):
        # A_2 at phi = 0 is [[-1, 0], [0, 1]]; v = (mu, nu) -> (-mu, nu, -1)
        a2 = lambda x, y, s, c: ((-1.0, 0.0), (0.0, 1.0))
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(a2, IDENTITY), b=ZERO_B)
        mu, nu = 0.7, -0.4
        state = grid32.field(lambda x, y: -mu * x + nu * y)
        split = split_controls(sys, grid32, [state, grid32.field(0.0)])
        t = cross_triple(split, 1)
        assert abs(t.p.data[grid32.mask] + mu).max() <= 1e-12
        assert abs(t.q.data[grid32.mask] - nu).max() <= 1e-12
        assert abs(t.r.data[grid32.mask] + 1.0).max() <= 1e-14

    def test_r_is_det_a3(self, grid32):
        # A_3 of the plastic system: det = -K^2
        from bitime.plastic import phi_star_field, plastic_system
        from bitime.grid import ExclusionZone, build_disc_grid
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("origin", 0.1)])
        k = grid.field(lambda x, y: 1.0 + x * x)
        rho = grid.field(0.0)
        phi = phi_star_field(grid)
        split = split_controls(plastic_system(), grid, [rho, k, phi])
        t = cross_triple(split, 3)
        assert abs((t.r.data + k.data**2)[grid.mask]).max() <= 1e-12

    def test_index_range(self, grid32):
        sys = single_state_system()
        split = split_controls(sys, grid32, [grid32.field(0.0)])
        with pytest.raises(ValueError):
            cross_triple(split, 0)
        with pytest.raises(ValueError):
            cross_triple(split, 2)

    @given(c1=st.floats(-3, 3, allow_nan=False), c2=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_v(self, grid32, c1, c2):
        # for fixed A_i the triple's P, Q are linear in the state (hence in v)
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        s_a = grid32.field(lambda x, y: x * y)
        s_b = grid32.field(lambda x, y: np.sin(x))
        zero = grid32.field(0.0)
        t_a = cross_triple(split_controls(sys, grid32, [s_a, zero]), 1)
        t_b = cross_triple(split_controls(sys, grid32, [s_b, zero]), 1)
        comb = grid32.field(c1 * s_a.data + c2 * s_b.data)
        t_c = cross_triple(split_controls(sys, grid32, [comb, zero]), 1)
        scale = 1.0 + abs(c1) + abs(c2)
        assert (t_c.p - (c1 * t_a.p + c2 * t_b.p)).max_norm() <= 1e-10 * scale
        assert (t_c.q - (c1 * t_a.q + c2 * t_b.q)).max_norm() <= 1e-10 * scale


class TestForwardResidual:
    def test_trivial_linear(self, grid32):
        sys = single_state_system(b=lambda x, y, s, c: (1.0, 0.0))
        state = grid32.field(lambda x, y: x)
        r1, r2 = forward_residual(sys, grid32, [state])
        assert r1.max_norm() <= 1e-12
        assert r2.max_norm() <= 1e-12

    def test_constant_states_zero_b(self, grid32):
        sys = QuasiLinearSystem(n=2, n_controls=0, a=(IDENTITY, IDENTITY), b=ZERO_B)
        r1, r2 = forward_residual(sys, grid32, [grid32.field(1.0), grid32.field(2.0)])
        assert r1.max_norm() == 0.0
        assert r2.max_norm() == 0.0

    def test_row_scaling(self, grid32):
        # scaling row 1 of (A, B) by lambda scales residual row 1 by lambda
        lam = 3.5
        state = grid32.field(lambda x, y: x * x)
        base = single_state_system(b=lambda x, y, s, c: (1.0, 0.0))
        scaled = QuasiLinearSystem(
            n=1, n_controls=0,
            a=(lambda x, y, s, c: ((lam, 0.0), (0.0, 1.0)),),
            b=lambda x, y, s, c: (lam, 0.0))
        r_base = forward_residual(base, grid32, [state])
        r_scaled = forward_residual(scaled, grid32, [state])
        diff = r_scaled[0] - lam * r_base[0]
        assert diff.max_norm() <= 1e-12
        assert (r_scaled[1] - r_base[1]).max_norm() <= 1e-14
