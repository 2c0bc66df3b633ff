import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime.grid import (_MAX_LATTICE_POINTS, AngleField, ExclusionZone,
                         ScalarField, boundary_samples, build_disc_grid,
                         line_integral, partial, write_csv)


def node_set(grid):
    xs, ys = grid.node_coordinates()
    return {(round(x, 12), round(y, 12)) for x, y in zip(xs, ys)}


class TestBuildDiscGrid:
    def test_coarse_lattice_nodes(self):
        grid = build_disc_grid(0.5, margin=0.0)
        nodes = node_set(grid)
        for p in [(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]:
            assert p in nodes

    def test_margin_mask(self):
        grid = build_disc_grid(1 / 64, margin=0.05)
        xs, ys = grid.node_coordinates()
        assert np.all(xs**2 + ys**2 <= 0.9025 + 1e-12)

    def test_exclusion_zone(self):
        grid = build_disc_grid(1 / 64, zones=[ExclusionZone("abs_x", 0.1)])
        xs, _ = grid.node_coordinates()
        assert np.all(np.abs(xs) >= 0.1 - 1e-12)

    def test_lattice_budget(self):
        # refused from h alone, before any array is allocated
        for h in (1e-9, 1 / 1200, 5e-324):
            with pytest.raises(ValueError, match="lattice points"):
                build_disc_grid(h)
        # h = 1/1024 is admitted: its lattice is 2 * (1024 + 2) + 1 = 2053 wide
        assert 2053**2 <= _MAX_LATTICE_POINTS

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            build_disc_grid(0.4)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            build_disc_grid(0.0)
        with pytest.raises(ValueError):
            build_disc_grid(1.5)

    def test_all_nodes_in_unit_disc(self, grid32):
        xs, ys = grid32.node_coordinates()
        assert np.all(xs**2 + ys**2 <= 1.0)

    def test_every_node_has_stencil(self, grid32):
        # after pruning every node admits a second-order stencil on both axes
        for ax in (0, 1):
            codes = grid32._stencils[ax]
            assert not np.any(grid32.mask & (codes == -1))


class TestPartial:
    def test_linear_exact(self, grid32):
        f = grid32.field(lambda x, y: x)
        d = partial(f, 1)
        assert abs(d.data[grid32.mask] - 1.0).max() <= 1e-12

    def test_quadratic_exact(self, grid32):
        f = grid32.field(lambda x, y: x * x)
        d = partial(f, 1)
        err = d.data - 2.0 * grid32.X
        assert abs(err[grid32.mask]).max() <= 1e-12

    def test_axis_2(self, grid32):
        f = grid32.field(lambda x, y: y * y)
        d = partial(f, 2)
        assert abs((d.data - 2.0 * grid32.Y)[grid32.mask]).max() <= 1e-12

    def test_bad_axis(self, grid32):
        with pytest.raises(ValueError):
            partial(grid32.zeros(), 3)

    def test_sin_halving_ratio(self):
        errs = []
        for h in (1 / 64, 1 / 128):
            g = build_disc_grid(h)
            d = partial(g.field(lambda x, y: np.sin(x)), 1)
            errs.append(abs((d.data - np.cos(g.X))[g.mask]).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    @given(a=st.floats(-5, 5, allow_nan=False), b=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, grid32, a, b):
        f = grid32.field(lambda x, y: np.sin(x) * y)
        g = grid32.field(lambda x, y: x * np.cos(y))
        lhs = partial(a * f + b * g, 1)
        rhs = a * partial(f, 1) + b * partial(g, 1)
        assert (lhs - rhs).max_norm() <= 1e-10 * (1 + abs(a) + abs(b))

    def test_mixed_partial_symmetry_bilinear(self, grid32):
        f = grid32.field(lambda x, y: x * y)
        d12 = partial(partial(f, 1), 2)
        d21 = partial(partial(f, 2), 1)
        assert (d12 - d21).max_norm() <= 1e-12

    def test_mixed_partial_symmetry_smooth(self, grid32):
        f = grid32.field(lambda x, y: np.sin(x) * np.cos(y))
        d12 = partial(partial(f, 1), 2)
        d21 = partial(partial(f, 2), 1)
        assert (d12 - d21).max_norm() <= 50.0 * grid32.h**2


class TestFields:
    def test_field_samples_masked_nodes_only(self):
        # 1/x is singular on the excluded line x = 0, which lies off the mask
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("half_x", 0.1)])
        with np.errstate(all="raise"):
            f = grid.field(lambda x, y: 1.0 / x)
        assert np.array_equal(f.data[grid.mask], 1.0 / grid.X[grid.mask])
        assert not f.data[~grid.mask].any()

    def test_sample_one_field_per_output(self, grid32):
        a, b = grid32.sample(lambda x, y: (x * y, 2.0))
        assert np.array_equal(a.data[grid32.mask], (grid32.X * grid32.Y)[grid32.mask])
        assert np.all(b.data[grid32.mask] == 2.0)
        assert not a.data[~grid32.mask].any() and not b.data[~grid32.mask].any()

    def test_sample_singular_on_mask_rejected(self, grid32):
        with pytest.raises(ValueError, match="not finite on the mask"):
            grid32.field(lambda x, y: 1.0 / x)

    def test_nonfinite_rejected(self, grid32):
        data = np.full(grid32.shape, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(grid32, data)

    def test_shape_mismatch(self, grid32):
        with pytest.raises(ValueError):
            ScalarField(grid32, np.zeros((3, 3)))

    def test_constant_field(self, grid32):
        f = grid32.field(2.5)
        assert f.max_norm() == 2.5

    def test_angle_unit_norm_enforced(self, grid32):
        c = grid32.field(0.5)
        s = grid32.field(0.5)
        with pytest.raises(ValueError, match="unit-norm"):
            AngleField(c, s)

    def test_angle_partial_matches_scalar(self, grid32):
        # on a branch-free sheet the pair derivative equals the c*ds - s*dc rule
        theta = grid32.field(lambda x, y: 0.3 * x + 0.1 * y)
        pair = AngleField(grid32.field(np.cos(theta.data)),
                          grid32.field(np.sin(theta.data)))
        d = pair.partial(1)
        # cos/sin are not polynomial, so this is O(h^2), not stencil-exact
        assert abs(d.data[grid32.mask] - 0.3).max() <= 0.1 * grid32.h**2

    def test_interior_mask_subset(self, grid32):
        inner = grid32.interior_mask(2)
        assert np.all(~inner | grid32.mask)
        assert inner.sum() < grid32.mask.sum()


class TestBoundarySamples:
    def test_m4_cardinal_points(self):
        xs, ys = boundary_samples(4)
        expect = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        for x, y, q in zip(xs, ys, expect):
            assert math.isclose(x, q[0], abs_tol=1e-14)
            assert math.isclose(y, q[1], abs_tol=1e-14)

    def test_m8_diagonal(self):
        xs, ys = boundary_samples(8)
        assert math.isclose(xs[1], math.sqrt(2) / 2, abs_tol=1e-14)
        assert math.isclose(ys[1], math.sqrt(2) / 2, abs_tol=1e-14)

    def test_circumference(self):
        # the closed polygon through the samples has perimeter
        # 2 m sin(pi / m) = 2 pi - O(m^-2)
        xs, ys = boundary_samples(360)
        total = np.hypot(np.diff(xs, append=xs[0]), np.diff(ys, append=ys[0])).sum()
        assert math.isclose(total, 2 * 360 * math.sin(math.pi / 360), abs_tol=1e-12)
        assert math.isclose(total, 2 * math.pi, abs_tol=1e-4)

    def test_unit_circle(self):
        xs, ys = boundary_samples(12)
        assert np.abs(xs**2 + ys**2 - 1.0).max() <= 1e-14

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            boundary_samples(0)


class TestLineIntegral:
    def test_constant_field(self, grid64):
        val = line_integral(grid64, lambda x, y: (np.ones_like(x), np.zeros_like(x)),
                            [(0.0, 0.0), (0.5, 0.0)])
        assert math.isclose(val, 0.5, abs_tol=1e-12)

    def test_closed_loop_gradient(self, grid64):
        loop = [(-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3), (-0.3, -0.3)]
        val = line_integral(grid64, lambda x, y: (2 * x, 2 * y), loop)
        assert abs(val) <= 1e-12

    def test_quarter_arc(self, grid64):
        # quarter arc at radius 0.9 (the unit circle itself is outside the
        # masked region); oracle: integral of y dx = -R^2 pi / 4
        r = 0.9
        path = [(r * math.cos(t), r * math.sin(t))
                for t in np.linspace(0, math.pi / 2, 361)]
        val = line_integral(grid64, lambda x, y: (y, np.zeros_like(y)), path)
        assert math.isclose(val, -r * r * math.pi / 4, abs_tol=1e-4)

    def test_path_outside_domain(self, grid64):
        with pytest.raises(ValueError, match="path leaves domain"):
            line_integral(grid64, lambda x, y: (x, y), [(0.0, 0.0), (1.5, 0.0)])

    def test_short_path_rejected(self, grid64):
        with pytest.raises(ValueError):
            line_integral(grid64, lambda x, y: (x, y), [(0.0, 0.0)])


class TestCsvExport:
    def test_header_and_determinism(self, grid32, tmp_path):
        f = grid32.field(lambda x, y: x + y)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(p1, grid32, {"value": f})
        write_csv(p2, grid32, {"value": f})
        text = p1.read_text()
        assert text.splitlines()[0] == "x,y,value"
        assert text == p2.read_text()
        assert len(text.splitlines()) == grid32.n_nodes + 1
