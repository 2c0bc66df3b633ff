import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime import grid as grid_module
from bitime.grid import (_CSV_BLOCK_ROWS, _MAX_LATTICE_POINTS, AngleField, ExclusionZone,
                         ScalarField, _pairwise, banded_norms, boundary_samples,
                         build_disc_grid, partial, write_csv)
from bitime.plastic import FAMILY_KINDS, Family
from bitime.systems import QuasiLinearSystem
from conftest import line_integral, node_index, reference_disc_mask


def node_set(grid):
    return {(round(x, 12), round(y, 12)) for x, y in zip(grid.x, grid.y)}


class TestBuildDiscGrid:
    def test_coarse_lattice_nodes(self):
        # the disc of radius 1 - 2h = 0.75 keeps the lattice's axis points at 0.5
        grid = build_disc_grid(1 / 8)
        nodes = node_set(grid)
        for p in [(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]:
            assert p in nodes

    def test_margin_mask(self):
        # the disc has radius 1 - 2h: every node lies two cells inside the
        # unit circle, and the outermost within three
        grid = build_disc_grid(1 / 64)
        r = np.hypot(grid.x, grid.y)
        assert r.max() <= 1 - 2 / 64 + 1e-12 and r.max() > 1 - 3 / 64

    def test_exclusion_zone(self):
        grid = build_disc_grid(1 / 64, zones=[ExclusionZone("abs_x", 0.1)])
        assert np.all(np.abs(grid.x) >= 0.1 - 1e-12)

    @pytest.mark.parametrize("h", [1 / 32, 1 / 128, 1 / 512])
    @pytest.mark.parametrize("zones", [(), *[(ExclusionZone(kind, 0.1),)
                                            for kind in ExclusionZone._KINDS],
                                       (ExclusionZone("abs_x", 0.05),
                                        ExclusionZone("origin", 0.3))])
    def test_mask_matches_whole_lattice_build(self, h, zones):
        # the disc test in column blocks and the pruning by slices give the
        # mask of the whole-lattice build with rolled copies, bit for bit
        # (zones may come as any iterable, read once)
        assert np.array_equal(build_disc_grid(h, iter(zones)).mask,
                              reference_disc_mask(h, zones))

    def test_build_makes_no_lattice_sized_float(self):
        # at h = 1/512 a float64 lattice is 8.5 MB; the build's traced peak
        # stays within five boolean lattices (4.02 measured; the whole-lattice
        # disc test and rolled pruning took 10.0)
        import gc
        import tracemalloc

        h = 1 / 512
        gc.collect()
        tracemalloc.start()
        try:
            grid = build_disc_grid(h, (ExclusionZone("origin", 0.1),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * grid.mask.size, peak / grid.mask.size

    def test_lattice_budget(self):
        # refused from h alone, before any array is allocated
        for h in (1e-9, 1 / 1200, 5e-324):
            with pytest.raises(ValueError, match="lattice points"):
                build_disc_grid(h)
        # h = 1/1024 is admitted: its lattice is 2 * (1024 + 2) + 1 = 2053 wide
        assert 2053**2 <= _MAX_LATTICE_POINTS

    def test_too_coarse(self):
        # from h = 1/2 on, the disc of radius 1 - 2h holds the origin at most
        for h in (0.4, 0.5, 0.75):
            with pytest.raises(ValueError, match="grid too coarse"):
                build_disc_grid(h)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            build_disc_grid(0.0)
        with pytest.raises(ValueError):
            build_disc_grid(1.5)

    def test_all_nodes_in_unit_disc(self, grid32):
        assert np.all(grid32.x**2 + grid32.y**2 <= 1.0)

    def test_every_node_has_stencil(self, grid32):
        # after pruning every node admits a second-order stencil on both axes
        for ax in (0, 1):
            codes = reference_codes(grid32.mask, ax)
            assert not np.any(grid32.mask & (codes == NONE))

    def test_nodes_in_lattice_order(self, grid32):
        # node k is the k-th lattice point of the mask in row-major order
        ii, jj = np.nonzero(grid32.mask)
        assert grid32.n_nodes == ii.size
        assert np.array_equal(grid32.x, grid32.X[ii, jj])
        assert np.array_equal(grid32.y, grid32.Y[ii, jj])

    def test_node_index(self, grid32):
        # the node numbers of node coordinates, in any order
        k = np.random.default_rng(3).permutation(grid32.n_nodes)
        assert np.array_equal(node_index(grid32, grid32.x[k], grid32.y[k]), k)

    def test_zone_size_must_be_finite_number(self):
        for size in (10**400, float("inf"), float("nan"), "0.1", True, -0.1):
            with pytest.raises(ValueError, match="zone size"):
                ExclusionZone("half_x", size)

    @pytest.mark.parametrize("size", [1e200, 10**200, np.float64(1e200)],
                             ids=["float", "int", "numpy-scalar"])
    def test_origin_size_whose_square_overflows(self, size):
        # a numpy scalar squares to inf with only a RuntimeWarning; the zone
        # refuses it as it refuses a Python number
        with pytest.raises(ValueError, match="beyond float64 range when squared"):
            ExclusionZone("origin", size)


class TestPartial:
    def test_linear_exact(self, grid32):
        f = grid32.field(lambda x, y: x)
        d = partial(f, 1)
        assert abs(d.data - 1.0).max() <= 1e-12

    def test_quadratic_exact(self, grid32):
        f = grid32.field(lambda x, y: x * x)
        d = partial(f, 1)
        assert abs(d.data - 2.0 * grid32.x).max() <= 1e-12

    def test_axis_2(self, grid32):
        f = grid32.field(lambda x, y: y * y)
        d = partial(f, 2)
        assert abs(d.data - 2.0 * grid32.y).max() <= 1e-12

    def test_bad_axis(self, grid32):
        with pytest.raises(ValueError):
            partial(grid32.zeros(), 3)

    def test_sin_halving_ratio(self):
        errs = []
        for h in (1 / 64, 1 / 128):
            g = build_disc_grid(h)
            d = partial(g.field(lambda x, y: np.sin(x)), 1)
            errs.append(abs(d.data - np.cos(g.x)).max())
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


CENTERED, FORWARD, BACKWARD, NONE = 0, 1, 2, -1


def reference_codes(mask, ax):
    """Stencil code of every lattice point along lattice axis ax, from np.roll shifts."""
    up1, dn1, up2, dn2 = (np.roll(mask, -k, axis=ax) for k in (1, -1, 2, -2))
    code = np.full(mask.shape, NONE, dtype=np.int8)
    code[mask & up1 & dn1] = CENTERED
    code[mask & (code == NONE) & up1 & up2] = FORWARD
    code[mask & (code == NONE) & dn1 & dn2] = BACKWARD
    return code


def reference_partial(grid, a, axis):
    """The np.roll lattice kernel `partial` replaced, kept as the reference for its
    node taps: d/dt^axis of the lattice array a, zero off the mask."""
    ax = axis - 1
    code = reference_codes(grid.mask, ax)
    up1, dn1, up2, dn2 = (np.roll(a, -k, axis=ax) for k in (1, -1, 2, -2))
    two_h = 2.0 * grid.h
    out = np.zeros_like(a)
    c = code == CENTERED
    out[c] = (up1[c] - dn1[c]) / two_h
    fw = code == FORWARD
    out[fw] = (-3.0 * a[fw] + 4.0 * up1[fw] - up2[fw]) / two_h
    bw = code == BACKWARD
    out[bw] = (3.0 * a[bw] - 4.0 * dn1[bw] + dn2[bw]) / two_h
    return out


@pytest.fixture(scope="module", params=[(k, h) for k in FAMILY_KINDS for h in (1 / 32, 1 / 64)],
                ids=lambda p: f"{p[0]}-h{round(1 / p[1])}")
def family_grid(request):
    kind, h = request.param
    return build_disc_grid(h, zones=Family(kind, 1.0).zones())


def random_on_mask(grid, seed):
    """A lattice-shaped array: random on the mask, zero off it."""
    data = np.random.default_rng(seed).standard_normal(grid.shape)
    data[~grid.mask] = 0.0
    return data


class TestStencilReference:
    """`partial` on node vectors agrees bit for bit with the np.roll lattice kernel."""

    @pytest.mark.parametrize("axis", [1, 2])
    def test_random_data(self, family_grid, axis):
        data = random_on_mask(family_grid, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = partial(family_grid.field(data), axis)
        want = reference_partial(family_grid, data, axis)
        assert np.array_equal(got.data, want[family_grid.mask])

    @pytest.mark.parametrize("axis", [1, 2])
    def test_nonfinite_off_mask(self, family_grid, axis):
        # regions of inf, -inf and NaN border the masked edge nodes of the
        # lattice array; restricting it to the nodes drops them all
        g = family_grid
        data = random_on_mask(g, 11)
        off = ~g.mask
        data[off & (g.X < 0)] = np.inf
        data[off & (g.X >= 0) & (g.Y < 0)] = -np.inf
        data[off & (g.X >= 0) & (g.Y >= 0)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = partial(g.field(data), axis)
            want = reference_partial(g, data, axis)
        assert np.array_equal(got.data, want[g.mask])

    def test_arithmetic_zero_off_mask(self, grid32):
        # nothing is stored off the mask: every result is one value per node
        f = grid32.field(random_on_mask(grid32, 3))
        g = grid32.field(random_on_mask(grid32, 5))
        for r in (f + g, f - g, f * g, 2.0 + f, 3.0 * f, f + grid32.x):
            assert r.data.shape == (grid32.n_nodes,)
        assert np.array_equal((f * g).data, f.data * g.data)
        assert np.array_equal(grid32.field(grid32.X + 1.0).data, grid32.x + 1.0)

    def test_nonfinite_accepted_off_mask_only(self, grid32):
        data = random_on_mask(grid32, 13)
        data[~grid32.mask] = np.nan
        grid32.field(data)
        node = tuple(np.argwhere(grid32.mask)[0])
        for bad in (np.nan, np.inf, -np.inf):
            data[node] = bad
            with pytest.raises(ValueError, match="non-finite"):
                grid32.field(data)


class TestFields:
    def test_field_samples_masked_nodes_only(self):
        # 1/x is singular on the excluded line x = 0, which lies off the mask
        grid = build_disc_grid(1 / 32, zones=[ExclusionZone("half_x", 0.1)])
        with np.errstate(all="raise"):
            f = grid.field(lambda x, y: 1.0 / x)
        assert np.array_equal(f.data, 1.0 / grid.x)

    def test_sample_one_field_per_output(self, grid32):
        a, b = grid32.sample(lambda x, y: (x * y, 2.0))
        assert np.array_equal(a.data, grid32.x * grid32.y)
        assert np.all(b.data == 2.0) and b.data.shape == (grid32.n_nodes,)

    def test_sample_result_owns_its_data(self, grid32):
        # a closed form that returns its input must not alias the grid's coordinates
        (f,) = grid32.sample(lambda x, y: x)
        f.data[:] = 0.0
        assert grid32.x.any()

    def test_sample_keeps_fresh_outputs(self, grid32):
        # a fresh array a closed form returns becomes the field's data; the
        # node coordinates, broadcasts, views and a repeated output are copied
        made = []

        def f(x, y):
            made.append(x * y)
            a = made[0]
            return a, a, x, np.broadcast_to(2.0, x.shape), a[::-1]

        kept, again, coord, const, view = grid32.sample(f)
        assert kept.data is made[0]
        for g in (again, coord, const, view):
            assert g.data.flags.writeable and g.data.flags.owndata
            assert not np.shares_memory(g.data, made[0])
            assert not np.shares_memory(g.data, grid32.x)
        assert np.array_equal(again.data, made[0])
        assert np.array_equal(view.data, made[0][::-1])

    def test_sample_singular_on_mask_rejected(self, grid32):
        with pytest.raises(ValueError, match="not finite on the mask"):
            grid32.field(lambda x, y: 1.0 / x)

    def test_sample_python_float_infinity_rejected(self, grid32):
        # Python float arithmetic overflows to inf without a numpy flag, so
        # only the check of what a closed form returns can see it
        assert np.geterr()["over"] != "raise"
        with pytest.raises(ValueError, match="^closed form is not finite on the mask$"):
            grid32.sample(lambda x, y: (x, x + 1e308 * 10.0))
        with pytest.raises(ValueError, match="^closed form is not finite on the mask$"):
            grid32.sample(lambda x, y: -2.0 * 1e308)

    def test_matrix_infinite_entry_rejected(self, grid32):
        sys = QuasiLinearSystem(a=(lambda x, y, s, c: ((1.0, 0.0), (float("inf"), 1.0)),),
                                b=lambda x, y, s, c: (0.0, 0.0))
        assert np.geterr()["invalid"] != "raise"
        with pytest.raises(ValueError, match="^coefficient matrix A_1 is not finite on the mask$"):
            sys.matrix(1, grid32, [grid32.zeros().data], [])

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
        assert abs(d.data - 0.3).max() <= 0.1 * grid32.h**2

    def test_interior_mask_subset(self, grid32):
        inner = grid32.interior_mask(2)
        assert inner.shape == (grid32.n_nodes,)
        assert 0 < inner.sum() < grid32.n_nodes
        for radius in (1, 3):
            with pytest.raises(ValueError, match="radius 2 only"):
                grid32.interior_mask(radius)

    @pytest.mark.parametrize("zone", [None, "origin", "abs_x", "half_y"])
    def test_interior_mask_matches_shifted_masks(self, zone):
        # reference: the mask shifted by one and two steps along both axes
        zones = [] if zone is None else [ExclusionZone(zone, 0.2)]
        grid = build_disc_grid(1 / 32, zones=zones)
        ok = grid.mask.copy()
        for ax in (0, 1):
            for k in (1, 2):
                ok &= np.roll(grid.mask, k, ax) & np.roll(grid.mask, -k, ax)
        assert np.array_equal(grid.interior_mask(2), ok[grid.mask])


class TestBands:
    def test_whole_range_is_the_grid(self, grid32):
        assert grid32.band(0, grid32.n_nodes) == (grid32, slice(None))

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 700), (350, 1900), (1234, 1235)])
    def test_core_is_the_node_range(self, family_grid, lo, hi):
        band, core = family_grid.band(lo, hi)
        assert band.n_nodes < family_grid.n_nodes
        assert np.array_equal(band.x[core], family_grid.x[lo:hi])
        assert np.array_equal(band.y[core], family_grid.y[lo:hi])

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 700), (350, 1900), (1234, 1235)])
    def test_lattice_is_own_columns(self, family_grid, lo, hi):
        # a band's lattice is the columns of its core, 4 halo columns and 2
        # empty padding columns on either side, clipped to the grid's lattice
        grid = family_grid
        lo, hi = min(lo, grid.n_nodes - 1), min(hi, grid.n_nodes)
        band, core = grid.band(lo, hi)
        cols = np.rint((grid.x[lo:hi] - grid.lattice_x[0]) / grid.h).astype(int)
        width = grid.shape[0]
        c0, c1 = max(cols.min() - 4, 0), min(cols.max() + 5, width)
        p0, p1 = max(c0 - 2, 0), min(c1 + 2, width)
        assert band.shape == (p1 - p0, grid.shape[1])
        assert np.array_equal(band.lattice_x, grid.lattice_x[p0:p1])
        assert np.array_equal(band.lattice_y, grid.lattice_y)
        want = np.zeros(band.shape, dtype=bool)
        want[c0 - p0:c1 - p0] = grid.mask[c0:c1]
        assert np.array_equal(band.mask, want)
        assert np.array_equal(node_index(band, band.x, band.y), np.arange(band.n_nodes))

    def test_two_nested_x_derivatives_exact_on_cores(self, monkeypatch, family_grid):
        def fields(g):
            f = g.field(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * x * y)
            fx = partial(f, 1)
            return {"xx": partial(fx, 1), "xy": partial(fx, 2),
                    "mixed": partial(f * fx + g.field(lambda x, y: y), 1)}

        whole = fields(family_grid)
        monkeypatch.setattr(grid_module, "_BAND_NODES", 300)
        norms = banded_norms(family_grid, lambda g: fields(g).items())
        assert norms == {name: (f.max_norm(), f.l2_norm()) for name, f in whole.items()}

    def test_one_band_norms_exact(self, grid32):
        f = grid32.field(lambda x, y: x * y + 0.5)
        assert banded_norms(grid32, lambda g: {"f": f}.items()) == {"f": (f.max_norm(), f.l2_norm())}

    def test_bands_sized_by_sheets(self):
        # up to 3 sheets a band core holds 32,768 nodes, 4 take 3/4 of that,
        # and from 6 on half (the floor); the norms are the same whatever the size
        def formula(x, y):
            return np.sin(3 * x) * y + x

        grid = build_disc_grid(1 / 256)
        f = grid.field(formula)
        whole = {"f": (f.max_norm(), f.l2_norm())}
        for sheets, most in ((1, 32768), (3, 32768), (4, 24576), (6, 16384), (80, 16384)):
            cores = [cut[-1][1] - cut[0][0] for cut, _, _ in grid_module.bands(grid, sheets)]
            assert sum(cores) == grid.n_nodes and most / 2 < max(cores) <= most, (sheets, cores)
            assert banded_norms(grid, lambda g: [("f", g.field(formula))], sheets) == whole


class TestPairwise:
    # numpy sums a block of up to 128 values without splitting it, so a leaf
    # of at least 128 values is summed as numpy sums it within the whole
    @pytest.mark.parametrize("size", [128, 300, 4096])
    @settings(max_examples=60, deadline=None)
    @given(eighths=st.integers(0, 5000), rest=st.integers(0, 7), lo=st.integers(0, 99),
           seed=st.integers(0, 2**32 - 1))
    def test_leaves_and_sum_follow_numpy(self, size, eighths, rest, lo, seed):
        n = max(8 * eighths + rest, 1)
        leaves = _pairwise(lo, n, size, lambda start, stop: [(start, stop)])
        assert leaves[0][0] == lo and leaves[-1][1] == lo + n
        assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
        assert all(0 < stop - start <= size for start, stop in leaves)

        rng = np.random.default_rng(seed)
        v = rng.standard_normal(lo + n) * 10.0 ** rng.uniform(-8, 8, lo + n)
        sums = {start: float((v[start:stop] * v[start:stop]).sum()) for start, stop in leaves}
        whole = v[lo:]
        assert _pairwise(lo, n, size, lambda start, _: sums[start]) == float((whole * whole).sum())


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

    def test_matches_per_value_reference(self, tmp_path):
        # more than one formatting block, and values whose %.17g spelling is awkward
        grid = build_disc_grid(1 / 48)
        assert grid.n_nodes > 2048
        special = grid.field(lambda x, y: np.where(x > 0, -0.0, 1.0 / 3.0) * 10.0 ** (7 * y))
        cols = {"a": grid.field(lambda x, y: np.exp(x) * 1e-300), "b": special}
        write_csv(tmp_path / "new.csv", grid, cols)
        assert (tmp_path / "new.csv").read_bytes() == per_value_csv(grid, cols)

    @pytest.mark.parametrize("kind", ["signed_zeros", "constant", "all_distinct",
                                      "longest_spellings", "subnormals", "mirrored",
                                      "zero_and_negative_zero", "negative_nan",
                                      "longest_all_negative", "around_two",
                                      "infinities_and_finite"])
    def test_distinct_values_match_per_value_reference(self, tmp_path, kind):
        # several blocks, the last one partial; the fields are built directly,
        # because DiscGrid.field refuses the NaN and infinities
        grid = build_disc_grid(1 / 48)
        assert grid.n_nodes > 2 * _CSV_BLOCK_ROWS and grid.n_nodes % _CSV_BLOCK_ROWS
        n, rng = grid.n_nodes, np.random.default_rng(11)
        values = {
            "signed_zeros": rng.choice([0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, 1e-7], n),
            "constant": np.full(n, 0.1),
            "all_distinct": rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n))
                            * 10.0 ** rng.uniform(-300, 300, n),
            "longest_spellings": rng.choice([-2.2250738585072014e-308,
                                             -1.7976931348623157e+308, 2.0], n),
            "subnormals": rng.choice([5e-324, -2.5e-310, 0.0, -0.0], n),
            "mirrored": rng.choice([-1.0, 1.0], n) * rng.choice(rng.random(n // 3), n),
            "zero_and_negative_zero": rng.choice([0.0, -0.0], n),
            "negative_nan": rng.choice([-np.nan, np.nan, -np.inf, np.inf, -1.5, 1.5], n),
            "longest_all_negative": rng.choice([-2.2250738585072014e-308, -0.5, -3.0], n),
            # from 2.0 up, the top exponent bit is the sort key's top bit
            "around_two": rng.choice([-1.0, 1.0], n) * rng.choice(np.concatenate((
                [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 4.0), 1e300],
                rng.uniform(0.5, 8.0, 64))), n),
            "infinities_and_finite": rng.choice([-np.inf, np.inf, -1.7976931348623157e+308,
                                                 1.7976931348623157e+308, -2.5, 2.5, 0.0], n),
        }[kind]
        if kind == "all_distinct":
            assert len(np.unique(values)) == n
        if kind == "negative_nan":
            assert np.signbit(values[np.isnan(values)]).any()
        cols = {"v": ScalarField(grid, values), "w": ScalarField(grid, values[::-1].copy())}
        write_csv(tmp_path / "new.csv", grid, cols)
        assert (tmp_path / "new.csv").read_bytes() == per_value_csv(grid, cols)

    def test_dict_fields_unchanged(self, tmp_path):
        # the writer reads the fields' bits and never writes to them
        grid = build_disc_grid(1 / 48)
        values = np.random.default_rng(5).choice([-0.0, -1.5, 2.5, -np.nan, -np.inf], grid.n_nodes)
        cols = {"v": ScalarField(grid, values), "w": ScalarField(grid, -values)}
        before = {name: f.data.copy() for name, f in cols.items()}
        write_csv(tmp_path / "new.csv", grid, cols)
        for name, f in cols.items():
            assert np.array_equal(f.data.view(np.int64), before[name].view(np.int64))

    def test_one_sort_per_column(self, tmp_path, monkeypatch):
        # each column, x and y included, is sorted once: by its rotated bits,
        # which put each magnitude's two signs next to each other
        sorts = []
        for name in ("unique", "argsort"):
            def counted(*args, sort=getattr(np, name), **kwargs):
                sorts.append(sort.__name__)
                return sort(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        grid = build_disc_grid(1 / 32)
        cols = {"v": grid.field(lambda x, y: np.where(x > 0, 1 / 3, -1 / 3) * y),
                "w": grid.field(lambda x, y: x * y)}
        write_csv(tmp_path / "new.csv", grid, cols)
        monkeypatch.undo()
        assert len(sorts) == len(cols) + 2, sorts
        assert (tmp_path / "new.csv").read_bytes() == per_value_csv(grid, cols)

    def test_each_magnitude_formatted_once(self, tmp_path, monkeypatch):
        # v and -v share one spelling, and so do a lattice coordinate and its mirror
        spellings, spelled = grid_module._spellings, []

        def recorded(values):
            spelled.extend(values.tolist())
            return spellings(values)

        monkeypatch.setattr(grid_module, "_spellings", recorded)
        grid = build_disc_grid(1 / 32)
        cols = {"v": grid.field(lambda x, y: np.where(x > 0, 1 / 3, -1 / 3))}
        write_csv(tmp_path / "new.csv", grid, cols)
        assert spelled.count(1 / 3) == 1 and -1 / 3 not in spelled
        assert len(spelled) == len(set(np.abs(grid.lattice_x))) + len(set(np.abs(grid.lattice_y))) + 1
        assert (tmp_path / "new.csv").read_bytes() == per_value_csv(grid, cols)


def per_value_csv(grid, columns) -> bytes:
    """The CSV export spelled value by value: rows by y, then x, each value in %.17g."""
    rows = sorted(range(grid.n_nodes), key=lambda k: (grid.y[k], grid.x[k]))
    values = [v[rows] for v in [grid.x, grid.y] + [f.data for f in columns.values()]]
    text = "x,y," + ",".join(columns) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*values))
    return text.encode()
