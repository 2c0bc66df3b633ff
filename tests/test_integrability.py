import os
import random
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitime import grid as grid_module
from bitime.expressions import fields_from_config, grid_from_config, system_from_config
from bitime.grid import AngleField, ExclusionZone, banded_norms, build_disc_grid
from bitime.integrability import cic_multi, cic_single, forward_and_cic, plastic_cic
from bitime.plastic import Family, phi_star_field, plastic_system
from bitime.systems import (QuasiLinearSystem, cross_triple, forward_residual,
                            split_controls)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402

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
        assert abs(res.data + 1.0).max() <= 1e-12


class TestCicMulti:
    def test_constant_everything_zero(self, grid32):
        sys = QuasiLinearSystem(a=(IDENTITY, IDENTITY), b=ZERO_B)
        split = split_controls(sys, grid32, [grid32.field(1.0), grid32.field(2.0)])
        rep = cic_multi(split)
        assert all(r.max_norm() <= 1e-12 for r in rep.residuals)

    def test_matches_manual_assembly(self, grid32):
        # two-path oracle: cic_multi vs manual cic_single over cross_triple
        a1 = lambda x, y, s, c: ((1.0 + x * x, x * y), (0.2 * y, 2.0 - x))
        a2 = lambda x, y, s, c: ((1.0, 0.5 * x), (0.0, 1.0 + y * y))
        b = lambda x, y, s, c: (x + y, x * y)
        sys = QuasiLinearSystem(a=(a1, a2), b=b)
        s1 = grid32.field(lambda x, y: x * x * y)
        s2 = grid32.field(lambda x, y: y + 0.3 * x)
        split = split_controls(sys, grid32, [s1, s2])
        rep = cic_multi(split)
        for i, state in enumerate((s1, s2), start=1):
            t = cross_triple(split, i)
            manual = cic_single(t.p, t.q, t.r, state)
            assert (rep.residuals[i - 1] - manual).max_norm() <= 1e-10

    def test_banded_matches_whole_grid(self, monkeypatch):
        # the residuals command takes cic_multi band by band: composed
        # x-derivatives must reach no further than a band's halo
        a1 = lambda x, y, s, c: ((1.0 + s[1] * x, x * y), (0.2 * s[0], 2.0 - x))
        a2 = lambda x, y, s, c: ((1.0, 0.5 * s[0]), (np.sin(s[1]), 1.0 + y * y))
        b = lambda x, y, s, c: (x + y, x * y)
        sys = QuasiLinearSystem(a=(a1, a2), b=b)
        grid = build_disc_grid(1 / 64, zones=(ExclusionZone("abs_x", 0.2),))

        def residuals(g):
            states = [g.field(lambda x, y: x * x * y), g.field(lambda x, y: y + 0.3 * x * x)]
            rep = cic_multi(split_controls(sys, g, states))
            return {i: r for i, r in enumerate(rep.residuals)}

        whole = residuals(grid)
        monkeypatch.setattr(grid_module, "_BAND_NODES", 700)
        assert banded_norms(grid, lambda g: residuals(g).items()) == {
            i: (r.max_norm(), r.l2_norm()) for i, r in whole.items()}

    def test_angle_state_rejected(self, grid32):
        sys = QuasiLinearSystem(a=(IDENTITY,), b=ZERO_B)
        split = split_controls(sys, grid32, [grid32.field(0.0)])
        with pytest.raises(TypeError, match="scalar state sheets"):
            cic_multi(split, states=[angle_zero(grid32)])


def _with_control(spec):
    """`spec` with a control field u1 entering A_1 and B."""
    a = [[row[:] for row in mat] for mat in spec["A"]]
    a[0][0][0] = f"({a[0][0][0]})*(1 + u1*u1)"
    return {**spec, "controls": ["u1"], "control_fields": {"u1": "0.5 + x*y - 0.3*y*y"},
            "A": a, "B": [f"{spec['B'][0]} + u1", f"{spec['B'][1]} - 2*u1*x"]}


def _row_by_row(sys_def, grid, states, controls):
    """Reference: forward rows, split and cross-triples one equation row at a time."""
    sv = [f.data for f in states]
    cv = [f.data for f in controls]
    grads = [(f.partial(1).data, f.partial(2).data) for f in states]
    b = sys_def.rhs(grid, sv, cv)
    res1, res2 = -b[0], -b[1]
    w1, w2 = b[0], b[1]
    out = {}
    for i in range(1, sys_def.n + 1):
        a = sys_def.matrix(i, grid, sv, cv)
        gx, gy = grads[i - 1]
        res1 = res1 + a[0, 0] * gx + a[0, 1] * gy
        res2 = res2 + a[1, 0] * gx + a[1, 1] * gy
        if i < sys_def.n:
            v1 = a[0, 0] * gx + a[0, 1] * gy
            v2 = a[1, 0] * gx + a[1, 1] * gy
            w1, w2 = w1 - v1, w2 - v2
        else:
            v1, v2 = w1, w2
        p = grid.field(a[0, 1] * v2 - a[1, 1] * v1)
        q = grid.field(a[1, 0] * v1 - a[0, 0] * v2)
        r = grid.field(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        out[f"cic.{i}"] = cic_single(p, q, r, states[i - 1])
    return {**out, "forward.1": grid.field(res1), "forward.2": grid.field(res2)}


# The benchmark's manufactured systems: n = 2..6 over every zone kind, and
# one with a control field.
WALK_CASES = [(2, "origin", False), (3, "abs_x", False), (4, "half_x", False),
              (5, "half_y", False), (6, "abs_x", False), (3, "origin", True)]


class TestForwardAndCic:
    @pytest.mark.parametrize("n, zone, control", WALK_CASES)
    def test_bit_identical_to_composed_pipeline(self, monkeypatch, n, zone, control):
        # the one walk over the states gives the very fields (and so norms,
        # whole-grid and banded) of forward_residual + cic_multi(split_controls),
        # and of the formulas written out row by row, each cic.i in state
        # order and the forward rows last
        spec = workloads.manufactured_system(n, random.Random(1201 + n), zone, 0.15, 1 / 64)
        if control:
            spec = _with_control(spec)
        sys_def = system_from_config(spec)
        grid = grid_from_config(spec)

        def composed(band):
            states, controls = fields_from_config(spec, band)
            fwd = forward_residual(sys_def, band, states, controls)
            cic = cic_multi(split_controls(sys_def, band, states, controls))
            return {**{f"cic.{i + 1}": r for i, r in enumerate(cic.residuals)},
                    **{f"forward.{b + 1}": f for b, f in enumerate(fwd)}}

        def walked(band):
            return dict(forward_and_cic(sys_def, band, *fields_from_config(spec, band)))

        got = walked(grid)
        assert len(got) == n + 2
        for want in (composed(grid), _row_by_row(sys_def, grid, *fields_from_config(spec, grid))):
            assert list(got) == list(want)
            assert {k: f.data.tobytes() for k, f in got.items()} == {
                k: f.data.tobytes() for k, f in want.items()}
            assert {k: (f.max_norm(), f.l2_norm()) for k, f in got.items()} == {
                k: (f.max_norm(), f.l2_norm()) for k, f in want.items()}
        monkeypatch.setattr(grid_module, "_BAND_NODES", 1500)
        assert (banded_norms(grid, lambda g: walked(g).items())
                == banded_norms(grid, lambda g: composed(g).items()))

    def test_angle_state_rejected(self, grid32):
        sys_def = QuasiLinearSystem(a=(IDENTITY,), b=ZERO_B)
        with pytest.raises(TypeError, match="scalar state sheets"):
            forward_and_cic(sys_def, grid32, [angle_zero(grid32)])

    def test_raises_when_called(self, grid32, monkeypatch):
        # a bad call raises before the stream is read, and before any A_i
        sys_def = QuasiLinearSystem(a=(IDENTITY, IDENTITY), b=ZERO_B)
        state = grid32.field(lambda x, y: x * y)
        monkeypatch.setattr(QuasiLinearSystem, "matrix", None)
        with pytest.raises(ValueError, match="^state count does not match the system$"):
            forward_and_cic(sys_def, grid32, [state])
        with pytest.raises(TypeError, match="scalar state sheets"):
            forward_and_cic(sys_def, grid32, [state, angle_zero(grid32)])

    def test_one_condition_alive(self):
        # each cic.i is yielded as its step finishes, and none is alive when
        # the stream is asked for the next pair
        spec = workloads.manufactured_system(4, random.Random(7), "origin", 0.2, 1 / 32)
        grid = grid_from_config(spec)
        stream = forward_and_cic(system_from_config(spec), grid, *fields_from_config(spec, grid))
        names, refs, alive_at_ask = [], [], []
        while True:
            alive_at_ask.append(sum(ref() is not None for ref in refs))
            pair = next(stream, None)
            if pair is None:
                break
            names.append(pair[0])
            if pair[0].startswith("cic"):
                refs.append(weakref.ref(pair[1].data))
            del pair
        assert names == ["cic.1", "cic.2", "cic.3", "cic.4", "forward.1", "forward.2"]
        assert alive_at_ask == [0] * 7

    def test_one_matrix_alive(self, monkeypatch):
        # A_i is freed before A_{i+1} is evaluated: one matrix alive at a
        # time bounds the peak memory of the residuals command
        spec = workloads.manufactured_system(4, random.Random(7), "origin", 0.2, 1 / 32)
        sys_def = system_from_config(spec)
        grid = grid_from_config(spec)
        states, controls = fields_from_config(spec, grid)
        matrix = QuasiLinearSystem.matrix
        refs, alive = [], []

        def tracked(self, *args):
            alive.append([ref() is not None for ref in refs])
            a = matrix(self, *args)
            refs.append(weakref.ref(a))
            return a

        monkeypatch.setattr(QuasiLinearSystem, "matrix", tracked)
        list(forward_and_cic(sys_def, grid, states, controls))
        assert alive == [[False] * i for i in range(4)]


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
        rho = grid.field(fam.rho)
        k = grid.field(fam.k)
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
