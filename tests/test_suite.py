import json

import numpy as np
import pytest

from bitime.grid import write_csv
from bitime.suite import (CONDITIONS, RunConfig, run_convergence, run_verify,
                          write_fields)

FAST = RunConfig(h=1 / 32)
ROWS = {condition.name: condition for condition in CONDITIONS}
GRID_ROWS = [condition for condition in CONDITIONS if condition.column]


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.h == 1 / 64
        assert cfg.family == "quadratic"
        assert cfg.m == 360

    def test_h_range(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            RunConfig(h=0.5)
        with pytest.raises(ValueError):
            RunConfig(h=0.0)

    def test_m_minimum(self):
        with pytest.raises(ValueError, match="boundary samples"):
            RunConfig(m=4)

    @pytest.mark.parametrize("m", [8.5, 400.0, True, "360"])
    def test_m_must_be_integer(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            RunConfig.from_dict({"m": m})

    @pytest.mark.parametrize("h", ["1/64", None, True])
    def test_h_must_be_number(self, h):
        with pytest.raises(ValueError, match="h must be a number"):
            RunConfig.from_dict({"h": h})

    @pytest.mark.parametrize("cfg", [{"alpha": "abc"}, {"eps0": "0.1"}, {"perturb_q1": "x"},
                                     {"c0": None}, {"gamma": True}, {"tolerance_c": "1"},
                                     {"beta": float("nan")}, {"delta": float("inf")}])
    def test_numbers_type_checked(self, cfg):
        key = next(iter(cfg))
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            RunConfig.from_dict(cfg)

    @pytest.mark.parametrize("cfg", [{"family": ["quadratic"]}, {"out": 5}])
    def test_strings_type_checked(self, cfg):
        with pytest.raises(ValueError, match="must be a string"):
            RunConfig.from_dict(cfg)

    def test_m_bounded(self):
        with pytest.raises(ValueError, match="boundary samples"):
            RunConfig(m=100_000_000_000)
        assert RunConfig(m=100_000).m == 100_000

    def test_numpy_scalars_accepted(self):
        cfg = RunConfig(h=np.float64(1 / 32), m=np.int64(16))
        assert cfg.m == 16

    def test_family_checked(self):
        with pytest.raises(ValueError, match="unknown family"):
            RunConfig(family="cubic")

    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_coefficient_floor(self, family):
        # K must stay a normal float64 on the grid: the least coefficient that
        # keeps its bound there passes verify under the command's
        # floating-point policy, the next float below is refused by its key,
        # and 1e-300 passes for every family
        from bitime.plastic import Family

        tiny = np.finfo(np.float64).tiny
        key = {"quadratic": "alpha", "inv_x": "beta", "inv_y": "gamma",
               "constant": "delta"}[family]
        least = tiny / Family(family, 1.0).least_k(1 / 32)
        while Family(family, least).least_k(1 / 32) < tiny:
            least = np.nextafter(least, 1.0)
        while Family(family, np.nextafter(least, 0.0)).least_k(1 / 32) >= tiny:
            least = np.nextafter(least, 0.0)
        config = RunConfig(h=1 / 32, family=family, **{key: float(least)})
        grid = config.make_grid()
        assert config.make_family().k(grid.x, grid.y).min() >= tiny
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert run_verify(config).passed
        with pytest.raises(ValueError, match=f"^{key} = .* is too small: K can fall below"):
            RunConfig(h=1 / 32, family=family, **{key: float(np.nextafter(least, 0.0))})
        RunConfig(h=1 / 512, family=family, **{key: 1e-300})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"spacing": 0.1})
        # the grid's 2h margin is a constant, not a key
        with pytest.raises(ValueError, match=r"unknown config keys: \['margin'\]"):
            RunConfig.from_dict({"margin": 0.1})

    def test_tolerance_override(self):
        # tolerance_c replaces every calibrated C; an exact row keeps 1e-12
        cfg = RunConfig(tolerance_c=123.0)
        assert cfg.tolerance(ROWS["(8.1)"], 0.1) == pytest.approx(1.23)
        assert cfg.tolerance(ROWS["(7.3)"], 0.1) == 1e-12

    def test_calibrated_fallback(self):
        # each row holds its C per family kind; the generic C is 10
        cfg = RunConfig(family="quadratic")
        assert cfg.tolerance(ROWS["(7.1)"], 0.1) == pytest.approx(10.0 * 0.01)
        assert RunConfig(family="inv_x").tolerance(ROWS["(8.1)"], 0.1) == \
            pytest.approx(70000.0 * 0.01)


class TestRunVerify:
    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_families_pass(self, family):
        report = run_verify(RunConfig(h=1 / 32, family=family))
        assert report.passed, report.failing()

    def test_reports_every_row_in_table_order(self):
        report = run_verify(FAST)
        assert [c.condition for c in report.conditions] == [c.name for c in CONDITIONS]
        for result, condition in zip(report.conditions, CONDITIONS):
            assert result.scale == (FAST.h if condition.column else FAST.m)
            assert result.tolerance == FAST.tolerance(condition, FAST.h)

    @pytest.mark.parametrize("family", ["quadratic", "inv_x"])
    def test_stream_yields_the_grid_rows(self, family):
        # the bare stream gives one field per grid row; the named stream the
        # rows' names in table order, an interior row 0.0 off interior_mask(2)
        from bitime.suite import _fields, _residual_fields

        config = RunConfig(h=1 / 32, family=family)
        grid = config.make_grid()
        bare = list(_fields(config, grid))
        named = list(_residual_fields(config, grid))
        assert len(bare) == len(GRID_ROWS)
        assert [name for name, _ in named] == [c.name for c in GRID_ROWS]
        interior = grid.interior_mask(2)
        for condition, f, (_, g) in zip(GRID_ROWS, bare, named):
            want = np.where(interior, f.data, 0.0) if condition.interior else f.data
            assert np.array_equal(g.data, want)
        assert any(c.interior for c in GRID_ROWS)

    def test_report_serialization(self):
        report = run_verify(FAST)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        names = {c["condition"] for c in data["conditions"]}
        assert {"(7.1)", "(10.3)", "(26)", "(27.2)", "(28.3)", "(K-equation)"} <= names
        text = report.to_text()
        assert "PASS" in text

    @pytest.mark.parametrize("family", ["quadratic", "inv_x"])
    def test_6r_matches_cross_triple_determinants(self, family):
        # (6.R) takes det2 and the LU determinant of each A_i in the forward
        # pass; its norms equal those of R_i = cross_triple(...).r against
        # the LU determinant of A_i evaluated apart
        from bitime.plastic import build_state, plastic_system
        from bitime.systems import cross_triple, split_controls

        config = RunConfig(h=1 / 32, family=family)
        grid = config.make_grid()
        sys = plastic_system()
        split = split_controls(sys, grid, build_state(grid, config.make_family()).as_list())
        want = grid.zeros()
        for i in (1, 2, 3):
            a = sys.matrix(i, grid, split.state_values(), [])
            det = np.linalg.det(np.moveaxis(a, (0, 1), (-2, -1)))
            want = want + grid.field(np.abs(cross_triple(split, i).r.data - det))
        got = {c.condition: c for c in run_verify(config).conditions}["(6.R)"]
        assert (got.max_norm, got.l2_norm) == (want.max_norm(), want.l2_norm())

    def test_residual_fields_evaluate_each_matrix_once(self, monkeypatch):
        from collections import Counter

        from bitime import suite
        from bitime.plastic import plastic_system
        from conftest import counted

        calls = Counter()
        monkeypatch.setattr(suite, "plastic_system", lambda: counted(plastic_system(), calls))
        for _ in suite._residual_fields(FAST, FAST.make_grid()):
            pass
        assert calls == {"A_1": 1, "A_2": 1, "A_3": 1, "B": 1}

    def test_6r_factors_the_uniform_matrix_once(self, monkeypatch):
        # A_1 = I is the same matrix at every node, so (6.R) factors it on one
        # node: a band of n nodes hands 2n + 1 matrices to LAPACK, not 3n
        from bitime import grid, suite

        forward_and_det, det = suite._forward_and_det, np.linalg.det
        per_band = []  # [band nodes, matrices factored]

        def counted_det(m):
            per_band[-1][1] += m[..., 0, 0].size
            return det(m)

        def recorded(grid, states):
            per_band.append([grid.n_nodes, 0])
            return forward_and_det(grid, states)

        monkeypatch.setattr(np.linalg, "det", counted_det)
        monkeypatch.setattr(suite, "_forward_and_det", recorded)
        monkeypatch.setattr(grid, "_BAND_NODES", 900)
        grid.banded_norms(FAST.make_grid(), lambda band: suite._residual_fields(FAST, band))
        assert len(per_band) > 1
        assert all(factored == 2 * n + 1 for n, factored in per_band)

    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_banded_norms_match_whole_grid(self, monkeypatch, family):
        # run_verify takes its norms band by band; on narrow bands every norm
        # still equals the whole grid's bit for bit
        from bitime import grid as grid_module
        from bitime.suite import _residual_fields

        config = RunConfig(h=1 / 64, family=family, perturb_q1=1e-3)
        grid = config.make_grid()
        whole = dict(_residual_fields(config, grid))
        monkeypatch.setattr(grid_module, "_BAND_NODES", 900)
        banded = grid_module.banded_norms(grid, lambda band: _residual_fields(config, band))
        assert banded == {name: (f.max_norm(), f.l2_norm()) for name, f in whole.items()}
        assert list(banded) == list(whole)

    def test_stream_keeps_no_field(self, monkeypatch):
        # run_verify holds one condition field at a time: each field the
        # stream yields is dead when banded_norms asks for the next pair, and
        # each A_i and w_i of the (6.R) walk are dead when A_{i+1} is evaluated
        import weakref

        from bitime import suite
        from bitime.systems import ForwardPass, QuasiLinearSystem

        stream, matrix, walk = suite._residual_fields, QuasiLinearSystem.matrix, ForwardPass.__iter__
        fields, alive_at_ask, matrices, alive_at_matrix = [], [], [], []
        rhs, rhs_alive_at_matrix = [], []

        class Watched:
            def __init__(self, pairs):
                self.pairs = pairs

            def __iter__(self):
                return self

            def __next__(self):
                alive_at_ask.append(sum(ref() is not None for ref in fields))
                name, f = next(self.pairs)
                fields.append(weakref.ref(f.data))
                return name, f

        class Steps:
            def __init__(self, steps):
                self.steps = steps

            def __iter__(self):
                return self

            def __next__(self):
                a, w = next(self.steps)
                rhs.append(weakref.ref(w))
                return a, w

        def tracked(self, *args):
            alive_at_matrix.append(sum(ref() is not None for ref in matrices))
            rhs_alive_at_matrix.append(sum(ref() is not None for ref in rhs))
            a = matrix(self, *args)
            matrices.append(weakref.ref(a))
            return a

        monkeypatch.setattr(suite, "_residual_fields",
                            lambda config, grid: Watched(stream(config, grid)))
        monkeypatch.setattr(QuasiLinearSystem, "matrix", tracked)
        monkeypatch.setattr(ForwardPass, "__iter__", lambda fwd: Steps(walk(fwd)))
        # three bands at this size
        run_verify(RunConfig(h=1 / 256, family="inv_x", perturb_q1=1e-3))
        bands = len(matrices) // 3
        assert bands == 3 and len(fields) == 14 * bands and len(rhs) == 3 * bands
        assert alive_at_ask == [0] * (15 * bands)
        assert alive_at_matrix == [0] * (3 * bands)
        assert rhs_alive_at_matrix == [0] * (3 * bands)

    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_peak_memory_bound(self, family):
        # a verify's traced peak follows its largest band: it stays within 24
        # arrays of that band's node count (22.8 measured at h = 1/128, where
        # quadratic and constant take two bands and inv_x and inv_y one; 26.8
        # when (26) read H at the control fields, kept alive from (10.x) on,
        # and 27.4-28.8 when the Hamiltonian was built by fresh sums)
        import gc
        import tracemalloc

        from bitime.grid import bands

        config = RunConfig(h=1 / 128, family=family)
        largest = max(band.n_nodes for _, band, _ in bands(config.make_grid()))
        gc.collect()
        tracemalloc.start()
        try:
            run_verify(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * largest * 8, peak / (largest * 8)

    def test_corrupted_costate_fails_27(self):
        report = run_verify(RunConfig(h=1 / 32, perturb_q1=0.1))
        assert not report.passed
        assert any(name.startswith("(27") for name in report.failing())
        res27 = {c.condition: c for c in report.conditions}["(27.2)"]
        assert res27.max_norm >= 0.05

    @pytest.mark.parametrize("coeff", [0.2, 5.0, 100.0])
    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_stationarity_roundoff_independent_of_coefficient(self, family, coeff):
        # (26) reads dH/du-bar^a at zero controls, so its roundoff does not
        # grow with the controls' magnitude: 2.2e-16 at most on these draws,
        # where reading H at the control fields gave up to 4.6e-12, a false
        # FAIL at inv_x beta = 100 (2.07e-12); the negative control still
        # reads its 1e-3 shift of q1
        from bitime.suite import _COEFF_KEY

        for eps0 in (0.05, 0.3):
            for perturb_q1 in (0.0, 1e-3):
                config = RunConfig(h=1 / 64, family=family, eps0=eps0, perturb_q1=perturb_q1,
                                   **{_COEFF_KEY[family]: coeff})
                norm = {c.condition: c for c in run_verify(config).conditions}["(26)"].max_norm
                if perturb_q1:
                    assert norm >= 9.9e-4, (eps0, norm)
                else:
                    assert norm <= 1e-15, (eps0, norm)


class TestRunConvergence:
    def test_quadratic(self):
        table = run_convergence(RunConfig(), [1 / 16, 1 / 32, 1 / 64])
        assert table["passed"], [r for r in table["rows"]
                                 if r["status"] not in ("ok", "exact (<=1e-12)")]
        statuses = {r["condition"]: r["status"] for r in table["rows"]}
        # stencil-exact conditions are reported as exact, not with ratios
        assert statuses["(7.1)"] == "exact (<=1e-12)"
        assert statuses["(K-equation)"] == "exact (<=1e-12)"
        assert statuses["(10.3)"] == "ok"

    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_small_bands_same_table(self, monkeypatch, family):
        # the table is folded band by band; bands of at most 900 nodes (some
        # holding no common node) give the one-band table bit for bit
        from bitime import grid

        config = RunConfig(family=family)
        hs = [1 / 16, 1 / 32, 1 / 64]
        want = run_convergence(config, hs)
        monkeypatch.setattr(grid, "_BAND_NODES", 900)
        assert json.dumps(run_convergence(config, hs)) == json.dumps(want)

    def test_one_fold_per_spacing(self, monkeypatch):
        # each grid's norms come from one banded_norms call, not a loop of its own
        from bitime import grid, suite

        calls = []

        def record(g, residuals, *args, **kwargs):
            calls.append(g.h)
            return grid.banded_norms(g, residuals, *args, **kwargs)

        monkeypatch.setattr(suite, "banded_norms", record)
        run_convergence(FAST, [1 / 16, 1 / 32, 1 / 64])
        assert calls == [1 / 16, 1 / 32, 1 / 64]

    def test_peak_memory_bound(self):
        # the finest grid is walked in bands: convergence to h = 1/256 peaks
        # within 1.5 times verify's peak at 1/256 (about 1.05 measured; the
        # whole-grid walk took 3.0)
        import gc
        import tracemalloc

        peaks = []
        for call in (lambda: run_convergence(RunConfig(), [1 / 64, 1 / 128, 1 / 256]),
                     lambda: run_verify(RunConfig(h=1 / 256))):
            gc.collect()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * peaks[1], peaks[0] / peaks[1]

    def test_single_h_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            run_convergence(FAST, [1 / 32])

    def test_non_halving_rejected(self):
        with pytest.raises(ValueError, match="halve"):
            run_convergence(FAST, [1 / 32, 1 / 48])

    def test_over_budget_refused_before_any_grid(self, monkeypatch):
        # only the finest spacing is over the lattice budget; it is refused
        # before the coarser grids are built or walked
        from bitime import suite

        def refuse(*args, **kwargs):
            raise AssertionError("computed before the spacings were checked")

        monkeypatch.setattr(suite, "_residual_fields", refuse)
        monkeypatch.setattr(suite, "build_disc_grid", refuse)
        with pytest.raises(ValueError, match="lattice points"):
            run_convergence(FAST, [2.0 ** -k for k in range(4, 12)])


class TestWriteFields:
    def test_stress_header_and_determinism(self, tmp_path):
        cfg = RunConfig(h=1 / 32, out=str(tmp_path / "a"))
        paths = write_fields(cfg)
        stress = [p for p in paths if p.endswith("stress.csv")][0]
        with open(stress) as fh:
            header = fh.readline().strip()
        assert header == "x,y,sxx,syy,sxy,rho,K,cphi,sphi"
        paths2 = write_fields(RunConfig(h=1 / 32, out=str(tmp_path / "b")))
        for p1, p2 in zip(paths, paths2):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_residuals_header_is_the_table_columns(self, tmp_path):
        paths = write_fields(FAST, str(tmp_path))
        with open(paths[-1]) as fh:
            header = fh.readline().strip()
        assert paths[-1].endswith("residuals.csv")
        assert header == ",".join(["x", "y"] + [c.column for c in GRID_ROWS])
        assert header.endswith("K_equation,26,28_1,28_2,28_3")

    def test_inv_x_zone_filter(self, tmp_path):
        paths = write_fields(RunConfig(h=1 / 32, family="inv_x", out=str(tmp_path)))
        stress = [p for p in paths if p.endswith("stress.csv")][0]
        xs = np.loadtxt(stress, delimiter=",", skiprows=1, usecols=0)
        assert np.all(np.abs(xs) >= 0.1 - 1e-12)

    @pytest.mark.parametrize("perturb_q1", [0.0, 1e-3])
    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_bytes_match_per_value_writer(self, tmp_path, monkeypatch, family, perturb_q1):
        written = []

        def record(path, grid, columns):
            columns = list(columns)
            written.append((path, grid, columns))
            write_csv(path, grid, columns)

        monkeypatch.setattr("bitime.suite.write_csv", record)
        paths = write_fields(RunConfig(h=1 / 32, family=family, perturb_q1=perturb_q1),
                             str(tmp_path))
        assert [w[0] for w in written] == paths and len(paths) == 3
        for path, grid, columns in written:
            # an independent writer: one value at a time, rows sorted by (y, x)
            order = sorted(range(grid.n_nodes), key=lambda k: (grid.y[k], grid.x[k]))
            data = [grid.x, grid.y] + [values for _, values in columns]
            lines = ["x,y," + ",".join(name for name, _ in columns)]
            lines += [",".join("%.17g" % float(v[k]) for v in data) for k in order]
            with open(path, "rb") as fh:
                assert fh.read() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_small_bands_same_files(self, tmp_path, monkeypatch, family):
        # the columns are filled band by band; bands of at most 900 nodes
        # write the one-band files byte for byte
        from bitime import grid

        config = RunConfig(h=1 / 32, family=family, perturb_q1=1e-3)
        want = [open(p, "rb").read() for p in write_fields(config, str(tmp_path / "one"))]
        walked = []
        bands = grid.bands

        def recorded(g, *sheets):
            for cut, band, core in bands(g, *sheets):
                walked.append(cut[-1][1] - cut[0][0])
                yield cut, band, core

        monkeypatch.setattr(grid, "bands", recorded)
        monkeypatch.setattr(grid, "_BAND_NODES", 900)
        got = [open(p, "rb").read() for p in write_fields(config, str(tmp_path / "small"))]
        assert len(walked) >= 3 * 2 and max(walked) <= 900
        assert got == want

    @pytest.mark.parametrize("family", ["quadratic", "constant"])
    @pytest.mark.parametrize("h, bound", [(1 / 128, 32), (1 / 256, 25)])
    def test_peak_memory_bound(self, tmp_path, family, h, bound):
        # in field-sized arrays.  At h = 1/128 (two bands) the peak is the band
        # walk's: one file's whole-grid columns and a band's intermediates,
        # 24.8 measured (27.4 when (26) read H at the control fields), where
        # the residual stream taken on the whole grid took 38.9-42.5.  At
        # 1/256 (seven bands) it is inside the encoding of a column with many
        # distinct values: 19.4-22.4 measured, 19.8-22.8 when np.unique
        # sorted each column twice, 28.1 when every column's picks were put
        # in row order at once.
        import gc
        import tracemalloc

        config = RunConfig(h=h, family=family)
        n_nodes = config.make_grid().n_nodes
        gc.collect()
        tracemalloc.start()
        try:
            write_fields(config, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n_nodes * 8, peak / (n_nodes * 8)
