import json

import numpy as np
import pytest

from bitime.suite import (DEFAULT_TOLERANCE_C, RunConfig, run_convergence,
                          run_verify, write_fields)

FAST = RunConfig(h=1 / 32)


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
                                     {"c0": None}, {"margin": "0"}, {"tolerance_c": "1"},
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

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"spacing": 0.1})

    def test_tolerance_override(self):
        cfg = RunConfig(tolerance_c=123.0)
        assert cfg.tolerance("(8.1)", 0.1) == pytest.approx(1.23)

    def test_calibrated_fallback(self):
        cfg = RunConfig(family="quadratic")
        assert cfg.tolerance("(7.1)", 0.1) == pytest.approx(10.0 * 0.01)
        key = ("inv_x", "(8.1)")
        assert RunConfig(family="inv_x").tolerance("(8.1)", 0.1) == \
            pytest.approx(DEFAULT_TOLERANCE_C[key] * 0.01)


class TestRunVerify:
    @pytest.mark.parametrize("family", ["quadratic", "inv_x", "inv_y", "constant"])
    def test_families_pass(self, family):
        report = run_verify(RunConfig(h=1 / 32, family=family))
        assert report.passed, report.failing()

    def test_report_serialization(self):
        report = run_verify(FAST)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        names = {c["condition"] for c in data["conditions"]}
        assert {"(7.1)", "(10.3)", "(26)", "(27.2)", "(28.3)", "(K-equation)"} <= names
        text = report.to_text()
        assert "PASS" in text

    def test_corrupted_costate_fails_27(self):
        report = run_verify(RunConfig(h=1 / 32, perturb_q1=0.1))
        assert not report.passed
        assert any(name.startswith("(27") for name in report.failing())
        res27 = {c.condition: c for c in report.conditions}["(27.2)"]
        assert res27.max_norm >= 0.05


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

    def test_single_h_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            run_convergence(FAST, [1 / 32])

    def test_non_halving_rejected(self):
        with pytest.raises(ValueError, match="halve"):
            run_convergence(FAST, [1 / 32, 1 / 48])


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

    def test_inv_x_zone_filter(self, tmp_path):
        paths = write_fields(RunConfig(h=1 / 32, family="inv_x", out=str(tmp_path)))
        stress = [p for p in paths if p.endswith("stress.csv")][0]
        xs = np.loadtxt(stress, delimiter=",", skiprows=1, usecols=0)
        assert np.all(np.abs(xs) >= 0.1 - 1e-12)
