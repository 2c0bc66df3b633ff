import json
import os
import warnings

import pytest
from click.testing import CliRunner

from bitime.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def assert_usage_error(result):
    """Exit 2 with exactly one `error:` line on stderr and no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


BAD_H = ["1/0", "abc"]

PLASTIC_SYSTEM = {
    "states": ["rho", "K", "phi"],
    "controls": [],
    "A": [
        [["1", "0"], ["0", "1"]],
        [["-cos(phi)", "sin(phi)"], ["sin(phi)", "cos(phi)"]],
        [["K*sin(phi)", "K*cos(phi)"], ["K*cos(phi)", "-K*sin(phi)"]],
    ],
    "B": ["0", "0"],
    "state_fields": {
        "rho": "1/x",
        "K": "1/x",
        "phi": "3.141592653589793 - 2*atan2(y, x)",
    },
    "control_fields": {},
    "zones": [{"kind": "half_x", "size": 0.1}],
    "h": 1 / 64,
}


class TestVerify:
    def test_default_exit_zero(self, runner):
        result = runner.invoke(main, ["verify", "--h", "1/32"])
        assert result.exit_code == 0, result.output

    def test_json_report(self, runner):
        result = runner.invoke(main, ["verify", "--h", "1/32", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True

    def test_corrupted_costate(self, runner, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"perturb_q1": 0.1, "h": 1 / 32})
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 1
        assert "(27" in result.output

    def test_too_coarse(self, runner):
        result = runner.invoke(main, ["verify", "--h", "0.5"])
        assert result.exit_code == 2
        assert "grid too coarse" in result.output + str(result.stderr or "")

    def test_bad_config_key(self, runner, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"spacing": 0.1})
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 2

    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["verify", "--config", "/nonexistent.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("h", BAD_H)
    def test_unparsable_h(self, runner, h):
        assert_usage_error(runner.invoke(main, ["verify", "--h", h]))

    @pytest.mark.parametrize("cfg", [{"m": 8.5}, {"m": 400.0}, {"h": "1/64"}])
    def test_config_types(self, runner, tmp_path, cfg):
        path = write_json(tmp_path / "c.json", cfg)
        assert_usage_error(runner.invoke(main, ["verify", "--config", path]))

    @pytest.mark.parametrize("command", ["verify", "fields", "convergence"])
    @pytest.mark.parametrize("cfg", [{"alpha": "abc"}, {"eps0": "0.1"}, {"perturb_q1": "x"},
                                     {"c0": None}, {"margin": "0"}, {"m": 100_000_000_000}])
    def test_config_values_rejected(self, runner, tmp_path, command, cfg):
        path = write_json(tmp_path / "c.json", cfg)
        assert_usage_error(runner.invoke(main, [command, "--config", path,
                                                "--out", str(tmp_path)]))

    @pytest.mark.parametrize("command", ["verify", "fields"])
    def test_grid_over_budget(self, runner, tmp_path, command):
        # refused before the lattice is allocated (about 4e18 points)
        assert_usage_error(runner.invoke(main, [command, "--h", "1e-9",
                                                "--out", str(tmp_path)]))

    def test_family_flag(self, runner):
        result = runner.invoke(main, ["verify", "--h", "1/32",
                                      "--family", "constant", "--delta", "2.0"])
        assert result.exit_code == 0, result.output


class TestResiduals:
    def test_trivial_system(self, runner, tmp_path):
        spec = write_json(tmp_path / "s.json", {
            "states": ["w"], "controls": [],
            "A": [[["1", "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "3"}, "control_fields": {},
            "h": 1 / 32,
        })
        result = runner.invoke(main, ["residuals", spec, "--json"])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert all(row["max_norm"] <= 1e-12 for row in data["rows"])

    def test_plastic_two_path_equivalence(self, runner, tmp_path):
        # the expression-defined plastic system must reproduce the norms of
        # the hand-coded evaluators run through the identical pipeline
        import numpy as np
        from bitime.grid import ExclusionZone, build_disc_grid
        from bitime.integrability import cic_multi
        from bitime.plastic import Family, k_family, plastic_system, rho_family
        from bitime.systems import forward_residual, split_controls

        spec = write_json(tmp_path / "p.json", PLASTIC_SYSTEM)
        result = runner.invoke(main, ["residuals", spec, "--json"])
        assert result.exit_code == 0, result.output
        got = {row["condition"]: row["max_norm"]
               for row in json.loads(result.output)["rows"]}

        fam = Family("inv_x", 1.0)
        grid = build_disc_grid(1 / 64, zones=[ExclusionZone("half_x", 0.1)])
        rho, k = rho_family(grid, fam), k_family(grid, fam)
        phi = grid.field(lambda x, y: np.pi - 2 * np.arctan2(
            y, np.where(x == 0, 1.0, x)))
        states = [rho, k, phi]
        fwd = forward_residual(plastic_system(), grid, states)
        cic = cic_multi(split_controls(plastic_system(), grid, states))
        want = {"forward.1": fwd[0].max_norm(), "forward.2": fwd[1].max_norm()}
        want.update({f"cic.{i + 1}": r.max_norm()
                     for i, r in enumerate(cic.residuals)})
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-10 * max(1.0, value), name

    @pytest.mark.parametrize("h", BAD_H)
    def test_unparsable_h(self, runner, tmp_path, h):
        spec = write_json(tmp_path / "s.json", PLASTIC_SYSTEM)
        assert_usage_error(runner.invoke(main, ["residuals", spec, "--h", h]))

    def test_formula_singular_on_mask(self, runner, tmp_path):
        # no zones: the origin is a masked node, where 1/x is singular
        spec = write_json(tmp_path / "s.json", {
            "states": ["w"], "controls": [],
            "A": [[["1", "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "1/x"}, "control_fields": {},
            "h": 1 / 32,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["residuals", spec])
        assert_usage_error(result)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("formula", ["10**400", "9**9**9"])
    @pytest.mark.parametrize("where", ["state_fields", "A"])
    def test_overflowing_expression(self, runner, tmp_path, formula, where):
        # float64 literals: both overflow to inf at once and are rejected
        system = {"states": ["w"], "controls": [],
                  "A": [[["1", "0"], ["0", "1"]]], "B": ["0", "0"],
                  "state_fields": {"w": "x"}, "control_fields": {}, "h": 1 / 32}
        if where == "A":
            system["A"] = [[[formula, "0"], ["0", "1"]]]
        else:
            system["state_fields"] = {"w": formula}
        spec = write_json(tmp_path / "s.json", system)
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    def test_coefficient_singular_off_mask(self, runner, tmp_path):
        # A = 1/w with w = x is singular only on x = 0, which half_x removes
        spec = write_json(tmp_path / "s.json", {
            "states": ["w"], "controls": [],
            "A": [[["1/w", "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "x"}, "control_fields": {},
            "zones": [{"kind": "half_x", "size": 0.1}], "h": 1 / 32,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["residuals", spec])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    def test_grid_over_budget(self, runner, tmp_path):
        spec = write_json(tmp_path / "s.json", dict(PLASTIC_SYSTEM, h=1e-9))
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    def test_malformed_expression(self, runner, tmp_path):
        spec = write_json(tmp_path / "bad.json", {
            "states": ["w"], "controls": [],
            "A": [[["sin(", "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "0"}, "control_fields": {},
        })
        result = runner.invoke(main, ["residuals", spec])
        assert result.exit_code == 2
        assert "line 1" in result.output + str(result.stderr or "")


class TestConvergence:
    def test_quadratic_table(self, runner):
        result = runner.invoke(main, ["convergence", "--h-values", "1/16,1/32,1/64"])
        assert result.exit_code == 0, result.output
        assert "exact" in result.output

    def test_single_h(self, runner):
        result = runner.invoke(main, ["convergence", "--h-values", "1/32"])
        assert result.exit_code == 2

    def test_non_halving(self, runner):
        result = runner.invoke(main, ["convergence", "--h-values", "1/32,1/48"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("h_values", ["1/0", "1/32,abc"])
    def test_unparsable_h_values(self, runner, h_values):
        assert_usage_error(runner.invoke(main, ["convergence", "--h-values", h_values]))


class TestFields:
    def test_default_header(self, runner, tmp_path):
        result = runner.invoke(main, ["fields", "--h", "1/32",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "stress.csv") as fh:
            assert fh.readline().strip() == "x,y,sxx,syy,sxy,rho,K,cphi,sphi"

    def test_determinism(self, runner, tmp_path):
        for sub in ("a", "b"):
            result = runner.invoke(main, ["fields", "--h", "1/32",
                                          "--out", str(tmp_path / sub)])
            assert result.exit_code == 0
        for name in ("stress.csv", "costates.csv", "residuals.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_inv_x_zone_filter(self, runner, tmp_path):
        result = runner.invoke(main, ["fields", "--h", "1/32",
                                      "--family", "inv_x", "--out", str(tmp_path)])
        assert result.exit_code == 0
        with open(tmp_path / "stress.csv") as fh:
            next(fh)
            for line in fh:
                assert abs(float(line.split(",")[0])) >= 0.1 - 1e-12

    @pytest.mark.parametrize("h", BAD_H)
    def test_unparsable_h(self, runner, tmp_path, h):
        assert_usage_error(runner.invoke(main, ["fields", "--h", h,
                                                "--out", str(tmp_path)]))

    def test_unwritable_path(self, runner):
        result = runner.invoke(main, ["fields", "--h", "1/32",
                                      "--out", "/proc/definitely/not/writable"])
        assert result.exit_code == 2
