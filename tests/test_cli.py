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


def out_flag(command, tmp_path):
    """`--out` for the one command that writes files."""
    return ["--out", str(tmp_path)] if command == "fields" else []


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

# six states, each A_i read from the next state and the control: a band samples 7 sheets
SIX_STATES = [f"s{k}" for k in range(1, 7)]
SIX_STATE_SYSTEM = {
    "states": SIX_STATES,
    "controls": ["u"],
    "A": [[[f"2 + cos({SIX_STATES[k % 6]})", f"u*{s}"], ["0", "1"]]
          for k, s in enumerate(SIX_STATES, 1)],
    "B": ["x*y", "u"],
    "state_fields": {s: f"{k}*x*y + sin({k}*x)" for k, s in enumerate(SIX_STATES, 1)},
    "control_fields": {"u": "x - y"},
    "h": 1 / 64,
}


def identity_system(n, h):
    """n states with A_i the identity and x^i = i x y, on the disc less an origin zone."""
    names = [f"s{i + 1}" for i in range(n)]
    return {"states": names, "controls": [], "A": [[["1", "0"], ["0", "1"]]] * n,
            "B": [" + ".join(f"{k + 1}*{'yx'[b]}" for k in range(n)) for b in (0, 1)],
            "state_fields": {nm: f"{k + 1}*x*y" for k, nm in enumerate(names)},
            "control_fields": {}, "zones": [{"kind": "origin", "size": 0.1}], "h": h}


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

    def test_too_coarse(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--h", "0.5"])
        assert result.exit_code == 2
        assert "grid too coarse" in result.output + str(result.stderr or "")
        # the same rule and message for a convergence spacing and a system's
        # "h" (at h = 0.5 the disc of radius 1 - 2h holds the origin at most)
        system = write_json(tmp_path / "s.json", {**PLASTIC_SYSTEM, "h": 0.5})
        for args in (["convergence", "--h-values", "0.5,0.25"], ["residuals", system]):
            result = runner.invoke(main, args)
            assert_usage_error(result)
            assert result.stderr.startswith("error: grid too coarse"), result.stderr

    def test_bad_config_key(self, runner, tmp_path):
        # "margin" is no key: the grid's 2h margin is a constant
        for key in ("spacing", "margin"):
            cfg = write_json(tmp_path / "c.json", {key: 0.1})
            result = runner.invoke(main, ["verify", "--config", cfg])
            assert_usage_error(result)
            assert result.stderr == f"error: unknown config keys: ['{key}']\n"

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
                                     {"c0": None}, {"gamma": True}, {"m": 100_000_000_000}])
    def test_config_values_rejected(self, runner, tmp_path, command, cfg):
        path = write_json(tmp_path / "c.json", cfg)
        assert_usage_error(runner.invoke(main, [command, "--config", path,
                                                *out_flag(command, tmp_path)]))

    @pytest.mark.parametrize("command", ["verify", "fields", "convergence"])
    def test_grid_over_budget(self, runner, tmp_path, command):
        # refused before the lattice is allocated (about 4e18 points); a
        # convergence run refuses its finest spacing before building any grid
        grid = (["--h-values", "1/256,1/512,1/1024,1/2048"] if command == "convergence"
                else ["--h", "1e-9"])
        assert_usage_error(runner.invoke(main, [command, *grid,
                                                *out_flag(command, tmp_path)]))

    @pytest.mark.parametrize("command", ["verify", "fields", "convergence"])
    @pytest.mark.parametrize("flags", [["--alpha", "1e200"],
                                       ["--family", "constant", "--delta", "1e200"],
                                       ["--family", "inv_x", "--beta", "1e300"]])
    def test_field_overflow_one_line(self, runner, tmp_path, command, flags):
        # K^2 overflows in the yield identity: one error line, no numpy warning
        grid = ["--h-values", "1/8,1/16"] if command == "convergence" else ["--h", "1/16"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [command, *grid, *flags,
                                          *out_flag(command, tmp_path)])
        assert_usage_error(result)
        assert "float64 range" in result.stderr
        assert not caught

    @pytest.mark.parametrize("command", ["verify", "fields", "convergence"])
    def test_config_not_an_object(self, runner, tmp_path, command):
        path = write_json(tmp_path / "c.json", [{"h": 0.125}])
        assert_usage_error(runner.invoke(main, [command, "--config", path,
                                                *out_flag(command, tmp_path)]))

    @pytest.mark.parametrize("flags", [["--family", "constant", "--delta", "1e-308"],
                                       ["--family", "quadratic", "--alpha", "1e-307"],
                                       ["--family", "inv_x", "--beta", "1e-308"]])
    def test_coefficient_below_floor_named(self, runner, flags):
        # refused before any grid, by the key, not by an arithmetic error
        result = runner.invoke(main, ["verify", "--h", "1/32", *flags])
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: {flags[2][2:]} = ")

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
        from bitime.plastic import Family, plastic_system
        from bitime.systems import forward_residual, split_controls

        spec = write_json(tmp_path / "p.json", PLASTIC_SYSTEM)
        result = runner.invoke(main, ["residuals", spec, "--json"])
        assert result.exit_code == 0, result.output
        got = {row["condition"]: row["max_norm"]
               for row in json.loads(result.output)["rows"]}

        fam = Family("inv_x", 1.0)
        grid = build_disc_grid(1 / 64, zones=[ExclusionZone("half_x", 0.1)])
        rho, k = grid.field(fam.rho), grid.field(fam.k)
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

    def test_one_band_evaluates_each_coefficient_once(self, runner, tmp_path, monkeypatch):
        # at h = 1/64 the grid is one band: each A_i and B is evaluated once
        from collections import Counter

        from bitime import expressions
        from conftest import counted

        calls = Counter()
        build = expressions.system_from_config
        monkeypatch.setattr(expressions, "system_from_config",
                            lambda spec: counted(build(spec), calls))
        spec = write_json(tmp_path / "p.json", PLASTIC_SYSTEM)
        result = runner.invoke(main, ["residuals", spec])
        assert result.exit_code == 0, result.output
        assert calls == {"A_1": 1, "A_2": 1, "A_3": 1, "B": 1}

    def test_formulas_compiled_once(self, runner, tmp_path, monkeypatch):
        # many bands compile each entry and field formula once, as one band does
        from collections import Counter

        from bitime import expressions, grid

        spec = write_json(tmp_path / "p.json", PLASTIC_SYSTEM)
        counts = []
        for band_nodes in (grid._BAND_NODES, 900):
            calls = Counter()

            def counting(src, names, calls=calls, compile_=expressions.compile_expression):
                calls[src] += 1
                return compile_(src, names)

            monkeypatch.setattr(expressions, "compile_expression", counting)
            monkeypatch.setattr(grid, "_BAND_NODES", band_nodes)
            result = runner.invoke(main, ["residuals", spec])
            assert result.exit_code == 0, result.output
            monkeypatch.undo()
            counts.append(calls)
        assert counts[1] == counts[0] and counts[0]["1/x"] == 2  # rho and K

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_small_bands_same_output(self, runner, tmp_path, monkeypatch, as_json):
        # bands of at most 900 nodes print the one-band report byte for byte,
        # forward rows first
        from bitime import grid

        spec = write_json(tmp_path / "p.json", PLASTIC_SYSTEM)
        want = runner.invoke(main, ["residuals", spec, *as_json])
        assert want.exit_code == 0, want.output
        first = (json.loads(want.output)["rows"][0]["condition"] if as_json
                 else want.output.split()[0])
        assert first == "forward.1"
        monkeypatch.setattr(grid, "_BAND_NODES", 900)
        assert runner.invoke(main, ["residuals", spec, *as_json]).output == want.output

    def test_small_bands_many_sheets_same_json(self, runner, tmp_path, monkeypatch):
        # a band samples the 6 states and the control, so bands of a 900-node
        # walk hold at most 450 nodes, cut between leaves no longer than that;
        # the report is the one-band report byte for byte
        from bitime import grid

        spec = write_json(tmp_path / "six.json", SIX_STATE_SYSTEM)
        want = runner.invoke(main, ["residuals", spec, "--json"])
        assert want.exit_code == 0, want.output
        walked, bands = [], grid.bands

        def recorded(g, *sheets):
            for cut, band, core in bands(g, *sheets):
                walked.append(cut[-1][1] - cut[0][0])
                yield cut, band, core

        monkeypatch.setattr(grid, "bands", recorded)
        monkeypatch.setattr(grid, "_BAND_NODES", 900)
        assert runner.invoke(main, ["residuals", spec, "--json"]).output == want.output
        assert len(walked) > 1 and max(walked) <= 450

    def test_peak_memory_per_state(self, tmp_path):
        # a band samples every state, and the walk sizes bands by the states:
        # up to 3 a band holds 32,768 nodes, from 6 on half that.  In arrays
        # the size of the largest 2-state band, at h = 1/128 (two bands for 2
        # states, four for 20 and 80), the peak measured 1.2 above the 2-state
        # peak for 20 states and 36.2 above for 80 (18.4 and 80.5 when every
        # band held 32,768 nodes, about one array per state)
        import gc
        import tracemalloc

        from bitime.expressions import grid_from_config
        from bitime.grid import bands

        peaks, systems = {}, {n: identity_system(n, 1 / 128) for n in (2, 20, 80)}
        for n, system in systems.items():
            spec = write_json(tmp_path / f"{n}.json", system)
            gc.collect()
            tracemalloc.start()
            try:
                result = CliRunner().invoke(main, ["residuals", spec])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
        field = max(band.n_nodes for _, band, _ in bands(grid_from_config(systems[2]))) * 8
        assert peaks[20] - peaks[2] <= 3 * field, (peaks[20] - peaks[2]) / field
        assert peaks[80] - peaks[2] <= 0.55 * 78 * field, (peaks[80] - peaks[2]) / field

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

    @pytest.mark.parametrize("states, controls", [
        (["x", "K"], []),   # "x" in A would read the state, not the coordinate
        (["u", "u"], []),
        (["w"], ["w"]),
        ("ab", []),         # a string, not two states "a" and "b"
        (["sin"], []),
    ])
    def test_invalid_names(self, runner, tmp_path, states, controls):
        spec = write_json(tmp_path / "s.json", {
            "states": states, "controls": controls,
            "A": [[["x", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]][:len(states)],
            "B": ["0", "0"], "h": 1 / 32,
            "state_fields": {name: "x" for name in states},
            "control_fields": {name: "y" for name in controls},
        })
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    def test_system_not_an_object(self, runner, tmp_path):
        spec = write_json(tmp_path / "s.json", [PLASTIC_SYSTEM])
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    def test_grid_over_budget(self, runner, tmp_path):
        spec = write_json(tmp_path / "s.json", dict(PLASTIC_SYSTEM, h=1e-9))
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    @pytest.mark.parametrize("system", [
        dict(PLASTIC_SYSTEM, h=10**400),
        dict(PLASTIC_SYSTEM, zones=[{"kind": "half_x", "size": 10**400}]),
        dict(PLASTIC_SYSTEM, zones=[{"kind": "origin", "size": 1e200}]),
        dict(PLASTIC_SYSTEM, zones=[{"kind": "origin", "size": 10**200}]),
    ], ids=["h", "zone-size", "zone-size-squared", "integer-zone-size-squared"])
    def test_number_beyond_float_range(self, runner, tmp_path, system):
        # an integer beyond float64 range is read exactly by json, then overflows
        spec = write_json(tmp_path / "s.json", system)
        assert_usage_error(runner.invoke(main, ["residuals", spec]))

    def test_json_integer_beyond_digit_limit(self, runner, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"h": 1' + "0" * 5000 + "}")
        assert_usage_error(runner.invoke(main, ["residuals", str(path)]))

    @pytest.mark.parametrize("entry, where", [
        (("A", 0, 0, 0), "A[0][0][0]"),
        (("A", 3, 1, 0), "A[3][1][0]"),
        (("B", 1), "B[1]"),
        (("state_fields", "rho"), "state_fields.rho"),
    ])
    def test_compile_error_names_entry(self, runner, tmp_path, entry, where):
        names = ["rho", "K", "phi", "a", "b", "c"]
        system = {"states": names, "controls": [],
                  "A": [[["1", "0"], ["0", "1"]] for _ in names], "B": ["0", "0"],
                  "state_fields": {name: "x" for name in names}, "h": 1 / 16}
        target = system
        for key in entry[:-1]:
            target = target[key]
        target[entry[-1]] = "sin("
        result = runner.invoke(main, ["residuals", write_json(tmp_path / "s.json", system)])
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: {where}: '(' was never closed (line 1, column 4)")

    def test_field_evaluation_error_names_entry(self, runner, tmp_path):
        system = dict(PLASTIC_SYSTEM, zones=[])  # 1/x meets the node x = 0
        result = runner.invoke(main, ["residuals", write_json(tmp_path / "s.json", system)])
        assert_usage_error(result)
        assert result.stderr.startswith("error: state_fields.rho is not finite on the mask")

    @pytest.mark.parametrize("formula", ["1if x else 2", "x is 1", "\x00", "\ud800"])
    def test_rejected_expression_one_line(self, runner, tmp_path, formula):
        # no parser SyntaxWarning or encoding traceback around the error line
        spec = write_json(tmp_path / "s.json", {
            "states": ["w"], "controls": [],
            "A": [[[formula, "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "x"}, "control_fields": {}, "h": 1 / 32,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["residuals", spec])
        assert_usage_error(result)
        assert not caught

    def test_malformed_expression(self, runner, tmp_path):
        spec = write_json(tmp_path / "bad.json", {
            "states": ["w"], "controls": [],
            "A": [[["sin(", "0"], ["0", "1"]]], "B": ["0", "0"],
            "state_fields": {"w": "0"}, "control_fields": {},
        })
        result = runner.invoke(main, ["residuals", spec])
        assert result.exit_code == 2
        assert "line 1" in result.output + str(result.stderr or "")

    @pytest.mark.parametrize("entry, where", [
        ({"zones": None}, "zones: "),
        ({"zones": [1]}, "zones[0]: "),
        ({"zones": [{"kind": "origin"}]}, "zones[0]: "),
        ({"zones": [{"kind": "half_x", "size": 0.1}, {"kind": "bogus", "size": 0.1}]},
         "zones[1]: unknown exclusion zone kind"),
        ({"h": []}, "h: "),
        ({"h": "0.015625"}, "h: "),
        ({"h": True}, "h: "),
    ], ids=["zones-null", "zone-not-object", "zone-without-size", "zone-kind",
            "h-list", "h-string", "h-bool"])
    def test_malformed_grid_entry_named(self, runner, tmp_path, entry, where):
        spec = write_json(tmp_path / "s.json", {**PLASTIC_SYSTEM, **entry})
        result = runner.invoke(main, ["residuals", spec])
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: {where}"), result.stderr

    @pytest.mark.parametrize("entry, where", [
        ({"A": 5}, "A: "),
        ({"A": [5] + PLASTIC_SYSTEM["A"][1:]}, "A[0]: "),
        ({"A": [[{"a": "1", "b": "0"}, ["0", "1"]]] + PLASTIC_SYSTEM["A"][1:]}, "A[0][0]: "),
        ({"B": 5}, "B: "),
        ({"state_fields": ["1/x", "1/x", "0"]}, "state_fields: "),
        ({"control_fields": 3}, "control_fields: "),
    ], ids=["A-number", "A-matrix-number", "A-row-object", "B-number", "state-fields-list",
            "control-fields-number"])
    def test_wrong_shape_named(self, runner, tmp_path, entry, where):
        spec = write_json(tmp_path / "s.json", {**PLASTIC_SYSTEM, **entry})
        result = runner.invoke(main, ["residuals", spec])
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: {where}"), result.stderr


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

    def test_no_interior_node(self, runner, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"family": "inv_x", "eps0": 0.3})
        result = runner.invoke(main, ["convergence", "--config", cfg,
                                      "--h-values", "1/8,1/16"])
        assert_usage_error(result)
        assert "no interior node" in result.stderr

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


OPTIONS = {
    "verify": ["--config", "--h", "--family", "--alpha", "--beta", "--gamma", "--delta",
               "--json"],
    "fields": ["--config", "--h", "--family", "--alpha", "--beta", "--gamma", "--delta",
               "--out", "--json"],
    "convergence": ["--h-values", "--config", "--family", "--alpha", "--beta", "--gamma",
                    "--delta", "--json"],
    "residuals": ["--h", "--json"],
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_command_takes_only_what_it_reads(self, command):
        params = main.commands[command].params
        assert [p.opts[0] for p in params if p.param_type_name == "option"] == OPTIONS[command]

    @pytest.mark.parametrize("command, flag", [
        ("verify", "--out"),
        ("convergence", "--h"), ("convergence", "--out"),
        *(("residuals", flag) for flag in ("--config", "--family", "--alpha", "--beta",
                                           "--gamma", "--delta", "--out")),
    ])
    def test_removed_flag_one_line(self, runner, tmp_path, command, flag):
        args = ["residuals", write_json(tmp_path / "s.json", PLASTIC_SYSTEM)] \
            if command == "residuals" else [command]
        result = runner.invoke(main, [*args, flag, "1"])
        assert_usage_error(result)
        assert flag in result.stderr

    @pytest.mark.parametrize("args", [["verify", "--alpha", "abc"], ["residuals"],
                                      ["verify", "--h"], ["bogus"], [], ["--bogus"]],
                             ids=["bad-float", "missing-argument", "missing-value",
                                  "unknown-command", "missing-command", "unknown-group-option"])
    def test_usage_error_one_line(self, runner, args):
        assert_usage_error(runner.invoke(main, args))

    @pytest.mark.parametrize("command", [[], *([c] for c in sorted(OPTIONS))])
    def test_help_unchanged(self, runner, command):
        result = runner.invoke(main, [*command, "--help"])
        assert result.exit_code == 0
        assert result.output.startswith("Usage: ") and result.stderr == ""


class TestHeapPolicy:
    """On glibc the command group keeps band arrays on the heap and freed heap
    memory in the process; elsewhere it changes nothing."""

    @staticmethod
    def fake_libc(monkeypatch, with_mallopt=True):
        import ctypes

        calls, opened = [], []

        class Libc:
            pass

        libc = Libc()
        if with_mallopt:
            def mallopt(param, value):
                calls.append((param, value))
                return 1
            libc.mallopt = mallopt

        def cdll(name, *args, **kwargs):
            opened.append(name)
            return libc

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        return libc, calls, opened

    def run_residuals(self, runner, tmp_path):
        spec = write_json(tmp_path / "s.json", {**PLASTIC_SYSTEM, "h": 1 / 32})
        result = runner.invoke(main, ["residuals", spec, "--json"])
        assert result.exit_code == 0, result.output

    def test_sets_both_thresholds(self, runner, tmp_path, monkeypatch):
        import ctypes

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        libc, calls, _ = self.fake_libc(monkeypatch)
        self.run_residuals(runner, tmp_path)
        # the mmap threshold (-3) is set with the trim threshold (-1), never the
        # trim threshold alone, which would freeze the mmap threshold at 128 KiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert list(libc.mallopt.argtypes) == [ctypes.c_int, ctypes.c_int]
        assert libc.mallopt.restype is ctypes.c_int

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_not_glibc_does_nothing(self, runner, tmp_path, monkeypatch, error):
        def confstr(name):
            raise error(name)

        monkeypatch.setattr(os, "confstr", confstr)
        _, calls, opened = self.fake_libc(monkeypatch)
        self.run_residuals(runner, tmp_path)
        assert calls == [] and opened == []

    def test_no_mallopt_does_nothing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        libc, _, opened = self.fake_libc(monkeypatch, with_mallopt=False)
        self.run_residuals(runner, tmp_path)
        assert opened == [None] and not hasattr(libc, "mallopt")

    def test_repeated_calls_fault_no_pages(self, tmp_path):
        # a fresh process runs 8 in-process residuals calls at h = 1/128; once
        # the heap has grown, freed band memory is reused, so calls 3-8 take
        # almost no minor page faults (about 1,400 per call when glibc trims
        # the heap and unmaps band arrays)
        import subprocess
        import sys

        import bitime

        try:
            if not os.confstr("CS_GNU_LIBC_VERSION"):
                pytest.skip("not glibc")
        except (ValueError, OSError):
            pytest.skip("not glibc")
        spec = write_json(tmp_path / "s.json", {**PLASTIC_SYSTEM, "h": 1 / 128})
        script = (
            "import resource, sys\n"
            "from click.testing import CliRunner\n"
            "from bitime.cli import main\n"
            "runner, faults = CliRunner(), []\n"
            "for _ in range(8):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    result = runner.invoke(main, ['residuals', sys.argv[1], '--json'])\n"
            "    assert result.exit_code == 0, result.output\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(*faults)\n")
        src = os.path.dirname(os.path.dirname(bitime.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script, spec], env=env, check=True,
                             capture_output=True, text=True).stdout
        faults = [int(n) for n in out.split()]
        assert len(faults) == 8 and sum(faults[2:]) < 100, faults
