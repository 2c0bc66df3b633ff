import numpy as np
import pytest

from bitime.expressions import (ExpressionError, compile_expression,
                                fields_from_config, grid_from_config, system_from_config)
from bitime.systems import forward_residual


class TestCompileExpression:
    def test_arithmetic(self):
        f = compile_expression("2*x + y/4 - 1", ["x", "y"])
        assert f(3.0, 8.0) == 7.0

    def test_power_both_spellings(self):
        assert compile_expression("x**2", ["x"])(3.0) == 9.0
        assert compile_expression("x^2", ["x"])(3.0) == 9.0

    def test_functions(self):
        f = compile_expression("sin(x)^2 + cos(x)^2", ["x"])
        assert abs(f(0.7) - 1.0) <= 1e-15

    def test_atan2(self):
        f = compile_expression("atan2(y, x)", ["x", "y"])
        assert abs(f(1.0, 1.0) - np.pi / 4) <= 1e-15

    def test_array_capable(self):
        f = compile_expression("x*y", ["x", "y"])
        out = f(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert list(out) == [3.0, 8.0]

    def test_unknown_symbol(self):
        with pytest.raises(ExpressionError, match="unknown symbol 'z'"):
            compile_expression("x + z", ["x", "y"])

    def test_syntax_error_has_location(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("sin(", ["x"])
        assert err.value.line == 1
        assert err.value.column >= 1

    def test_disallowed_call(self):
        with pytest.raises(ExpressionError, match="sin, cos, atan2"):
            compile_expression("exp(x)", ["x"])

    def test_disallowed_syntax(self):
        with pytest.raises(ExpressionError):
            compile_expression("[1, 2]", ["x"])
        with pytest.raises(ExpressionError):
            compile_expression("x if x else x", ["x"])

    def test_string_constant_rejected(self):
        with pytest.raises(ExpressionError, match="numeric"):
            compile_expression("'a'", ["x"])

    def test_literals_are_float64(self):
        assert type(compile_expression("2", [])()) is np.float64
        assert compile_expression("7/2", [])() == 3.5

    @pytest.mark.parametrize("src", ["10**400", "9**9**9"])
    def test_power_overflows_to_inf(self, src):
        with np.errstate(over="ignore"):
            assert compile_expression(src, [])() == np.inf

    def test_overflow_on_mask_rejected(self, grid32):
        with pytest.raises(ValueError, match="not finite on the mask"):
            grid32.field(compile_expression("x + 9**9**9", ["x", "y"]))

    @pytest.mark.parametrize("src", ["1e999", "1" + "0" * 400])
    def test_literal_out_of_range(self, src):
        with pytest.raises(ExpressionError, match="out of float64 range"):
            compile_expression(src, [])

    @pytest.mark.parametrize("src", ["x+" * 300 + "x", "-" * 100_000 + "x"])
    def test_nesting_bounded(self, src):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            compile_expression(src, ["x"])

    def test_bare_function_name_rejected(self):
        with pytest.raises(ExpressionError, match="unknown symbol 'sin'"):
            compile_expression("sin + x", ["x"])

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError, match="takes 1"):
            compile_expression("sin(x, x)", ["x"])


SINGLE = {
    "states": ["w"],
    "controls": [],
    "A": [[["1", "0"], ["0", "1"]]],
    "B": ["1", "0"],
    "state_fields": {"w": "x"},
    "control_fields": {},
}


class TestSystemFromConfig:
    def test_single_state_linear_exact(self, grid32):
        sys = system_from_config(SINGLE)
        states, controls = fields_from_config(SINGLE, grid32)
        r1, r2 = forward_residual(sys, grid32, states, controls)
        assert r1.max_norm() <= 1e-12
        assert r2.max_norm() <= 1e-12

    def test_no_states_rejected(self):
        with pytest.raises(ExpressionError, match="no states"):
            system_from_config({"states": [], "A": []})

    def test_matrix_shape_checked(self):
        bad = dict(SINGLE, A=[[["1", "0"]]])
        with pytest.raises(ExpressionError, match="2x2"):
            system_from_config(bad)

    def test_matrix_count_checked(self):
        bad = dict(SINGLE, A=[])
        with pytest.raises(ExpressionError, match="need 1"):
            system_from_config(bad)

    @pytest.mark.parametrize("states, controls, match", [
        (["x"], [], "reserved"),        # would shadow the coordinate x
        (["atan2"], [], "reserved"),
        (["w"], ["cos"], "reserved"),
        (["w", "w"], [], "declared twice"),
        (["w"], ["w"], "declared twice"),
        ("w", [], "must be a list"),    # a string is not a list of names
        (["w"], "u", "must be a list"),
        (["a b"], [], "not an identifier"),
        (["lambda"], [], "not an identifier"),
        ([1], [], "not an identifier"),
    ])
    def test_declared_names_checked(self, states, controls, match):
        cfg = dict(SINGLE, states=states, controls=controls,
                   A=[[["1", "0"], ["0", "1"]]] * len(states))
        with pytest.raises(ExpressionError, match=match):
            system_from_config(cfg)

    def test_config_must_be_object(self):
        with pytest.raises(ExpressionError, match="JSON object"):
            system_from_config([SINGLE])

    def test_state_symbols_usable(self, grid32):
        cfg = dict(SINGLE, A=[[["1 + w*w", "0"], ["0", "1"]]])
        sys = system_from_config(cfg)
        states, controls = fields_from_config(cfg, grid32)
        a = sys.matrix(1, grid32, [s.data for s in states], [])
        assert abs(a[0, 0] - (1.0 + grid32.x**2)).max() <= 1e-14

    def test_missing_field_entry(self, grid32):
        cfg = dict(SINGLE, state_fields={})
        with pytest.raises(ExpressionError, match="missing state_fields"):
            fields_from_config(cfg, grid32)


@pytest.mark.parametrize("size", [1e200, 10**200], ids=["float", "integer"])
def test_origin_zone_squared_beyond_float_range(size):
    # an origin zone compares squared radii, so its squared size must be a float64
    spec = {"h": 1 / 16, "zones": [{"kind": "origin", "size": size}]}
    with pytest.raises(ValueError, match=r"^zones\[0\]: origin zone size 1e\+200 is beyond "
                                         "float64 range when squared$"):
        grid_from_config(spec)
