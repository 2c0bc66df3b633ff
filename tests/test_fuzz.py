"""Bounded fuzzing of the two input parsers: expressions and run configs.

Each parser must either return or raise its own error type (which the
command line turns into exit 2), never anything else, and must do so
within the deadline.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitime.expressions import ExpressionError, compile_expression
from bitime.suite import RunConfig

FUZZ = settings(max_examples=300, deadline=1000,
                suppress_health_check=[HealthCheck.too_slow])

# Fragments of the expression language, plus characters it rejects.
TOKENS = ["x", "y", "u", "1", "2.5", "1if", "is", "1e308", "9", "0", "(", ")", ",", "+", "-",
          "*", "/", "**", "^", " ", "sin", "cos", "atan2", "exp", "[", "]", "'",
          "lambda", ":", "=", "if", "j", "\x00", "\\", "\n", "é", "\ud800"]
EXPRESSIONS = (st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)
               | st.text(max_size=40))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
CONFIG_VALUES = (JSON | st.floats(-1.0, 1.0) | st.integers(-10, 1000)
                 | st.integers(min_value=10**309) | st.sampled_from(
                     ["quadratic", "inv_x", "inv_y", "constant", "bogus", "."]))
CONFIGS = st.dictionaries(st.sampled_from(RunConfig._KEYS) | st.text(max_size=6),
                          CONFIG_VALUES, max_size=6)


@FUZZ
@given(EXPRESSIONS)
def test_compile_expression_returns_or_raises_expression_error(src):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = compile_expression(src, ["x", "y", "u"])
    except ExpressionError:
        return
    values = np.array([0.5, -0.25, 0.0])
    with np.errstate(all="ignore"):
        out = np.asarray(f(values, values[::-1], 2.0 * values), dtype=float)
    assert out.size in (1, 3)


@FUZZ
@given(CONFIGS)
def test_run_config_from_dict_returns_or_raises_value_error(d):
    try:
        RunConfig.from_dict(d)
    except ValueError:
        pass
