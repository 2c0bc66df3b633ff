"""Bounded fuzzing of the input parsers and of the command line.

Each parser must either return or raise its own error type (which the
command line turns into exit 2), never anything else, and must do so
within the deadline.  Each command, run on a fuzzed config or system file,
must exit 0 or 1 with nothing on stderr, or exit 2 with exactly one
`error:` line; nothing may raise or warn.
"""

import json
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from bitime.cli import main
from bitime.expressions import ExpressionError, compile_expression
from bitime.plastic import FAMILY_KINDS
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
CONFIGS = st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)])
                          | st.text(max_size=6),
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


# Command fuzzing.  Grid spacings come from a coarse set plus values that are
# refused before any grid is built, so every example stays cheap: nothing
# between 1e-9 (over the lattice budget) and 1/16 is drawn.  Each value is
# well-typed and in range most of the time, so most examples get past the
# input checks; the in-range values include magnitudes whose squares
# overflow.
COARSE_H = [0.25, 1 / 8, 1 / 16]
HOSTILE_H = [0, -1, 0.3, 1, 1e-9, 5e-324, 10**400, float("nan"), float("inf"), "1/16",
             None, True, []]
LARGE = [1e100, 1e160, 1e200, 1e300, 1.7e308, 1e-300, 5e-324]
HOSTILE_NUMBERS = [0, -1, -1e308, 10**400, float("nan"), float("inf"), "1", None, True,
                   [], {}]


def mostly(valid, hostile):
    """`valid` seven times in eight."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 0 else valid)


H_VALUES = mostly(st.sampled_from(COARSE_H), st.sampled_from(HOSTILE_H))
NUMBERS = mostly(st.floats(0.05, 5.0) | st.sampled_from(LARGE),
                 st.sampled_from(HOSTILE_NUMBERS) | st.floats())
CONFIG_FIELDS = {
    "m": mostly(st.integers(8, 100_000), st.sampled_from([0, 7, 10**12, 8.5, "360", None])),
    "family": mostly(st.sampled_from(FAMILY_KINDS), st.sampled_from(["bogus", 1, None])),
    "eps0": mostly(st.floats(0.05, 0.5), st.sampled_from(HOSTILE_NUMBERS)),
    **{key: NUMBERS for key in ("alpha", "beta", "gamma", "delta", "c0", "perturb_q1",
                                "tolerance_c")},
}
RUN_CONFIGS = mostly(
    st.fixed_dictionaries({"h": H_VALUES}, optional=CONFIG_FIELDS),
    st.sampled_from([[], [{"h": 0.125}], 1, "x", None, {"spacing": 0.125}]))

# Matrix entries and field formulas: valid, valid but overflowing or singular
# on some node, and malformed.
ENTRIES = mostly(st.sampled_from(["1", "0", "x", "y", "s1", "sin(s1)", "1 + s1*s1",
                                  "cos(x)*s1", "1/x", "1/s1", "1e200*s1", "x*1e200*1e200"]),
                 st.sampled_from(["10**400", "sin(", "", "q", "s9", 3]))
FORMULAS = mostly(st.sampled_from(["x", "y", "x*y", "3", "x**2", "1 + x*y", "1/x", "1e160*x",
                                   "1e200", "1e300*x*y"]),
                  st.sampled_from(["10**400", "sin(", "q", 0.5]))
ZONES = st.lists(st.fixed_dictionaries(
    {"kind": mostly(st.sampled_from(["origin", "abs_x", "abs_y", "half_x", "half_y"]),
                    st.just("bogus")),
     "size": mostly(st.floats(0.0, 0.5), st.sampled_from(HOSTILE_NUMBERS + [1e200]))}),
    max_size=2)


@st.composite
def systems(draw):
    """A residuals system file over states s1..sn, with at most one structural defect."""
    n = draw(st.integers(1, 3))
    states = ["s1", "s2", "s3"][:n]
    matrix = st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2)
    system = {
        "states": states,
        "controls": draw(st.sampled_from([[], ["u"]])),
        "A": draw(st.lists(matrix, min_size=n, max_size=n)),
        "B": draw(st.lists(ENTRIES, min_size=2, max_size=2)),
        "state_fields": {name: draw(FORMULAS) for name in states},
        "control_fields": {"u": draw(FORMULAS)},
        "zones": draw(ZONES),
        "h": draw(H_VALUES),
    }
    defect = draw(mostly(st.none(), st.sampled_from(
        ["names", "matrices", "rhs", "zones", "delete"])))
    if defect == "names":
        system["states"] = draw(st.sampled_from([["x"], ["s1", "s1"], ["1a"], "s1", []]))
    elif defect == "matrices":
        system["A"] = system["A"][1:] + [[["1"]]]
    elif defect == "rhs":
        system["B"] = ["0"]
    elif defect == "zones":
        system["zones"] = draw(st.sampled_from([None, {}, [1], [{"kind": "origin"}]]))
    elif defect == "delete":
        del system[draw(st.sampled_from(sorted(system)))]
    return system


def assert_clean_exit(result):
    """Exit 0 or 1 with empty stderr, or exit 2 with one `error:` line."""
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    lines = result.stderr.splitlines()
    if result.exit_code in (0, 1):
        assert lines == [], result.stderr
    else:
        assert result.exit_code == 2, result.output
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def invoke(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return CliRunner().invoke(main, args)


COMMAND_FUZZ = settings(max_examples=40, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow,
                                               HealthCheck.function_scoped_fixture])


@COMMAND_FUZZ
@given(config=RUN_CONFIGS,
       command=st.sampled_from([["verify"], ["fields"],
                                ["convergence", "--h-values", "1/8,1/16"]]))
def test_commands_on_fuzzed_config(tmp_path, config, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = ["--out", str(tmp_path / "out")] if command == ["fields"] else []
    assert_clean_exit(invoke([*command, "--config", str(path), *out]))


@COMMAND_FUZZ
@given(system=systems())
def test_residuals_on_fuzzed_system(tmp_path, system):
    # no --h: it would hide the system's own "h"
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    assert_clean_exit(invoke(["residuals", str(path)]))
