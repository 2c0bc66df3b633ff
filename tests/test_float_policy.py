"""The library fails like the command line.

Values are checked where they enter the grid, and the band walk raises on
arithmetic out of float64 range, so a library call and the matching command
refuse the same input with the same one-line error, and neither lets a
numpy warning escape.
"""

import json
import os
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from bitime.cli import main
from bitime.suite import RunConfig, run_convergence, run_verify, write_fields

OVERFLOW = "arithmetic out of float64 range (overflow encountered in multiply)"
NOT_FINITE = "closed form is not finite on the mask"

# (config keys, message, commands): K^2 overflows in the yield identity at
# alpha = 1e200; at delta = 1e153 only the squares in the norms overflow;
# alpha = 1e308 makes rho = -2 alpha r^2 an infinity in Python float
# arithmetic, which raises no numpy flag and is refused where it enters; at
# h = 1/8 with 100,000 circle samples, perturb_q1 = 1e152 overflows the sum
# of squares of (27.2) and of no grid condition
CASES = [
    ({"alpha": 1e200}, OVERFLOW, ("verify", "convergence", "fields")),
    ({"family": "constant", "delta": 1e153}, OVERFLOW, ("verify", "convergence")),
    ({"alpha": 1e308}, NOT_FINITE, ("verify", "convergence", "fields")),
    ({"h": 1 / 8, "m": 100_000, "perturb_q1": 1e152},
     "arithmetic out of float64 range (overflow encountered in reduce)", ("verify",)),
]
PARITY = [(keys, message, command) for keys, message, commands in CASES
          for command in commands]
# config keys that are also command-line options
OPTIONS = {"h", "family", "alpha", "beta", "gamma", "delta"}


def ids(case):
    keys, _, command = case
    return f"{command}-" + "-".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in keys.items())


def library_call(command, keys, out_dir):
    config = RunConfig(**{"h": 1 / 32, **keys})
    if command == "verify":
        return run_verify(config)
    if command == "convergence":
        return run_convergence(config, [1 / 8, 1 / 16])
    return write_fields(config, str(out_dir))


def command_line(command, keys, out_dir):
    """The command's arguments: options where the command has them, a config file for the rest."""
    keys = {"h": 1 / 32, **keys}
    args = [command]
    if command == "convergence":
        del keys["h"]
        args += ["--h-values", "1/8,1/16"]
    args += [arg for key, value in keys.items() if key in OPTIONS
             for arg in (f"--{key}", str(value))]
    rest = {key: value for key, value in keys.items() if key not in OPTIONS}
    if rest:
        path = out_dir / "config.json"
        path.write_text(json.dumps(rest))
        args += ["--config", str(path)]
    return args + (["--out", str(out_dir)] if command == "fields" else [])


@pytest.mark.parametrize("case", PARITY, ids=ids)
def test_library_raises_the_command_line_error(tmp_path, case):
    keys, message, command = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            library_call(command, keys, tmp_path)


@pytest.mark.parametrize("case", PARITY, ids=ids)
def test_command_exits_2_with_the_same_line(tmp_path, case):
    keys, message, command = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, command_line(command, keys, tmp_path))
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


def test_fields_finite_where_only_the_norms_overflow(tmp_path):
    keys = {"family": "constant", "delta": 1e153}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = write_fields(RunConfig(h=1 / 32, **keys), str(tmp_path / "library"))
        (tmp_path / "cli").mkdir()
        result = CliRunner().invoke(main, command_line("fields", keys, tmp_path / "cli"))
    assert result.exit_code == 0 and result.stderr == "", result.output
    largest = 0.0
    for path in paths:
        values = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.isfinite(values).all()
        largest = max(largest, np.abs(values).max())
        with open(path, "rb") as fh, open(tmp_path / "cli" / os.path.basename(path), "rb") as gh:
            assert fh.read() == gh.read()
    # a value whose square is beyond float64 range: what the norms would overflow on
    assert largest > np.sqrt(np.finfo(np.float64).max)
