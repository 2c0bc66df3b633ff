"""The benchmark's traced replays reproduce the program's own results.

`perfbench/tracing.py` re-runs each pipeline through the public functions,
with a span around each call, and its per-layer numbers mean something only
while the replay computes what the program computes.  This checks that at
h = 1/32, importing the benchmark's modules without changing them:
`replay_verify` against `run_verify`, `replay_fields` against `write_fields`
and `replay_residuals` against the `residuals` command.
"""

import hashlib
import json
import os
import random
import sys

import pytest
from click.testing import CliRunner

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from bitime.cli import main  # noqa: E402
from bitime.suite import RunConfig, run_verify, write_fields  # noqa: E402

H = 1.0 / 32.0


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("perturb", [0.0, workloads.NEG_PERTURB_Q1])
@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_replay_verify_matches_run_verify(tmp_path, family, perturb):
    config = RunConfig(h=H, family=family, perturb_q1=perturb)
    report = run_verify(config)
    _, norms = tracing.replay_verify(tracing.Tracer(), workloads.Input("parity", H, config),
                                     str(tmp_path))
    want = {c.condition: c.max_norm for c in report.conditions}
    # the replay covers the grid conditions, not the circle samples (27.x)
    assert set(want) - set(norms) == {"(27.1)", "(27.2)", "(27.3)"}
    assert norms == {name: want[name] for name in norms}


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_replay_fields_matches_write_fields(tmp_path, family):
    config = RunConfig(h=H, family=family)
    paths = write_fields(config, str(tmp_path / "real"))
    os.makedirs(tmp_path / "replay")
    _, digests = tracing.replay_fields(tracing.Tracer(), workloads.Input("parity", H, config),
                                       str(tmp_path / "replay"))
    assert digests == {os.path.basename(p): sha256(p) for p in paths}


def test_replay_residuals_matches_command(tmp_path):
    spec = workloads.manufactured_system(4, random.Random(5), "half_y", 0.2, H)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    result = CliRunner().invoke(main, ["residuals", str(path), "--json"])
    assert result.exit_code == 0, result.output
    want = {row["condition"]: row["max_norm"] for row in json.loads(result.output)["rows"]}
    inp = workloads.Input("parity", H, spec=spec, path=str(path))
    _, norms = tracing.replay_residuals(tracing.Tracer(), inp, str(tmp_path))
    assert norms == want
