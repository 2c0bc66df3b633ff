"""The benchmark's timed calls and truth checks accept the program's output.

`perfbench/workloads.py` reads the program through a few names: `Report.passed`
and `ConditionResult.tolerance` of `run_verify`, the rows of `residuals --json`,
and the file names and headers that `write_fields` writes.  This runs each
workload's reference input through its `call` and `check` at h = 1/32,
importing the benchmark's module without changing it, so that renaming one of
those names fails here and not only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402

from bitime.suite import RunConfig  # noqa: E402

H = 1.0 / 32.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_call_passes_check(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    inp = wl.reference(str(tmp_path))
    assert inp.h == H
    assert wl.check(inp, wl.call(inp, str(tmp_path))) is None


def test_negative_control_fails(tmp_path):
    wl = workloads.WORKLOADS["verify-families"]
    config = RunConfig(h=H, family="quadratic", perturb_q1=workloads.NEG_PERTURB_Q1)
    inp = workloads.Input("negative", H, config, expect_pass=False)
    out = wl.call(inp, str(tmp_path))
    assert out.verdict is False
    assert wl.check(inp, out) is None
