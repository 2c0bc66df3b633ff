"""Smoke test of the benchmark itself, at the smallest grid.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload for one second at h = 1/32, with tracing off and on, and
checks that the result line carries every metric BENCHMARK.json names, with
its unit.  Then checks that wrong verdicts are counted as failures: a
negative control that passes, or an exact draw that FAILs, is a failed call
and makes the run incorrect, except a FAIL with the tolerance-table signature
(ROADMAP item 3), which is counted apart as a known false FAIL.  Exits 1 on the first broken expectation.
"""

import contextlib
import io
import json
import os
import sys

import run

SMOKE_H = 1.0 / 32.0


def _check(cond, message):
    if not cond:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def _shrink(workloads, tracing):
    wl = workloads.WORKLOADS
    wl["verify-families"].H_SMALL = wl["verify-families"].H_REF = SMOKE_H
    wl["fields-export"].H_REF = SMOKE_H
    wl["residuals-config"].H_REF = SMOKE_H
    tracing.PARTIAL_SIZES = {tag: SMOKE_H for tag in tracing.PARTIAL_SIZES}


def _run(name, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import bench
    import tracing
    import workloads
    _shrink(workloads, tracing)

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run(w["name"], trace)
            _check(code == 0 and result["correct"], f"{w['name']} trace {trace}: {result}")
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(got == want, f"{w['name']} trace {trace}: metrics {got} != {want}")
            print(f"smoke: {w['name']} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")

    verify = workloads.WORKLOADS["verify-families"]
    out_dir = os.path.join(bench.BENCH_DIR, ".out")

    def scored(expect_pass, **config):
        inp = workloads.Input(label="smoke", h=SMOKE_H, expect_pass=expect_pass,
                              config=workloads.RunConfig(h=SMOKE_H, **config))
        return bench.score([bench.run_call(verify, inp, out_dir)[1]])

    _check(scored(True) == (0, 0, True), "exact default draw should pass")
    _check(scored(False, perturb_q1=1e-3) == (0, 0, True),
           "a failing negative control is a correct call")
    # The same inputs with the truth inverted: each verdict is now wrong.
    _check(scored(False) == (1, 0, False), "a passing negative control must fail the run")
    _check(scored(True, perturb_q1=1e-3) == (1, 0, False),
           "a FAIL on (26) and (27.2) at 1e-3 must fail the run")
    # inv_x at eps0 = 0.05 misses the fitted (10.3) constant by about 1.1x:
    # the known tolerance-table false FAIL, counted apart in a correct run.
    _check(scored(True, family="inv_x", eps0=0.05) == (0, 1, True),
           "a tolerance-table miss on an exact draw must count as a known false FAIL")
    _check(not workloads.table_miss({"(10.3)": (1000.0, 1.0)}),
           "a table miss far beyond TABLE_MISS_FACTOR must be wrong output")
    _check(not workloads.table_miss({"(7.3)": (1e-6, 1e-12)}),
           "(7.3) far above roundoff must be wrong output")
    print("smoke: ok")


if __name__ == "__main__":
    main()
