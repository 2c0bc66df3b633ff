"""The benchmark proper: set-up timing, the timed and traced loops, the report.

Imported by run.py once `src/` is on the path; see run.py for usage.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from collections import Counter

import numpy

import bitime
import tracing
import workloads
from bitime.grid import build_disc_grid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9          # this process plus eight fresh child processes
TAIL_BEYOND = 10           # samples the tail percentile must leave above it

# A fresh interpreter: import bitime, generate the inputs, one warm-up call.
_SETUP_CHILD = r"""
import sys, time, json
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import workloads
t1 = time.perf_counter()
wl = workloads.WORKLOADS[sys.argv[1]]
wl.pool(int(sys.argv[2]), sys.argv[5])
wl.call(wl.reference(sys.argv[5]), sys.argv[5])
print(json.dumps({"import_s": t1 - t0, "setup_s": time.perf_counter() - t0}))
"""


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    Nearest rank.  With TAIL_BEYOND samples or fewer there is none, and the
    minimum is reported as percentile 0.
    """
    s = sorted(times)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * k / len(s)


def score(problems):
    """(failed, known, correct) from one problem string (or None) per attempted call.

    A call that raises or gives wrong output is failed and makes the run
    incorrect.  The known tolerance-table false FAIL on an exact draw
    (ROADMAP item 3) is neither: the residual norms behind it are right, the
    verdict's constant table is not.  It is counted apart, in `known`, so
    that `failed` reads zero on the program as it stands and any failed call
    is a regression.  Which FAILs have that signature is decided by
    `workloads.table_miss`.
    """
    known = sum(p == workloads.KNOWN_DEFECT for p in problems)
    failed = sum(p is not None for p in problems) - known
    return failed, known, failed == 0


def measure_setup(name, seed, src, work_dir, parent_setup_s, parent_import_s):
    setups, imports = [parent_setup_s], [parent_import_s]
    for _ in range(SETUP_SAMPLES - 1):
        child_dir = tempfile.mkdtemp(dir=work_dir)
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, name, str(seed), src, BENCH_DIR, child_dir],
            capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        setups.append(rec["setup_s"])
        imports.append(rec["import_s"])
    return statistics.median(setups), statistics.median(imports)


def run_call(wl, inp, work_dir):
    """One call in a fresh directory: (seconds, or None if it raised; problem or None)."""
    call_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        t0 = time.perf_counter()
        out = wl.call(inp, call_dir)
        elapsed = time.perf_counter() - t0
        return elapsed, wl.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, f"raised: {traceback.format_exc(limit=0).strip()}"
    finally:
        shutil.rmtree(call_dir, ignore_errors=True)


def timed_run(wl, pool, seconds, work_dir, setup_s):
    times, nodes, problems = [], 0, []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inp = pool[i % len(pool)]
        i += 1
        elapsed, problem = run_call(wl, inp, work_dir)
        problems.append(problem)
        if elapsed is not None:
            times.append(elapsed)
            nodes += wl.nodes(inp)

    peak_inp = wl.representative(pool)
    peak_dir = tempfile.mkdtemp(dir=work_dir)
    tracemalloc.start()
    try:
        wl.call(peak_inp, peak_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        shutil.rmtree(peak_dir, ignore_errors=True)

    if not times:
        raise RuntimeError("no call completed")
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} set-ups: import, inputs, warm-up call"),
        "call_s.p50": (statistics.median(times), "s", f"median of {len(times)} calls"),
        "call_s.tail": (tail_s, "s", f"p{pct:.1f} of {len(times)} calls"),
        "nodes_per_s": (nodes / sum(times), "1/s", f"{nodes} masked nodes in {sum(times):.2f} s of calls"),
        "peak_mem_mb": (peak / 1e6, "MB", f"tracemalloc peak of one untimed call ({peak_inp.label})"),
    }
    return metrics, problems


def traced_run(wl, pool, seed, seconds, work_dir, import_s, lines):
    tr = tracing.Tracer()
    calls, problems = [], []

    def traced(w, inp, call_id, replay_first):
        try:
            problem, mismatch = tracing.traced_call(tr, w, inp, work_dir, call_id,
                                                    calls, replay_first)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problem, mismatch = f"raised: {traceback.format_exc(limit=0).strip()}", []
        if mismatch:
            lines.append(f"replay mismatch on call {call_id} ({inp.label}): {mismatch}")
            problem = "replay mismatch"
        problems.append(problem)

    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        traced(wl, pool[i % len(pool)], i, i % 2 == 1)
        i += 1
    # Layers this workload does not run come from two calls of each other
    # workload, one in each order of real call and replay.
    for other in workloads.WORKLOADS.values():
        if other is not wl:
            inp = other.representative(other.pool(seed, tempfile.mkdtemp(dir=work_dir)))
            for k in range(2):
                traced(other, inp, f"{other.name}-{k}", k == 1)
    partials = tracing.partial_probe(tr)

    spans_path = os.path.join(BENCH_DIR, ".out", f"spans-{wl.name}-seed{seed}.jsonl")
    tr.write(spans_path)
    lines.append(f"spans: {len(tr.spans)} written to {os.path.relpath(spans_path)}")
    if not score(problems)[2]:
        return {}, problems
    metrics = {name: (value, unit, "") for name, (value, unit)
               in tracing.layer_metrics(tr, calls, wl.name, partials).items()}
    metrics["cli.import_s"] = (import_s, "s", f"median of {SETUP_SAMPLES} fresh imports")
    return metrics, problems


def _git_commit(root):
    """HEAD of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"


def _cache_sizes():
    sizes = {}
    for name, key in (("L2", "LEVEL2_CACHE_SIZE"), ("L3", "LEVEL3_CACHE_SIZE")):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            sizes[name] = int(out) if out else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            sizes[name] = None
    return sizes


def provenance(root, pool):
    field_bytes = {f"1/{round(1 / h)}": build_disc_grid(h).zeros().data.nbytes
                   for h in sorted({inp.h for inp in pool}, reverse=True)}
    return {
        "bitime": bitime.__version__,
        "git_commit": _git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "BITIME_THREADS": os.environ["BITIME_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "field_bytes": field_bytes,
    }


def run(args, root, src, t0):
    """Set up, run one workload, print the report; returns the exit status.

    `t0` is when the caller began importing this module (and bitime with it).
    """
    import_s = time.perf_counter() - t0
    out_dir = os.path.join(BENCH_DIR, ".out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    lines = []
    try:
        wl = workloads.WORKLOADS[args.workload]
        pool = wl.pool(args.seed, work_dir)
        wl.call(wl.reference(work_dir), work_dir)
        setup_s, import_s = measure_setup(wl.name, args.seed, src, work_dir,
                                          time.perf_counter() - t0, import_s)
        if args.trace:
            metrics, problems = traced_run(wl, pool, args.seed, args.seconds,
                                           work_dir, import_s, lines)
        else:
            metrics, problems = timed_run(wl, pool, args.seconds, work_dir, setup_s)
        prov = provenance(root, pool)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed, known, correct = score(problems)
    kinds = Counter(p for p in problems if p not in (None, workloads.KNOWN_DEFECT))
    print(f"workload {wl.name} (closed loop, 1 caller), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"why: {wl.why}")
    print("provenance: " + json.dumps(prov))
    for line in lines:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"failed {failed} of {len(problems)} attempted: {dict(kinds) or 'none'}")
    print(f"known tolerance-table false FAILs (ROADMAP item 3, not in failed): "
          f"{known} of {len(problems)} attempted")
    print(json.dumps({
        "correct": correct,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1
