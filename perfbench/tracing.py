"""Traced run: spans around every public call a pipeline makes, and layer metrics.

The benchmark changes nothing in `src/`.  It replays each pipeline from the
outside, calling the same public functions in the same order as the program
does (`suite._residual_fields`, `suite.write_fields`, the body of the
`residuals` command) with a span around each.  Every traced call first runs
the real public call untraced, then the replay, and requires the replay's
residual max norms (or CSV bytes) to equal the real call's exactly; a
mismatch fails the run, so layer numbers from a stale replay cannot pass.

Self time of a real call is its duration minus the replayed layer spans;
tracing overhead is the replay's duration minus the real call's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from bitime.expressions import fields_from_config, system_from_config
from bitime.grid import ExclusionZone, build_disc_grid, partial, write_csv
from bitime.integrability import cic_multi, plastic_cic
from bitime.optimality import CostateBundle, stationarity_residual
from bitime.plastic import (build_state, canonical_controls, costates_star,
                            costate_system_residual, equilibrium_residual,
                            k_equation_residual, plastic_cost,
                            plastic_multiplier_system, plastic_system,
                            stress_from_polar)
from bitime.systems import cross_triple, forward_residual, split_controls

import workloads

# Per workload: the span around its real call, and the metrics for that
# call's duration and its self time (the duration minus the replayed layers,
# which leaves norms, report and file assembly).
ROOTS = {"verify-families": ("suite.run_verify", "suite.verify_s", "suite.self_s"),
         "fields-export": ("suite.write_fields", "suite.write_fields_s",
                           "suite.write_fields_self_s"),
         "residuals-config": ("cli.residuals", "cli.residuals_s", "cli.self_s")}
REPLAY = "replay"
NORMS = "replay.norms"
PARTIAL_SIZES = {"h128": 1.0 / 128.0, "h256": 1.0 / 256.0, "h512": 1.0 / 512.0}
PARTIAL_REPEATS = 7


class Tracer:
    """Spans kept in memory as [name, start, end, parent, call_id, workload]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = None
        self.workload = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.call_id, self.workload]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id, wl in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call_id": call_id,
                                     "workload": wl}) + "\n")


def _perturbed_costates(grid, delta):
    # Same construction as the suite's private helper of that name.
    x = np.where(grid.mask, grid.X, 0.5)
    y = np.where(grid.mask, grid.Y, 0.5)
    p1, p2, r1, r2, q1, q2 = costates_star(x, y)
    q1 = q1 + delta
    f = lambda a: grid.field(np.asarray(a, dtype=float))
    return CostateBundle(components=((f(p1), f(p2)), (f(r1), f(r2)), (f(q1), f(q2))))


def replay_residual_fields(tr: Tracer, config, grid):
    """The suite's residual assembly, one span per public call."""
    family = config.make_family()
    out = {}
    with tr.span("plastic.state"):
        state = build_state(grid, family)
        stress = stress_from_polar(state)
    with tr.span("plastic.equilibrium"):
        out["(7.1)"], out["(7.2)"] = equilibrium_residual(stress)
        out["(7.3)"] = ((stress.syy - stress.sxx) * (stress.syy - stress.sxx)
                        + 4.0 * stress.sxy * stress.sxy - 4.0 * state.k * state.k)
    sys_def = plastic_system()
    states = state.as_list()
    with tr.span("systems.forward"):
        out["(8.1)"], out["(8.2)"] = forward_residual(sys_def, grid, states)
    with tr.span("systems.split"):
        split = split_controls(sys_def, grid, states)
    det_err = grid.zeros()
    for i in (1, 2, 3):
        with tr.span("suite.det"):
            a = sys_def.matrix(i, grid, split.state_values(), [])
            det = np.linalg.det(np.moveaxis(a, (0, 1), (-2, -1)))
        with tr.span("systems.cross_triple"):
            r = cross_triple(split, i).r
        with tr.span("suite.det"):
            det_err = det_err + grid.field(np.abs(r.data - det))
    out["(6.R)"] = det_err
    with tr.span("plastic.state"):
        u, v, mu, nu = canonical_controls(grid, family)
    with tr.span("integrability.plastic_cic"):
        out["(10.1)"], out["(10.2)"], out["(10.3)"] = plastic_cic(
            state.rho, state.phi, state.k, u, v, mu, nu)
    with tr.span("plastic.k_equation"):
        keq = k_equation_residual(state.k)
        out["(K-equation)"] = grid.field(np.where(grid.interior_mask(2), keq.data, 0.0))
    with tr.span("plastic.costates"):
        costates = _perturbed_costates(grid, config.perturb_q1)
    with tr.span("optimality.stationarity"):
        stat = stationarity_residual(plastic_multiplier_system(), plastic_cost(),
                                     grid, states, (u, v, mu, nu), costates)
        stat_max = grid.zeros()
        for r in stat:
            stat_max = grid.field(np.maximum(stat_max.data, np.abs(r.data)))
    out["(26)"] = stat_max
    (p1f, p2f), _, (q1f, q2f) = costates.components
    with tr.span("plastic.costate_system"):
        out["(28.1)"], out["(28.2)"], out["(28.3)"] = costate_system_residual(
            p1f, p2f, q1f, q2f, state.phi)
    return out, state, stress, costates


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def replay_verify(tr, inp, work_dir):
    with tr.span("grid.build"):
        grid = inp.config.make_grid()
    fields, *_ = replay_residual_fields(tr, inp.config, grid)
    with tr.span(NORMS):
        norms = {name: f.max_norm() for name, f in fields.items()}
        for f in fields.values():
            f.l2_norm()
    return grid, norms


def replay_fields(tr, inp, work_dir):
    with tr.span("grid.build"):
        grid = inp.config.make_grid()
    fields, state, stress, costates = replay_residual_fields(tr, inp.config, grid)
    (p1, p2), (r1, r2), (q1, q2) = costates.components
    tables = {
        "stress.csv": {"sxx": stress.sxx, "syy": stress.syy, "sxy": stress.sxy,
                       "rho": state.rho, "K": state.k,
                       "cphi": state.phi.c, "sphi": state.phi.s},
        "costates.csv": {"p1": p1, "p2": p2, "r1": r1, "r2": r2, "q1": q1, "q2": q2},
        "residuals.csv": {n.strip("()").replace(".", "_").replace("-", "_"): f
                          for n, f in fields.items()},
    }
    digests = {}
    for name, cols in tables.items():
        path = os.path.join(work_dir, name)
        with tr.span("grid.write_csv"):
            write_csv(path, grid, cols)
        digests[name] = _sha(path)
    return grid, digests


def replay_residuals(tr, inp, work_dir):
    spec = inp.spec
    with tr.span("expressions.system"):
        sys_def = system_from_config(spec)
    with tr.span("grid.build"):
        zones = [ExclusionZone(z["kind"], z["size"]) for z in spec.get("zones", [])]
        grid = build_disc_grid(inp.h, zones=zones)
    with tr.span("expressions.fields"):
        states, controls = fields_from_config(spec, grid)
    with tr.span("systems.forward"):
        fwd = forward_residual(sys_def, grid, states, controls)
    with tr.span("systems.split"):
        split = split_controls(sys_def, grid, states, controls)
    with tr.span("integrability.cic_multi"):
        cic = cic_multi(split)
    with tr.span(NORMS):
        norms = {f"forward.{b + 1}": fwd[b].max_norm() for b in range(2)}
        norms.update({f"cic.{i + 1}": r.max_norm() for i, r in enumerate(cic.residuals)})
    return grid, norms


REPLAYS = {"verify-families": replay_verify, "fields-export": replay_fields,
           "residuals-config": replay_residuals}


def traced_call(tr, wl, inp, work_dir, call_id, calls, replay_first=False):
    """Real call and its replay; appends a call record, returns (problem, mismatch).

    Whichever of the two runs first pays for the process's first touch of
    fresh memory pages, so callers alternate `replay_first` between calls.
    """
    tr.call_id, tr.workload = call_id, wl.name
    real_dir = tempfile.mkdtemp(dir=work_dir)
    replay_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        def real():
            with tr.span(ROOTS[wl.name][0]):
                return wl.call(inp, real_dir)

        def replay():
            with tr.span(REPLAY):
                return REPLAYS[wl.name](tr, inp, replay_dir)

        if replay_first:
            grid, replayed = replay()
            out = real()
        else:
            out = real()
            grid, replayed = replay()
        problem = wl.check(inp, out)
        if wl.name == "fields-export":
            real_result = {name: _sha(path) for name, path in out.files.items()}
            csv_bytes = sum(os.path.getsize(p) for p in out.files.values())
        else:
            real_result = out.norms
            csv_bytes = None
        mismatch = sorted(k for k in replayed if replayed[k] != real_result.get(k))
    finally:
        shutil.rmtree(real_dir)
        shutil.rmtree(replay_dir)
    calls.append({"call_id": call_id, "workload": wl.name, "problem": problem,
                  "mismatch": mismatch, "nodes": grid.n_nodes,
                  "stored": grid.zeros().data.size, "csv_bytes": csv_bytes,
                  "expect_pass": inp.expect_pass})
    return problem, mismatch


def partial_probe(tr):
    """One standalone `partial` per grid size: median time and computed bytes."""
    out = {}
    for tag, h in PARTIAL_SIZES.items():
        grid = build_disc_grid(h, zones=(ExclusionZone("origin", 0.1),))
        f = grid.field(lambda x, y: x * x + x * y)
        times = []
        tr.call_id, tr.workload = f"partial-{tag}", None
        for k in range(PARTIAL_REPEATS):
            t0 = time.perf_counter()
            with tr.span("grid.partial"):
                d = partial(f, 1 + k % 2)
            times.append(time.perf_counter() - t0)
        out[tag] = (statistics.median(times), f.data.nbytes + d.data.nbytes)
    return out


def _durations(spans):
    """{call_id: {span name: summed duration}}."""
    per_call: dict = {}
    for name, start, end, parent, call_id, _ in spans:
        per_call.setdefault(call_id, {}).setdefault(name, 0.0)
        per_call[call_id][name] += end - start
    return per_call


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, calls: list[dict], primary: str, partials: dict) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Medians over the primary workload's traced calls; layers the primary
    workload does not run fall back to the fill-in calls of the others.
    """
    per_call = _durations(tr.spans)
    ids = {c["call_id"] for c in calls}
    layer_names = {s[0] for s in tr.spans if s[4] in ids} - {REPLAY}

    def calls_with(name):
        mine = [c for c in calls if c["workload"] == primary and name in per_call[c["call_id"]]]
        return mine or [c for c in calls if name in per_call[c["call_id"]]]

    def layer_s(name):
        return _median([per_call[c["call_id"]][name] for c in calls_with(name)])

    m = {}
    for name in sorted(layer_names - {r[0] for r in ROOTS.values()} - {NORMS}):
        m[f"{name}_s"] = (layer_s(name), "s")
    for root, total, self_name in ROOTS.values():
        rows = calls_with(root)
        roots = [per_call[c["call_id"]][root] for c in rows]
        layers = [sum(v for k, v in per_call[c["call_id"]].items()
                      if k not in (root, REPLAY, NORMS)) for c in rows]
        m[total] = (_median(roots), "s")
        m[self_name] = (_median([r - l for r, l in zip(roots, layers)]), "s")
    overhead = [per_call[c["call_id"]][REPLAY]
                - per_call[c["call_id"]][ROOTS[c["workload"]][0]] for c in calls]
    m["trace.overhead_s"] = (_median(overhead), "s")

    grid_calls = [c for c in calls if c["workload"] == primary]
    m["grid.nodes"] = (_median([c["nodes"] for c in grid_calls]), "count")
    m["grid.lattice_points"] = (_median([c["stored"] for c in grid_calls]), "count")
    m["grid.fill"] = (_median([c["nodes"] / c["stored"] for c in grid_calls]), "ratio")

    csv_calls = calls_with("grid.write_csv")
    csv_bytes = _median([c["csv_bytes"] for c in csv_calls])
    m["grid.csv_bytes"] = (csv_bytes, "B")
    m["grid.csv_mb_per_s"] = (csv_bytes / 1e6 / m["grid.write_csv_s"][0], "MB/s")
    for tag, (seconds, nbytes) in partials.items():
        m[f"grid.partial_s.{tag}"] = (seconds, "s")
        m[f"grid.partial.bytes_computed.{tag}"] = (nbytes, "B")

    verify = [c for c in calls if c["workload"] == "verify-families"]
    m["suite.false_fail"] = (sum(c["problem"] == workloads.KNOWN_DEFECT for c in verify), "count")
    m["suite.neg_control_missed"] = (
        sum(not c["expect_pass"] and c["problem"] is not None for c in verify), "count")
    return m
