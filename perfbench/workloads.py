"""Seeded workloads of the bitime benchmark: inputs, the timed call, truth checks.

Each workload is a closed loop with one caller: the next call starts when the
previous one has returned.  Inputs come from `pool(seed, work_dir)` only; the
program under test never sees the seed.

Draws are stratified in blocks: every block holds the same mix of families,
grid sizes and state counts in a seeded order, and the continuous parameters
fall one per stratum of their range.  A run of a few dozen calls therefore
always covers the same mix, which keeps its median and tail comparable from
seed to seed.  The mix also keeps the median and the tail percentile away
from any large step in the cost order, however many calls fit into a run
(see README.md).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

from bitime import cli
from bitime.grid import ExclusionZone, build_disc_grid
from bitime.suite import RunConfig, run_verify, write_fields

FAMILIES = ("quadratic", "inv_x", "inv_y", "constant")
COEFF_KEY = {"quadratic": "alpha", "inv_x": "beta", "inv_y": "gamma", "constant": "delta"}
COEFF_RANGE = (0.2, 5.0)
EPS0_RANGE = (0.05, 0.3)
NEG_PERTURB_Q1 = 1e-3
# The warm-up call loads every lazy code path; its grid size does not matter.
WARM_UP_H = 1.0 / 32.0
# Tolerance-table false FAILs on exact draws (ROADMAP item 3) are a known
# defect of the verdict, not wrong output; they are counted apart from the
# failed calls.  Only FAILs with the item-3 signature count as that defect: every failing
# condition is gated by the fitted C h^2 table and misses it by at most
# TABLE_MISS_FACTOR, or is (7.3) or (6.R) at roundoff, at most ROUNDOFF_GATE
# against their absolute 1e-12 gate.  Any other FAIL on an exact draw (a
# broken stencil, a wrong stationarity term, a bound missed by far) is wrong
# output.  Over the item-3 ranges the worst table miss is at the corner
# eps0 = 0.05, coefficient 5 of inv_x / inv_y: (10.3) at 38x its bound at
# h = 1/128 and 73x at 1/256 (it grows like 1/h as nodes near the cut),
# with (7.3) and (6.R) at 1.5e-11.  Seeded draws measured up to 20x.
KNOWN_DEFECT = "false_fail"
TABLE_CONDITIONS = frozenset({"(7.1)", "(7.2)", "(8.1)", "(8.2)", "(10.1)", "(10.2)",
                              "(10.3)", "(K-equation)", "(28.2)", "(28.3)"})
ROUNDOFF_CONDITIONS = frozenset({"(7.3)", "(6.R)"})
TABLE_MISS_FACTOR = 100.0
ROUNDOFF_GATE = 1e-10

# A quadratic state is differentiated exactly by every stencil, so the
# forward residual of a manufactured system is pure roundoff (about 1e-12 at
# h = 1/256); a first-order edge stencil would leave about 1e-3.
ROUNDOFF_TOL = 1e-9
# The README plastic system (1/x fields) is exact only in the continuum; its
# forward residual is second order with a constant near 2.7e4 at h = 1/256.
PLASTIC_FORWARD_C = 1e5

README_PLASTIC = {
    "states": ["rho", "K", "phi"],
    "controls": [],
    "A": [[["1", "0"], ["0", "1"]],
          [["-cos(phi)", "sin(phi)"], ["sin(phi)", "cos(phi)"]],
          [["K*sin(phi)", "K*cos(phi)"], ["K*cos(phi)", "-K*sin(phi)"]]],
    "B": ["0", "0"],
    "state_fields": {"rho": "1/x", "K": "1/x",
                     "phi": "3.141592653589793 - 2*atan2(y, x)"},
    "control_fields": {},
    "zones": [{"kind": "half_x", "size": 0.1}],
}


@dataclass
class Input:
    """One call's arguments plus what the truth check needs to know."""

    label: str
    h: float
    config: RunConfig | None = None
    expect_pass: bool = True          # verify-families: exact draw or control
    spec: dict | None = None          # residuals-config: the JSON system
    path: str | None = None           # residuals-config: where it was written
    exact: bool = True                # residuals-config: polynomial states
    n_nodes: int | None = field(default=None, repr=False)


@dataclass
class Outcome:
    """What one call produced, reduced to what checks and replays need."""

    verdict: bool | None = None
    norms: dict | None = None
    failing: dict | None = None       # verify: {condition: (max_norm, tolerance)}
    files: dict | None = None


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws from [lo, hi], one per equal stratum, in random order."""
    cells = list(range(k))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / k for c in cells]


def _family_config(family: str, h: float, coeff: float, eps0: float,
                   perturb: float = 0.0) -> RunConfig:
    return RunConfig(h=h, family=family, eps0=eps0, perturb_q1=perturb,
                     **{COEFF_KEY[family]: coeff})


class _FamilyWorkload:
    """What the two workloads whose inputs are plastic-family configs share."""

    def reference(self, work_dir: str) -> Input:
        return Input(label="warm-up", h=WARM_UP_H,
                     config=RunConfig(h=WARM_UP_H, family="quadratic"))

    def nodes(self, inp: Input) -> int:
        if inp.n_nodes is None:
            inp.n_nodes = inp.config.make_grid().n_nodes
        return inp.n_nodes


class VerifyFamilies(_FamilyWorkload):
    name = "verify-families"
    why = ("run_verify over the four plastic families: every compute layer "
           "(stencils, systems, CIC, stationarity) with no I/O")
    # Calls come in rounds of 4, one per family in a seeded order, and one
    # call per round at 1/128; over a block of 4 rounds each family has one
    # of those.  Every prefix of the pool therefore holds the mix to within
    # one call per stratum.  The one large step in the cost order is from
    # 1/128 (0.13-0.26 s) to 1/256 (0.63-1.0 s) at 25 %; the median and the
    # tail percentile (p64-p82 for 31-61 calls a run) stay well above it.
    # At 1/256 the half-plane calls (25-62.5 %) and the full-disc ones
    # differ by only about 4 % at their border.  One call in 8 is a
    # negative control.
    H_SMALL, H_REF = 1.0 / 128.0, 1.0 / 256.0
    BLOCK = 16
    BLOCKS = 8

    def pool(self, seed: int, work_dir: str) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for _ in range(self.BLOCKS):
            small = list(FAMILIES)
            rng.shuffle(small)
            slots = []
            for fam_small in small:
                fams = list(FAMILIES)
                rng.shuffle(fams)
                slots += [(f, self.H_SMALL if f == fam_small else self.H_REF) for f in fams]
            coeffs = _strata(rng, self.BLOCK, *COEFF_RANGE)
            eps = _strata(rng, self.BLOCK, *EPS0_RANGE)
            negatives = {rng.randrange(8), 8 + rng.randrange(8)}
            for k, (fam, h) in enumerate(slots):
                neg = k in negatives
                cfg = _family_config(fam, h, coeffs[k], eps[k],
                                     NEG_PERTURB_Q1 if neg else 0.0)
                out.append(Input(label=f"{fam} h=1/{round(1 / h)}"
                                 + (" negative" if neg else ""),
                                 h=h, config=cfg, expect_pass=not neg))
        return out

    def representative(self, pool: list[Input]) -> Input:
        return next(i for i in pool if i.h == self.H_REF)

    def call(self, inp: Input, work_dir: str) -> Outcome:
        report = run_verify(inp.config)
        return Outcome(verdict=report.passed,
                       norms={c.condition: c.max_norm for c in report.conditions},
                       failing={c.condition: (c.max_norm, c.tolerance)
                                for c in report.conditions if not c.passed})

    def check(self, inp: Input, out: Outcome) -> str | None:
        if not all(math.isfinite(v) for v in out.norms.values()):
            return "non-finite residual norm"
        if out.verdict == inp.expect_pass:
            return None
        if not inp.expect_pass:
            return "negative control passed"
        return KNOWN_DEFECT if table_miss(out.failing) else "exact draw failed"


def table_miss(failing: dict) -> bool:
    """True if every failing condition has the item-3 false-FAIL signature."""
    def known(name, max_norm, tol):
        if name in TABLE_CONDITIONS:
            return max_norm <= TABLE_MISS_FACTOR * tol
        return name in ROUNDOFF_CONDITIONS and max_norm <= ROUNDOFF_GATE
    return bool(failing) and all(known(n, m, t) for n, (m, t) in failing.items())


STRESS_HEADER = "x,y,sxx,syy,sxy,rho,K,cphi,sphi"
COSTATE_HEADER = "x,y,p1,p2,r1,r2,q1,q2"
RESIDUAL_NAMES = ("7_1", "7_2", "7_3", "8_1", "8_2", "6_R", "10_1", "10_2",
                  "10_3", "K_equation", "26", "28_1", "28_2", "28_3")
CSV_SAMPLE_ROWS = 64
CSV_REL_TOL = 1e-12


def closed_form_stress(config: RunConfig, x: np.ndarray, y: np.ndarray):
    """(sxx, syy, sxy) of a family from its formulas, without bitime code."""
    a = getattr(config, COEFF_KEY[config.family])
    r2 = x * x + y * y
    if config.family == "quadratic":
        k, rho = a * r2, -2.0 * a * r2
    elif config.family == "inv_x":
        k, rho = a / x, a / x
    elif config.family == "inv_y":
        k, rho = a / y, a / y
    else:
        k, rho = a + 0.0 * x, -a * np.log(r2)
    rho = rho + config.c0
    c = (y * y - x * x) / r2
    s = 2.0 * x * y / r2
    return rho - k * c, rho + k * c, k * s


class FieldsExport(_FamilyWorkload):
    name = "fields-export"
    why = ("write_fields to a fresh directory: Python per-row CSV formatting "
           "dominates, the compute path runs once per call")
    # Node count sets the CSV cost, and the half-plane families carry about
    # half the nodes of the full-disc ones, so a mix of the two would put
    # the median or the tail percentile (p0-p31 at 11-16 calls a run) on a
    # cost-cluster border that moves with the number of calls that fit into
    # a run.  The timed mix is therefore full-disc only: four quadratic and
    # four constant calls per block of 8, in a seeded order.  The half-plane
    # families run in verify-families.
    H_REF = 1.0 / 128.0
    BLOCK_FAMILIES = ("quadratic", "constant") * 4
    BLOCKS = 8

    def pool(self, seed: int, work_dir: str) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for _ in range(self.BLOCKS):
            fams = list(self.BLOCK_FAMILIES)
            rng.shuffle(fams)
            coeffs = _strata(rng, len(fams), *COEFF_RANGE)
            eps = _strata(rng, len(fams), *EPS0_RANGE)
            for k, fam in enumerate(fams):
                out.append(Input(label=f"{fam} h=1/128", h=self.H_REF,
                                 config=_family_config(fam, self.H_REF,
                                                       coeffs[k], eps[k])))
        return out

    def representative(self, pool: list[Input]) -> Input:
        return pool[0]

    def call(self, inp: Input, work_dir: str) -> Outcome:
        paths = write_fields(inp.config, work_dir)
        return Outcome(files={os.path.basename(p): p for p in paths})

    def check(self, inp: Input, out: Outcome) -> str | None:
        nodes = self.nodes(inp)
        want = {"stress.csv": STRESS_HEADER, "costates.csv": COSTATE_HEADER,
                "residuals.csv": "x,y," + ",".join(RESIDUAL_NAMES)}
        if set(out.files) != set(want):
            return f"unexpected files {sorted(out.files)}"
        for name, header in want.items():
            with open(out.files[name], "rb") as fh:
                data = fh.read()
            if not data.startswith(header.encode() + b"\n"):
                return f"{name}: header {data[:80]!r}"
            rows = data.count(b"\n") - 1
            if rows != nodes:
                return f"{name}: {rows} rows for {nodes} nodes"
        with open(out.files["stress.csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rng = random.Random(f"{inp.config.family}:{inp.config.eps0!r}")
        picks = rng.sample(range(1, nodes + 1), min(CSV_SAMPLE_ROWS, nodes))
        table = np.array([[float(v) for v in lines[i].split(",")]
                          for i in picks])
        x, y = table[:, 0], table[:, 1]
        for col, ref in zip((2, 3, 4), closed_form_stress(inp.config, x, y)):
            err = np.abs(table[:, col] - ref)
            if not np.all(err <= CSV_REL_TOL * np.maximum(1.0, np.abs(ref))):
                return f"stress column {col} differs from the closed form by {err.max():.3e}"
        return None


def _quadratic(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-1.0, 1.0), 3) for _ in range(6)]


def _quadratic_expr(a) -> str:
    return (f"({a[0]!r}) + ({a[1]!r})*x + ({a[2]!r})*y + ({a[3]!r})*x*x"
            f" + ({a[4]!r})*x*y + ({a[5]!r})*y*y")


def _quadratic_grad(a) -> tuple[str, str]:
    return (f"({a[1]!r}) + 2*({a[3]!r})*x + ({a[4]!r})*y",
            f"({a[2]!r}) + ({a[4]!r})*x + 2*({a[5]!r})*y")


def manufactured_system(n: int, rng: random.Random, zone: str, size: float,
                        h: float) -> dict:
    """n quadratic states; A_i entries nonlinear in other states; B = sum A_i grad x^i."""
    names = [f"s{i + 1}" for i in range(n)]
    coefs = [_quadratic(rng) for _ in names]
    a = []
    for i in range(n):
        others = [names[j] for j in range(n) if j != i]
        mat = []
        for _ in range(2):
            row = []
            for _ in range(2):
                o = rng.choice(others)
                c = round(rng.uniform(0.5, 2.0), 3)
                row.append(rng.choice([f"{c!r}*sin({o})", f"{c!r}*cos({o})",
                                       f"{c!r}*{o}*{rng.choice(names)}",
                                       f"{c!r} + {o}*x"]))
            mat.append(row)
        a.append(mat)
    grads = [_quadratic_grad(c) for c in coefs]
    b = [" + ".join(f"({a[i][beta][al]})*({grads[i][al]})"
                    for i in range(n) for al in range(2)) for beta in range(2)]
    return {"states": names, "controls": [], "A": a, "B": b,
            "state_fields": {nm: _quadratic_expr(c) for nm, c in zip(names, coefs)},
            "control_fields": {},
            "zones": [{"kind": zone, "size": round(size, 3)}],
            "h": h}


class ResidualsConfig:
    name = "residuals-config"
    why = ("the residuals command in process: expressions eval on every "
           "matrix() call, general systems/cic_multi path with n != 3, no plastic code")
    # Cost grows with the state count, but zone kinds (half-plane zones
    # halve the nodes) and the drawn expressions blur the state counts into
    # one continuous spread, 0.18-0.84 s at h = 1/256, with no step in the
    # cost order that the median or the tail percentile could jump.  Node
    # count and state count together set the cost, so the pairing of the two
    # is fixed, not drawn: each state-count slot takes the zone kinds in turn
    # from block to block, and every 4 blocks (32 calls) hold each pairing
    # once.  Runs of 52-73 calls then hold the same cost mix from seed to seed.
    H_REF = 1.0 / 256.0
    BLOCK_SIZES = (2, 3, 4, 4, 5, 6, 6, "plastic")
    ZONES = ("origin", "abs_x", "half_x", "half_y")
    BLOCKS = 11

    def pool(self, seed: int, work_dir: str) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for b in range(self.BLOCKS):
            slots = [(n, self.ZONES[(j + b) % len(self.ZONES)])
                     for j, n in enumerate(self.BLOCK_SIZES)]
            rng.shuffle(slots)
            zone_sizes = _strata(rng, len(slots), *EPS0_RANGE)
            for k, (n, zone) in enumerate(slots):
                if n == "plastic":
                    spec = {**README_PLASTIC, "h": self.H_REF}
                    label, exact = "readme plastic", False
                else:
                    spec = manufactured_system(n, rng, zone, zone_sizes[k], self.H_REF)
                    label, exact = f"n={n} {zone}", True
                path = os.path.join(work_dir, f"system-{b}-{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(spec, fh)
                out.append(Input(label=label, h=self.H_REF, spec=spec,
                                 path=path, exact=exact))
        return out

    def reference(self, work_dir: str) -> Input:
        spec = {**README_PLASTIC, "h": WARM_UP_H}
        path = os.path.join(work_dir, "warm-up.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return Input(label="warm-up", h=WARM_UP_H, spec=spec, path=path,
                     exact=False)

    def representative(self, pool: list[Input]) -> Input:
        return next(i for i in pool if len(i.spec["states"]) == 6)

    def call(self, inp: Input, work_dir: str) -> Outcome:
        result = CliRunner().invoke(cli.main, ["residuals", inp.path, "--json"])
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        if result.exit_code != 0:
            raise RuntimeError(f"residuals exited {result.exit_code}: {result.output.strip()}")
        rows = json.loads(result.output)["rows"]
        return Outcome(norms={r["condition"]: r["max_norm"] for r in rows})

    def check(self, inp: Input, out: Outcome) -> str | None:
        n = len(inp.spec["states"])
        want = {"forward.1", "forward.2"} | {f"cic.{i + 1}" for i in range(n)}
        if set(out.norms) != want:
            return f"rows {sorted(out.norms)}"
        if not all(math.isfinite(v) for v in out.norms.values()):
            return "non-finite residual norm"
        fwd = max(out.norms["forward.1"], out.norms["forward.2"])
        tol = ROUNDOFF_TOL if inp.exact else PLASTIC_FORWARD_C * inp.h ** 2
        if fwd > tol:
            return f"forward residual {fwd:.3e} above {tol:.1e}"
        return None

    def nodes(self, inp: Input) -> int:
        if inp.n_nodes is None:
            zones = [ExclusionZone(z["kind"], z["size"]) for z in inp.spec["zones"]]
            inp.n_nodes = build_disc_grid(inp.h, zones=zones).n_nodes
        return inp.n_nodes


WORKLOADS = {w.name: w for w in (VerifyFamilies(), FieldsExport(), ResidualsConfig())}

