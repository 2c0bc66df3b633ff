"""End-to-end verification suite over the plastic closed forms.

`run_verify` evaluates every checkable condition of the example problem on
one grid, the disc of radius 1 - 2h minus the family's exclusion zones, and
reports pass/fail per condition.  `CONDITIONS` declares each condition once,
in report order: its name (after the equation it discretises), its
`residuals.csv` column, its tolerance and the nodes it is scored on.

Tolerance model: exact conditions use 1e-12, and O(h^2) conditions C * h^2
with C calibrated per condition and family (see `CONDITIONS`), because the
raw residuals of the singular families carry large constants; a config
`tolerance_c` overrides every calibrated C.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .grid import (DiscGrid, ScalarField, _check_spacing, _finite_real, _raising,
                   banded_columns, banded_norms, boundary_samples, build_disc_grid, write_csv)
from .integrability import plastic_cic
from .optimality import stationarity_residual
from .plastic import (FAMILY_KINDS, Family, boundary_condition_residual, build_state,
                      canonical_controls, costate_bundle_star,
                      costate_system_residual, k_equation_residual,
                      equilibrium_residual, plastic_cost,
                      plastic_multiplier_system, plastic_system,
                      stress_from_polar)
from .systems import ForwardPass, det2

__all__ = [
    "RunConfig",
    "ConditionResult",
    "Report",
    "CONDITIONS",
    "run_verify",
    "run_convergence",
    "write_fields",
]

_EXACT_TOL = 1e-12
_EXACT_STATUS = f"exact (<={_EXACT_TOL:g})"

# The least K a grid may hold: the smallest normal float64.
_K_FLOOR = float(np.finfo(np.float64).tiny)

_COEFF_KEY = dict(zip(FAMILY_KINDS, ("alpha", "beta", "gamma", "delta")))  # config key per kind


@dataclass(frozen=True)
class Condition:
    """One condition of the suite: a row of `CONDITIONS`."""

    name: str
    column: str | None  # in residuals.csv; None for the circle, sampled at m points of S^1
    c: tuple[float, ...] | None  # C in C * h^2 per FAMILY_KINDS entry; None: exact (1e-12)
    interior: bool = False  # scored on interior_mask(2) only, 0.0 on the other nodes


# Calibrated C, per family kind (quadratic, inv_x, inv_y, constant), from max
# norms measured at h = 1/64 on the default zones (eps0 = 0.1, coefficient 1);
# 10 is the generic C, kept where a residual needs no more.  Headroom
# (tolerance over max norm) is 4.08x to 16.6x at h = 1/64 and shrinks as h
# falls, because the full-grid max norm includes one-sided edge nodes whose
# distance to the zone boundary jitters with h: the smallest is 1.23x, for
# constant (8.1) and (8.2) at h = 1/512.
CONDITIONS = (
    Condition("(7.1)", "7_1", (10.0, 70000.0, 70000.0, 15000.0)),  # stress equilibrium rows
    Condition("(7.2)", "7_2", (10.0, 70000.0, 70000.0, 15000.0)),
    Condition("(7.3)", "7_3", None),  # yield identity
    Condition("(8.1)", "8_1", (80.0, 70000.0, 70000.0, 6000.0)),  # forward quasi-linear system
    Condition("(8.2)", "8_2", (80.0, 70000.0, 70000.0, 6000.0)),
    Condition("(6.R)", "6_R", None),  # cross-triple determinant check
    Condition("(10.1)", "10_1", (10.0, 10.0, 10.0, 180000.0)),  # integrability conditions
    Condition("(10.2)", "10_2", (10.0, 10.0, 10.0, 10.0)),
    Condition("(10.3)", "10_3", (1400.0, 1.4e6, 1.4e6, 210000.0)),
    # second-order equation for K: its composed stencils are first-order at the mask edge
    Condition("(K-equation)", "K_equation", (10.0, 5.0e5, 5.0e5, 10.0), interior=True),
    Condition("(26)", "26", None),  # stationarity of the Hamiltonian
    Condition("(28.1)", "28_1", None),  # costate system
    Condition("(28.2)", "28_2", (450.0, 450.0, 450.0, 450.0)),
    Condition("(28.3)", "28_3", (700.0, 700.0, 700.0, 700.0)),
    Condition("(27.1)", None, None),  # circle boundary conditions
    Condition("(27.2)", None, None),
    Condition("(27.3)", None, None),
)


@dataclass(frozen=True)
class RunConfig:
    """Suite configuration; every field has a default so `verify` runs bare.

    Its fields are the config keys; the grid's 2h margin is not one.
    """

    h: float = 1.0 / 64.0
    eps0: float = 0.1
    m: int = 360
    family: str = "quadratic"
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    c0: float = 0.0
    tolerance_c: float | None = None
    perturb_q1: float = 0.0
    out: str = "."

    _NUMBERS = ("h", "eps0", "alpha", "beta", "gamma", "delta", "c0", "perturb_q1")
    _OPTIONAL_NUMBERS = ("tolerance_c",)
    _MAX_M = 100_000

    def __post_init__(self):
        for key in self._NUMBERS + self._OPTIONAL_NUMBERS:
            value = getattr(self, key)
            if value is None and key in self._OPTIONAL_NUMBERS:
                continue
            if not _finite_real(value):
                raise ValueError(f"{key} must be a number, got {value!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        for key in ("family", "out"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")
        if not 0 < self.h <= 0.25:
            raise ValueError("grid too coarse: h must be in (0, 0.25]")
        _check_spacing(self.h)
        if not 8 <= self.m <= self._MAX_M:
            raise ValueError(f"need 8 to {self._MAX_M} boundary samples, got {self.m}")
        if self.family not in _COEFF_KEY:
            raise ValueError(f"unknown family {self.family!r}")
        if self.tolerance_c is not None and self.tolerance_c <= 0:
            raise ValueError("tolerance constant must be positive")
        # a subnormal K loses its digits, and the closed forms divide by it
        if self.make_family().least_k(self.h) < _K_FLOOR:
            key = _COEFF_KEY[self.family]
            raise ValueError(f"{key} = {getattr(self, key):g} is too small: K can fall below "
                             f"the smallest normal float64 ({_K_FLOOR:g}) on the grid")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def make_family(self) -> Family:
        coeff = getattr(self, _COEFF_KEY[self.family])
        return Family(kind=self.family, coeff=coeff, c0=self.c0, eps0=self.eps0)

    def make_grid(self) -> DiscGrid:
        return build_disc_grid(self.h, zones=self.make_family().zones())

    def tolerance(self, condition: Condition, h: float) -> float:
        if condition.c is None:
            return _EXACT_TOL
        if self.tolerance_c is not None:
            return self.tolerance_c * h * h
        return condition.c[FAMILY_KINDS.index(self.family)] * h * h


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    max_norm: float
    l2_norm: float
    scale: float  # h for grid conditions, m for boundary-sample conditions
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_norm <= self.tolerance

    def to_dict(self) -> dict:
        return {"condition": self.condition, "max_norm": self.max_norm,
                "l2_norm": self.l2_norm, "scale": self.scale,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass(frozen=True)
class Report:
    family: str
    h: float
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failing(self) -> list[str]:
        return [c.condition for c in self.conditions if not c.passed]

    def to_json(self) -> str:
        return json.dumps({"family": self.family, "h": self.h,
                           "passed": self.passed,
                           "conditions": [c.to_dict() for c in self.conditions]},
                          indent=2)

    def to_text(self) -> str:
        lines = [f"family={self.family} h={self.h:g}"]
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {status}  {c.condition:13s} max={c.max_norm:.3e} "
                         f"l2={c.l2_norm:.3e} tol={c.tolerance:.3e}")
        lines.append("PASS" if self.passed else "FAIL: " + ", ".join(self.failing()))
        return "\n".join(lines)


def _forward_and_det(grid: DiscGrid, states) -> tuple[ScalarField, ScalarField, ScalarField]:
    """(8.1), (8.2) and (6.R) from one forward pass of the plastic system.

    R_i of the cross-triple is det2(A_i); (6.R) checks it against LAPACK's
    LU determinant of each A_i the pass evaluates; an A_i that is the same
    matrix at every node (A_1 = I) is factored once, on its first node, and
    its determinant broadcasts.  Each A_i and w_i dies after its (6.R) term,
    before the pass evaluates the next A_i.
    """
    fwd = ForwardPass(plastic_system(), grid, states)
    det_err = 0.0
    for a, w in fwd:
        uniform = (a.view(np.int64) == a[..., :1].view(np.int64)).all()  # bit for bit
        det = np.linalg.det(np.moveaxis(a[..., :1] if uniform else a, (0, 1), (-2, -1)))
        det_err = det_err + np.abs(det2(a) - det)
        del a, w, det
    return (*fwd.residual(), ScalarField(grid, det_err))


def _stationarity_max(grid: DiscGrid, states, controls, costates) -> ScalarField:
    """(26): the largest |dH/du-bar^a| over the four controls, node by node.

    The stationarity fields are folded in one at a time, each dying before
    the next is computed.
    """
    out = np.zeros(grid.n_nodes)
    for r in stationarity_residual(plastic_multiplier_system(), plastic_cost(), grid,
                                   states, controls, costates):
        np.maximum(out, np.abs(r.data), out=out)
        del r
    return ScalarField(grid, out)


def _each(fields):
    """The fields of a sequence one by one, holding none of them once it is yielded."""
    fields = list(fields)
    while fields:
        yield fields.pop(0)


def _fields(config: RunConfig, grid: DiscGrid):
    """Every grid-based residual field of the suite, in `CONDITIONS` order.

    Each field is computed when it is asked for, and each intermediate dies
    after its last use: the stress after (7.3), each A_i after its (6.R)
    term, the controls u, v, mu, nu after (26), and the costates after
    (28.x).  The stream keeps no field it has yielded.
    """
    family = config.make_family()
    state = build_state(grid, family)
    stress = stress_from_polar(state)
    yield from _each(equilibrium_residual(stress))
    yield ((stress.syy - stress.sxx) * (stress.syy - stress.sxx)
           + 4.0 * stress.sxy * stress.sxy - 4.0 * state.k * state.k)
    del stress

    states = state.as_list()
    yield from _each(_forward_and_det(grid, states))

    controls = canonical_controls(grid, family)
    yield from _each(plastic_cic(state.rho, state.phi, state.k, *controls))
    yield k_equation_residual(state.k)

    costates = costate_bundle_star(grid, config.perturb_q1)
    yield _stationarity_max(grid, states, controls, costates)
    (p1, p2), _, (q1, q2) = costates.components
    phi = state.phi
    del controls, costates, state, states
    yield from _each(costate_system_residual(p1, p2, q1, q2, phi))


def _residual_fields(config: RunConfig, grid: DiscGrid):
    """(name, field) of each grid row of `CONDITIONS`, in order, 0.0 off the row's nodes.

    It keeps no field it has yielded, so a consumer that drops each pair before
    asking for the next (`banded_norms`) holds one condition field at a time.
    """
    fields = _fields(config, grid)
    for condition in CONDITIONS:
        if condition.interior:
            yield condition.name, ScalarField(grid, np.where(grid.interior_mask(2),
                                                             next(fields).data, 0.0))
        elif condition.column:
            yield condition.name, next(fields)


def run_verify(config: RunConfig) -> Report:
    """Evaluate every condition of the plastic suite at the configured h."""
    grid = config.make_grid()
    norms = banded_norms(grid, lambda band: _residual_fields(config, band))
    w = 2.0 * math.pi / config.m
    results = []
    with _raising():  # the band walk's floating-point policy
        circle = iter(boundary_condition_residual(*boundary_samples(config.m), config.perturb_q1))
        for condition in CONDITIONS:
            if condition.column is None:
                res = next(circle)
                norms[condition.name] = (float(np.abs(res).max()),
                                         math.sqrt(float((res * res).sum()) * w))
            results.append(ConditionResult(
                condition.name, *norms[condition.name],
                scale=grid.h if condition.column else float(config.m),
                tolerance=config.tolerance(condition, grid.h)))
    return Report(family=config.family, h=grid.h, conditions=tuple(results))


def run_convergence(config: RunConfig, h_values) -> dict:
    """Residual max norms and h-halving ratios on nodes common to all grids.

    Ratios are measured on the coarsest grid's fully-interior nodes (every
    node whose radius-2 neighbourhood is masked in): those stay centered on
    all finer grids, whereas the one-sided edge set moves with h and makes
    full-grid max-norm ratios jitter outside [3.5, 4.5].  Every spacing is
    held to `RunConfig`'s rules before any grid is built.  Each grid's
    residual stream is folded through `banded_norms` with every field set
    to 0.0 off the common nodes, which each band finds from its node
    coordinates on the coarsest lattice: a max norm is then the max over
    the common nodes, and the memory a call needs follows the band size
    rather than the finest grid's node count.
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 2:
        raise ValueError("need at least two h values")
    for a, b in zip(hs[:-1], hs[1:]):
        if abs(b - a / 2.0) > 1e-9 * a:
            raise ValueError("h values must halve: got "
                             f"{a:g} followed by {b:g}")
    configs = [replace(config, h=h) for h in hs]
    coarse = configs[0].make_grid()
    common_lattice = np.zeros(coarse.shape, dtype=bool)  # coarse lattice point -> common
    common_lattice[coarse.mask] = coarse.interior_mask(2)
    if not common_lattice.any():
        raise ValueError(f"the coarsest grid (h = {hs[0]:g}) has no interior node to compare on")

    def on_common_nodes(band: DiscGrid):
        """The band's residual stream, each field 0.0 off the common nodes."""
        # node positions in steps of the band's h from the coarse lattice's first point
        steps = round(coarse.h / band.h)
        i, di = np.divmod(np.rint((band.x - coarse.lattice_x[0]) / band.h).astype(np.intp), steps)
        j, dj = np.divmod(np.rint((band.y - coarse.lattice_y[0]) / band.h).astype(np.intp), steps)
        common = (di == 0) & (dj == 0) & common_lattice[i, j]
        del i, j, di, dj
        for name, f in _residual_fields(config, band):
            f = ScalarField(band, np.where(common, f.data, 0.0))
            yield name, f
            del f  # dead before the stream computes the next field

    norms: dict[str, list[float]] = {}
    for grid in itertools.chain([coarse], (c.make_grid() for c in configs[1:])):
        for name, (max_norm, _) in banded_norms(grid, on_common_nodes).items():
            norms.setdefault(name, []).append(max_norm)

    rows = []
    for name, ns in norms.items():
        if max(ns) <= _EXACT_TOL:
            rows.append({"condition": name, "h": hs, "max_norms": ns,
                         "ratios": [], "status": _EXACT_STATUS})
            continue
        ratios = [ns[k] / ns[k + 1] if ns[k + 1] > 0 else math.inf
                  for k in range(len(ns) - 1)]
        ok = all(3.5 <= r <= 4.5 for r in ratios)
        rows.append({"condition": name, "h": hs, "max_norms": ns,
                     "ratios": ratios,
                     "status": "ok" if ok else "ratio outside [3.5, 4.5]"})
    return {"family": config.family, "h": hs, "rows": rows,
            "passed": all(r["status"] in ("ok", _EXACT_STATUS) for r in rows)}


def write_fields(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Export state/stress, costate, and residual fields as CSV files.

    Each file's columns are computed band by band (`banded_columns`) and
    written before the next file's are: the state and stress, then the
    costates (both closed-form samples), then the residual stream.  The
    whole grid builds neither node coordinates nor stencil taps: `write_csv`
    spells x and y from the lattice.
    """
    out_dir = out_dir or config.out
    os.makedirs(out_dir, exist_ok=True)
    grid = config.make_grid()
    family = config.make_family()

    def state_columns(band):
        state = build_state(band, family)
        stress = stress_from_polar(state)
        # zip holds a pair until the next is asked, and `_each` computes nothing then
        return zip(("sxx", "syy", "sxy", "rho", "K", "cphi", "sphi"),
                   _each((stress.sxx, stress.syy, stress.sxy, state.rho, state.k,
                          state.phi.c, state.phi.s)))

    def costate_columns(band):
        (p1, p2), (r1, r2), (q1, q2) = costate_bundle_star(band, config.perturb_q1).components
        return zip(("p1", "p2", "r1", "r2", "q1", "q2"), _each((p1, p2, r1, r2, q1, q2)))

    column = {condition.name: condition.column for condition in CONDITIONS}

    def residual_columns(band):
        for name, f in _residual_fields(config, band):
            yield column[name], f
            del f  # dead before the stream computes the next field

    paths = []
    for name, columns in (("stress.csv", state_columns), ("costates.csv", costate_columns),
                          ("residuals.csv", residual_columns)):
        paths.append(os.path.join(out_dir, name))
        write_csv(paths[-1], grid, banded_columns(grid, columns))
    return paths
