"""End-to-end verification suite over the plastic closed forms.

`run_verify` evaluates every checkable condition of the example problem on
one grid and reports pass/fail per condition.  Conditions are named after
the equations they discretise:

  (7.1) (7.2)   stress equilibrium rows          O(h^2)
  (7.3)         yield identity                   exact (1e-12)
  (6.R)         cross-triple determinant check   exact (1e-12)
  (8.1) (8.2)   forward quasi-linear system      O(h^2)
  (10.1..3)     integrability conditions         O(h^2)
  (K-equation)  second-order equation for K      O(h^2)
  (26)          stationarity of the Hamiltonian  exact (1e-12)
  (28.1..3)     costate system                   exact/O(h^2)
  (27.1..3)     circle boundary conditions       exact (1e-12)

Tolerance model: O(h^2) conditions use C * h^2.  The generic default is
C = 10, but the raw (unnormalised) residuals of the singular families carry
much larger constants, so the defaults are calibrated per condition and
family (DEFAULT_TOLERANCE_C, see the margin stated there); a config
`tolerance_c` overrides them globally.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .grid import DiscGrid, ScalarField, boundary_samples, build_disc_grid, write_csv
from .integrability import plastic_cic
from .optimality import stationarity_residual
from .plastic import (Family, boundary_condition_residual, build_state,
                      canonical_controls, costate_bundle_star,
                      costate_system_residual, k_equation_residual,
                      equilibrium_residual, plastic_cost,
                      plastic_multiplier_system, plastic_system,
                      stress_from_polar)
from .systems import cross_triple, forward_residual, split_controls

__all__ = [
    "RunConfig",
    "ConditionResult",
    "Report",
    "DEFAULT_TOLERANCE_C",
    "run_verify",
    "run_convergence",
    "write_fields",
]

_EXACT_TOL = 1e-12

_COEFF_KEY = {"quadratic": "alpha", "inv_x": "beta", "inv_y": "gamma", "constant": "delta"}

# Calibrated C in tolerance = C * h^2, from max norms measured at h = 1/64 on
# the default zones (eps0 = 0.1, coefficient 1).  Headroom (tolerance over
# max norm) is 4.08x to 16.6x at h = 1/64 and shrinks as h falls, because the
# full-grid max norm includes one-sided edge nodes whose distance to the zone
# boundary jitters with h: the smallest is 1.23x, for constant (8.1) and
# (8.2) at h = 1/512.  Conditions absent here fall back to C = 10.
DEFAULT_TOLERANCE_C = {
    ("quadratic", "(8.1)"): 80.0,
    ("quadratic", "(8.2)"): 80.0,
    ("quadratic", "(10.3)"): 1400.0,
    ("quadratic", "(28.2)"): 450.0,
    ("quadratic", "(28.3)"): 700.0,
    ("inv_x", "(7.1)"): 70000.0,
    ("inv_x", "(7.2)"): 70000.0,
    ("inv_x", "(8.1)"): 70000.0,
    ("inv_x", "(8.2)"): 70000.0,
    ("inv_x", "(10.3)"): 1.4e6,
    ("inv_x", "(K-equation)"): 5.0e5,
    ("inv_x", "(28.2)"): 450.0,
    ("inv_x", "(28.3)"): 700.0,
    ("inv_y", "(7.1)"): 70000.0,
    ("inv_y", "(7.2)"): 70000.0,
    ("inv_y", "(8.1)"): 70000.0,
    ("inv_y", "(8.2)"): 70000.0,
    ("inv_y", "(10.3)"): 1.4e6,
    ("inv_y", "(K-equation)"): 5.0e5,
    ("inv_y", "(28.2)"): 450.0,
    ("inv_y", "(28.3)"): 700.0,
    ("constant", "(7.1)"): 15000.0,
    ("constant", "(7.2)"): 15000.0,
    ("constant", "(8.1)"): 6000.0,
    ("constant", "(8.2)"): 6000.0,
    ("constant", "(10.1)"): 180000.0,
    ("constant", "(10.3)"): 210000.0,
    ("constant", "(28.2)"): 450.0,
    ("constant", "(28.3)"): 700.0,
}


@dataclass(frozen=True)
class RunConfig:
    """Suite configuration; every field has a default so `verify` runs bare."""

    h: float = 1.0 / 64.0
    margin: float | None = None
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

    _KEYS = ("h", "margin", "eps0", "m", "family", "alpha", "beta", "gamma",
             "delta", "c0", "tolerance_c", "perturb_q1", "out")
    _NUMBERS = ("h", "eps0", "alpha", "beta", "gamma", "delta", "c0", "perturb_q1")
    _OPTIONAL_NUMBERS = ("margin", "tolerance_c")
    _MAX_M = 100_000

    def __post_init__(self):
        for key in self._NUMBERS + self._OPTIONAL_NUMBERS:
            value = getattr(self, key)
            if value is None and key in self._OPTIONAL_NUMBERS:
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{key} must be a number, got {value!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        for key in ("family", "out"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")
        if not 0 < self.h <= 0.25:
            raise ValueError("grid too coarse: h must be in (0, 0.25]")
        if not 8 <= self.m <= self._MAX_M:
            raise ValueError(f"need 8 to {self._MAX_M} boundary samples, got {self.m}")
        if self.family not in _COEFF_KEY:
            raise ValueError(f"unknown family {self.family!r}")
        if self.tolerance_c is not None and self.tolerance_c <= 0:
            raise ValueError("tolerance constant must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - set(cls._KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def make_family(self) -> Family:
        coeff = getattr(self, _COEFF_KEY[self.family])
        return Family(kind=self.family, coeff=coeff, c0=self.c0, eps0=self.eps0)

    def make_grid(self, h: float | None = None) -> DiscGrid:
        return build_disc_grid(h if h is not None else self.h,
                               margin=self.margin,
                               zones=self.make_family().zones())

    def tolerance(self, condition: str, h: float) -> float:
        if self.tolerance_c is not None:
            return self.tolerance_c * h * h
        c = DEFAULT_TOLERANCE_C.get((self.family, condition), 10.0)
        return c * h * h


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


def _residual_fields(config: RunConfig, grid: DiscGrid):
    """All grid-based residual fields of the suite, keyed by condition name."""
    family = config.make_family()
    state = build_state(grid, family)
    stress = stress_from_polar(state)
    out: dict[str, ScalarField] = {}

    eq1, eq2 = equilibrium_residual(stress)
    out["(7.1)"], out["(7.2)"] = eq1, eq2
    yield_res = ((stress.syy - stress.sxx) * (stress.syy - stress.sxx)
                 + 4.0 * stress.sxy * stress.sxy - 4.0 * state.k * state.k)
    out["(7.3)"] = yield_res

    sys = plastic_system()
    states = state.as_list()
    f1, f2 = forward_residual(sys, grid, states)
    out["(8.1)"], out["(8.2)"] = f1, f2

    split = split_controls(sys, grid, states)
    det_err = grid.zeros()
    for i in (1, 2, 3):
        a = sys.matrix(i, grid, split.state_values(), [])
        det = np.linalg.det(np.moveaxis(a, (0, 1), (-2, -1)))
        det_err = det_err + grid.field(np.abs(cross_triple(split, i).r.data - det))
    out["(6.R)"] = det_err

    u, v, mu, nu = canonical_controls(grid, family)
    c1, c2, c3 = plastic_cic(state.rho, state.phi, state.k, u, v, mu, nu)
    out["(10.1)"], out["(10.2)"], out["(10.3)"] = c1, c2, c3

    # Composed second-derivative stencils are only first-order where the
    # composition crosses one-sided edge nodes, so this condition is scored
    # on fully-interior nodes (everything else uses single stencils and
    # stays second-order up to the mask edge).
    keq = k_equation_residual(state.k)
    out["(K-equation)"] = grid.field(np.where(grid.interior_mask(2), keq.data, 0.0))

    costates = costate_bundle_star(grid, config.perturb_q1)
    msys = plastic_multiplier_system()
    cost = plastic_cost()
    stat = stationarity_residual(msys, cost, grid, states, (u, v, mu, nu), costates)
    stat_max = grid.zeros()
    for r in stat:
        stat_max = grid.field(np.maximum(stat_max.data, np.abs(r.data)))
    out["(26)"] = stat_max

    (p1f, p2f), _, (q1f, q2f) = costates.components
    l1, l2, l3 = costate_system_residual(p1f, p2f, q1f, q2f, state.phi)
    out["(28.1)"], out["(28.2)"], out["(28.3)"] = l1, l2, l3
    return out, state, stress, costates


_EXACT_CONDITIONS = {"(7.3)", "(6.R)", "(26)", "(27.1)", "(27.2)", "(27.3)", "(28.1)"}


def run_verify(config: RunConfig) -> Report:
    """Evaluate every condition of the plastic suite at the configured h."""
    grid = config.make_grid()
    fields, _, _, _ = _residual_fields(config, grid)
    results = []
    for name, f in fields.items():
        tol = _EXACT_TOL if name in _EXACT_CONDITIONS else config.tolerance(name, grid.h)
        results.append(ConditionResult(condition=name, max_norm=f.max_norm(),
                                       l2_norm=f.l2_norm(), scale=grid.h,
                                       tolerance=tol))

    w = 2.0 * math.pi / config.m
    rows = boundary_condition_residual(*boundary_samples(config.m), config.perturb_q1)
    for name, res in zip(("(27.1)", "(27.2)", "(27.3)"), rows):
        results.append(ConditionResult(
            condition=name, max_norm=float(np.abs(res).max()),
            l2_norm=float(math.sqrt(float((res * res).sum()) * w)),
            scale=float(config.m), tolerance=_EXACT_TOL))
    return Report(family=config.family, h=grid.h, conditions=tuple(results))


def _values_at(grid: DiscGrid, data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    i = np.rint((xs - grid.coords[0]) / grid.h).astype(int)
    j = np.rint((ys - grid.coords[0]) / grid.h).astype(int)
    return data[i, j]


def run_convergence(config: RunConfig, h_values) -> dict:
    """Residual norms and h-halving ratios on nodes common to all grids.

    Ratios are measured on the coarsest grid's fully-interior nodes (every
    node whose radius-2 neighbourhood is masked in): those stay centered on
    all finer grids, whereas the one-sided edge set moves with h and makes
    full-grid max-norm ratios jitter outside [3.5, 4.5].
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 2:
        raise ValueError("need at least two h values")
    for a, b in zip(hs[:-1], hs[1:]):
        if abs(b - a / 2.0) > 1e-9 * a:
            raise ValueError("h values must halve: got "
                             f"{a:g} followed by {b:g}")
    coarse = config.make_grid(hs[0])
    safe = coarse.interior_mask(2)
    xs, ys = coarse.X[safe], coarse.Y[safe]

    norms: dict[str, list[float]] = {}
    for h in hs:
        grid = config.make_grid(h)
        fields, _, _, _ = _residual_fields(config, grid)
        for name, f in fields.items():
            vals = _values_at(grid, f.data, xs, ys)
            norms.setdefault(name, []).append(float(np.abs(vals).max()))

    rows = []
    for name, ns in norms.items():
        if max(ns) <= 1e-12:
            rows.append({"condition": name, "h": hs, "max_norms": ns,
                         "ratios": [], "status": "exact (<=1e-12)"})
            continue
        ratios = [ns[k] / ns[k + 1] if ns[k + 1] > 0 else math.inf
                  for k in range(len(ns) - 1)]
        ok = all(3.5 <= r <= 4.5 for r in ratios)
        rows.append({"condition": name, "h": hs, "max_norms": ns,
                     "ratios": ratios,
                     "status": "ok" if ok else "ratio outside [3.5, 4.5]"})
    return {"family": config.family, "h": hs, "rows": rows,
            "passed": all(r["status"] in ("ok", "exact (<=1e-12)") for r in rows)}


def write_fields(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Export state/stress, costate, and residual fields as CSV files."""
    out_dir = out_dir or config.out
    os.makedirs(out_dir, exist_ok=True)
    grid = config.make_grid()
    fields, state, stress, costates = _residual_fields(config, grid)

    paths = []
    stress_path = os.path.join(out_dir, "stress.csv")
    write_csv(stress_path, grid, {
        "sxx": stress.sxx, "syy": stress.syy, "sxy": stress.sxy,
        "rho": state.rho, "K": state.k,
        "cphi": state.phi.c, "sphi": state.phi.s,
    })
    paths.append(stress_path)

    (p1, p2), (r1, r2), (q1, q2) = costates.components
    costate_path = os.path.join(out_dir, "costates.csv")
    write_csv(costate_path, grid, {"p1": p1, "p2": p2, "r1": r1, "r2": r2,
                                   "q1": q1, "q2": q2})
    paths.append(costate_path)

    residual_path = os.path.join(out_dir, "residuals.csv")
    write_csv(residual_path, grid,
              {name.strip("()").replace(".", "_").replace("-", "_"): f
               for name, f in fields.items()})
    paths.append(residual_path)
    return paths
