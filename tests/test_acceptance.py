"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is evaluated at its stated tolerance.  O(h^2) bounds use the
literal constant C = 10; convergence ratios are measured on nodes that stay
fully interior on every grid of the halving sequence (the one-sided edge
set moves with h and makes full-grid max-norm ratios meaningless).
"""

import math
import time

import numpy as np
import pytest

from bitime.grid import ExclusionZone, boundary_samples, build_disc_grid
from bitime.integrability import cic_multi, plastic_cic
from bitime.plastic import (Family, build_state, canonical_controls,
                            costate_bundle_star, costate_system_residual,
                            costates_star, k_equation_residual,
                            equilibrium_residual, phi_star_field,
                            plastic_cost, plastic_multiplier_system,
                            plastic_system, stress_from_polar)
from bitime.optimality import stationarity_residual
from bitime.suite import RunConfig, run_convergence, run_verify
from bitime.systems import cross_triple, forward_residual, split_controls
from conftest import line_integral

FAMILY_KINDS = ("quadratic", "inv_x", "inv_y", "constant")
H_SEQUENCE = [1 / 32, 1 / 64, 1 / 128]

_cache = {}


def family_setup(kind, h=1 / 64):
    key = ("setup", kind, h)
    if key not in _cache:
        fam = Family(kind, 1.0)
        grid = build_disc_grid(h, zones=fam.zones())
        state = build_state(grid, fam)
        _cache[key] = (fam, grid, state)
    return _cache[key]


def convergence_table(kind):
    key = ("conv", kind)
    if key not in _cache:
        table = run_convergence(RunConfig(family=kind), H_SEQUENCE)
        _cache[key] = {row["condition"]: row for row in table["rows"]}
    return _cache[key]


def ratio_ok(kind, condition):
    row = convergence_table(kind)[condition]
    if row["status"] == "exact (<=1e-12)":
        return True
    return all(3.5 <= r <= 4.5 for r in row["ratios"])


def report(num, checks):
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"\nCRITERION {num}: {status}")
    for label, detail in failed:
        print(f"  failed: {label} ({detail})")
    assert not failed, f"criterion {num}: " + "; ".join(l for l, _ in failed)


def test_criterion_01_yield_identity():
    t0 = time.perf_counter()
    checks = []
    for kind in FAMILY_KINDS:
        _, grid, state = family_setup(kind)
        s = stress_from_polar(state)
        res = ((s.syy - s.sxx) * (s.syy - s.sxx) + 4.0 * s.sxy * s.sxy
               - 4.0 * state.k * state.k)
        checks.append((f"yield {kind}", res.max_norm() <= 1e-12,
                       f"max={res.max_norm():.3e}"))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f}s"))
    report(1, checks)


def test_criterion_02_equilibrium():
    t0 = time.perf_counter()
    checks = []
    for kind in FAMILY_KINDS:
        _, grid, state = family_setup(kind)
        r1, r2 = equilibrium_residual(stress_from_polar(state))
        worst = max(r1.max_norm(), r2.max_norm())
        tol = 1e-12 if kind == "quadratic" else 10.0 * grid.h**2
        checks.append((f"equilibrium {kind} <= {tol:.2e}", worst <= tol,
                       f"max={worst:.3e}"))
        if kind != "quadratic":
            ok = ratio_ok(kind, "(7.1)") and ratio_ok(kind, "(7.2)")
            checks.append((f"equilibrium {kind} ratio in [3.5,4.5]", ok,
                           str(convergence_table(kind)["(7.1)"]["ratios"])))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s"))
    report(2, checks)


def test_criterion_03_integrability():
    checks = []
    for kind in FAMILY_KINDS:
        fam, grid, state = family_setup(kind)
        u, v, mu, nu = canonical_controls(grid, fam)
        lines = plastic_cic(state.rho, state.phi, state.k, u, v, mu, nu)
        for j, line in enumerate(lines, start=1):
            tol = 10.0 * grid.h**2
            checks.append((f"cic {kind} line {j} <= 10h^2",
                           line.max_norm() <= tol, f"max={line.max_norm():.3e}"))
            checks.append((f"cic {kind} line {j} ratio",
                           ratio_ok(kind, f"(10.{j})"),
                           str(convergence_table(kind)[f"(10.{j})"]["ratios"])))
    report(3, checks)


def test_criterion_04_cross_triple_determinants():
    _, grid, state = family_setup("quadratic")
    split = split_controls(plastic_system(), grid, state.as_list())
    t1, t2, t3 = (cross_triple(split, i) for i in (1, 2, 3))
    k2 = state.k.data**2
    rel3 = np.abs(t3.r.data + k2) / np.maximum(1.0, k2)
    checks = [
        ("R1 = 1", abs(t1.r.data - 1.0).max() <= 1e-14, ""),
        ("R2 = -1", abs(t2.r.data + 1.0).max() <= 1e-14, ""),
        ("R3 = -K^2 (relative)", rel3.max() <= 1e-14, f"max={rel3.max():.3e}"),
    ]
    report(4, checks)


def test_criterion_05_maximum_principle():
    fam, grid, state = family_setup("quadratic")
    controls = canonical_controls(grid, fam)
    costates = costate_bundle_star(grid)
    msys = plastic_multiplier_system()
    stat = list(stationarity_residual(msys, plastic_cost(), grid, state.as_list(),
                                      controls, costates))
    checks = [("stationarity <= 1e-12",
               max(r.max_norm() for r in stat) <= 1e-12,
               f"max={max(r.max_norm() for r in stat):.3e}")]

    (p1, p2), _, (q1, q2) = costates.components
    lines = costate_system_residual(p1, p2, q1, q2, state.phi)
    for j, line in enumerate(lines, start=1):
        checks.append((f"costate line {j} <= 10h^2",
                       line.max_norm() <= 10.0 * grid.h**2,
                       f"max={line.max_norm():.3e}"))
        checks.append((f"costate line {j} ratio",
                       ratio_ok("quadratic", f"(28.{j})"),
                       str(convergence_table("quadratic")[f"(28.{j})"]["ratios"])))

    from bitime.plastic import boundary_condition_residual
    rows = boundary_condition_residual(*boundary_samples(360))
    worst = max(np.abs(r).max() for r in rows)
    checks.append(("transversality (27) <= 1e-12 at m=360", worst <= 1e-12,
                   f"max={worst:.3e}"))
    report(5, checks)


def test_criterion_06_path_independence():
    checks = []
    for kind in FAMILY_KINDS:
        fam, grid, _ = family_setup(kind)
        start = (0.5, 0.2)
        # the stated endpoint (-0.3, 0.6) lies inside the excluded half-plane
        # of inv_x; for that family a target with x >= eps0 is used instead
        end = (0.3, 0.6) if kind == "inv_x" else (-0.3, 0.6)
        way = (0.5, 0.6)
        sampler = lambda x, y: fam.rho_grad(x, y)
        direct = line_integral(grid, sampler, [start, end], fam.zones())
        dog_leg = line_integral(grid, sampler, [start, way, end], fam.zones())
        length = (math.dist(start, end) + math.dist(start, way)
                  + math.dist(way, end))
        diff = abs(direct - dog_leg)
        checks.append((f"path independence {kind}",
                       diff <= 10.0 * grid.h**2 * length, f"diff={diff:.3e}"))
    report(6, checks)


def test_criterion_07_oracle_equivalence():
    checks = []
    # two assemblies of the plastic CIC, node-wise, on a branch-free zone
    fam = Family("constant", 1.0)
    grid = build_disc_grid(1 / 64, zones=[ExclusionZone("half_x", 0.1)])
    rho, k = grid.field(fam.rho), grid.field(fam.k)
    phi = phi_star_field(grid)
    phi_scalar = grid.field(
        lambda x, y: np.pi - 2 * np.arctan2(y, np.where(x == 0, 1.0, x)))
    split = split_controls(plastic_system(), grid, [rho, k, phi])
    u, v = split.v[0]
    v21, v22 = split.v[1]
    mu = -1.0 * phi.c * v21 + phi.s * v22
    nu = phi.s * v21 + phi.c * v22
    c1, c2, c3 = cic_multi(split, states=[rho, k, phi_scalar]).residuals
    l1, l2, l3 = plastic_cic(rho, phi, k, u, v, mu, nu)
    for label, diff in (("line 1", (c1 + l1).max_norm()),
                        ("line 2", (c2 - l2).max_norm()),
                        ("line 3", (c3 + k * l3).max_norm())):
        checks.append((f"plastic_cic vs cic_multi {label}", diff <= 1e-10,
                       f"diff={diff:.3e}"))

    # expression-parsed system vs hand-coded evaluators, same pipeline
    from bitime.expressions import fields_from_config, system_from_config
    cfg = {
        "states": ["rho", "K", "phi"], "controls": [],
        "A": [
            [["1", "0"], ["0", "1"]],
            [["-cos(phi)", "sin(phi)"], ["sin(phi)", "cos(phi)"]],
            [["K*sin(phi)", "K*cos(phi)"], ["K*cos(phi)", "-K*sin(phi)"]],
        ],
        "B": ["0", "0"],
        "state_fields": {"rho": "1/x", "K": "1/x",
                         "phi": "3.141592653589793 - 2*atan2(y, x)"},
        "control_fields": {},
    }
    grid_x = build_disc_grid(1 / 64, zones=[ExclusionZone("half_x", 0.1)])
    states_cfg, _ = fields_from_config(cfg, grid_x)
    fam_x = Family("inv_x", 1.0)
    phi_x = grid_x.field(lambda x, y: np.pi - 2 * np.arctan2(
        y, np.where(x == 0, 1.0, x)))
    states_ref = [grid_x.field(fam_x.rho), grid_x.field(fam_x.k), phi_x]
    for label, sys_obj, states in (("config", system_from_config(cfg), states_cfg),
                                   ("builtin", plastic_system(), states_ref)):
        fwd = forward_residual(sys_obj, grid_x, states)
        rep = cic_multi(split_controls(sys_obj, grid_x, states))
        _cache[("c7", label)] = ([f.max_norm() for f in fwd],
                                 [r.max_norm() for r in rep.residuals])
    got, want = _cache[("c7", "config")], _cache[("c7", "builtin")]
    for g, w, label in zip(got[0] + got[1], want[0] + want[1],
                           ["forward.1", "forward.2", "cic.1", "cic.2", "cic.3"]):
        checks.append((f"config vs builtin {label}",
                       abs(g - w) <= 1e-10 * max(1.0, w), f"{g:.6e} vs {w:.6e}"))
    report(7, checks)


def test_criterion_08_k_equation():
    checks = []
    for kind in ("quadratic", "constant"):
        _, grid, state = family_setup(kind)
        res = k_equation_residual(state.k)
        checks.append((f"K-equation {kind} <= 1e-12",
                       res.max_norm() <= 1e-12, f"max={res.max_norm():.3e}"))
    _, grid, state = family_setup("inv_x")
    res = k_equation_residual(state.k)
    checks.append(("K-equation inv_x <= 10h^2",
                   res.max_norm() <= 10.0 * grid.h**2,
                   f"max={res.max_norm():.3e}"))
    checks.append(("K-equation inv_x ratio", ratio_ok("inv_x", "(K-equation)"),
                   str(convergence_table("inv_x")["(K-equation)"]["ratios"])))
    report(8, checks)


def test_criterion_09_negative_control():
    rep = run_verify(RunConfig(h=1 / 64, perturb_q1=0.1))
    failing27 = [c for c in rep.conditions
                 if c.condition.startswith("(27") and not c.passed]
    checks = [
        ("verify fails", not rep.passed, str(rep.failing())),
        ("a (27) condition is reported", bool(failing27), str(rep.failing())),
        ("max residual >= 0.05",
         bool(failing27) and max(c.max_norm for c in failing27) >= 0.05,
         ""),
    ]
    report(9, checks)


def test_criterion_10_verify_runtime():
    t0 = time.perf_counter()
    rep = run_verify(RunConfig(h=1 / 128))
    elapsed = time.perf_counter() - t0
    checks = [
        ("verify h=1/128 passes", rep.passed, str(rep.failing())),
        ("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f}s"),
    ]
    report(10, checks)
