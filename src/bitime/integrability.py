"""Complete-integrability condition (CIC) residuals.

Single-state form: d/dt2 (P - x dR/dt1) = d/dt1 (Q - x dR/dt2).
The multi-state version applies it per state with that state's cross-triple.
The plastic-medium specialisation writes the three conditions directly in
the canonical controls (u, v, mu, nu), which keeps the angle sheet out of
the formulas (only its unit pair enters).

Second derivatives are composed first-derivative stencils throughout, so
convergence constants are reproducible against the first-order operators.
Residuals are reported raw, not normalised by any coefficient magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .grid import AngleField, ScalarField, partial
from .systems import SplitSystem, cross_triple

__all__ = [
    "CicReport",
    "cic_single",
    "cic_multi",
    "plastic_cic",
]


@dataclass(frozen=True)
class CicReport:
    """Per-state CIC residual fields with their norms."""

    residuals: tuple[ScalarField, ...]
    h: float

    @property
    def max_norms(self) -> tuple[float, ...]:
        return tuple(r.max_norm() for r in self.residuals)

    @property
    def l2_norms(self) -> tuple[float, ...]:
        return tuple(r.l2_norm() for r in self.residuals)

    def to_json(self) -> str:
        entries = [
            {"state_index": i + 1, "max_norm": r.max_norm(), "l2_norm": r.l2_norm(), "h": self.h}
            for i, r in enumerate(self.residuals)
        ]
        return json.dumps(entries)


def cic_single(p: ScalarField, q: ScalarField, r: ScalarField, x: ScalarField) -> ScalarField:
    """Residual of the one-state integrability condition for the triple (P, Q, R)."""
    left = partial(p - x * partial(r, 1), 2)
    right = partial(q - x * partial(r, 2), 1)
    return left - right


def cic_multi(split: SplitSystem, states=None) -> CicReport:
    """One CIC residual per state of a split system.

    States must be scalar sheets here: the condition multiplies the state
    value into the R-gradient terms, which has no branch-free angle analogue.
    Plastic verification goes through `plastic_cic` instead (or restricts to
    a zone where a single-valued angle sheet exists).
    """
    if states is None:
        states = split.states
    residuals = []
    for i in range(1, split.base.n + 1):
        xf = states[i - 1]
        if isinstance(xf, AngleField):
            raise TypeError(
                "cic_multi needs scalar state sheets; supply a single-valued "
                "angle sheet on a branch-free zone"
            )
        t = cross_triple(split, i)
        residuals.append(cic_single(t.p, t.q, t.r, xf))
    return CicReport(residuals=tuple(residuals), h=split.grid.h)


def plastic_cic(rho: ScalarField, phi: AngleField, k: ScalarField,
                u: ScalarField, v: ScalarField, mu: ScalarField, nu: ScalarField
                ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The three integrability conditions of the perfect-plastic split system.

    line 1:  du/dy - dv/dx
    line 2:  d/dy(-mu c + nu s) - d/dx(mu s + nu c)
    line 3:  d/dy((u+mu)s + (v+nu)c) + K_y phi_x - d/dx((u+mu)c - (v+nu)s) - K_x phi_y
    """
    grid = k.grid
    if (k.data[grid.mask] <= 0).any():
        raise ValueError("degenerate Mohr radius")
    c, s = phi.c, phi.s
    line1 = partial(u, 2) - partial(v, 1)
    line2 = partial(-1.0 * mu * c + nu * s, 2) - partial(mu * s + nu * c, 1)
    kx, ky = partial(k, 1), partial(k, 2)
    phix, phiy = phi.partial(1), phi.partial(2)
    b1 = (u + mu) * s + (v + nu) * c
    b2 = (u + mu) * c - (v + nu) * s
    line3 = partial(b1, 2) + ky * phix - partial(b2, 1) - kx * phiy
    return line1, line2, line3

