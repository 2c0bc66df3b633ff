"""Complete-integrability condition (CIC) residuals.

Single-state form: d/dt2 (P - x dR/dt1) = d/dt1 (Q - x dR/dt2).
The multi-state version applies it per state with that state's cross-triple.
The plastic-medium specialisation writes the three conditions directly in
the canonical controls (u, v, mu, nu), which keeps the angle sheet out of
the formulas (only its unit pair enters).

`forward_and_cic` is the stream the `residuals` command folds: one walk
over the states yields each state's condition from its (A_i, w_i) as the
step finishes, then the forward rows: a band holds one condition at a time.

Second derivatives are composed first-derivative stencils throughout, so
convergence constants are reproducible against the first-order operators.
Residuals are reported raw, not normalised by any coefficient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .grid import AngleField, DiscGrid, ScalarField, partial
from .systems import CrossTriple, ForwardPass, QuasiLinearSystem, SplitSystem, cross_triple

__all__ = [
    "CicReport",
    "cic_single",
    "cic_multi",
    "forward_and_cic",
    "plastic_cic",
]


@dataclass(frozen=True)
class CicReport:
    """Per-state CIC residual fields."""

    residuals: tuple[ScalarField, ...]


def cic_single(p: ScalarField, q: ScalarField, r: ScalarField, x: ScalarField) -> ScalarField:
    """Residual of the one-state integrability condition for the triple (P, Q, R)."""
    left = partial(p - x * partial(r, 1), 2)
    right = partial(q - x * partial(r, 2), 1)
    return left - right


def _scalar_states(states) -> None:
    if any(isinstance(x, AngleField) for x in states):
        raise TypeError(
            "cic_multi needs scalar state sheets; supply a single-valued "
            "angle sheet on a branch-free zone"
        )


def cic_multi(split: SplitSystem, states=None) -> CicReport:
    """One CIC residual per state of a split system.

    States must be scalar sheets here: the condition multiplies the state
    value into the R-gradient terms, which has no branch-free angle analogue.
    Plastic verification goes through `plastic_cic` instead (or restricts to
    a zone where a single-valued angle sheet exists).  `states`, which
    replaces the split's own sheets, must hold one sheet per state.
    """
    if states is None:
        states = split.states
    if len(states) != split.base.n:
        raise ValueError("state count does not match the system")
    _scalar_states(states)
    return CicReport(residuals=tuple(_triple_cic(cross_triple(split, i), states[i - 1])
                                     for i in range(1, split.base.n + 1)))


def forward_and_cic(sys: QuasiLinearSystem, grid: DiscGrid, states, controls=()
                    ) -> Iterator[tuple[str, ScalarField]]:
    """The `residuals` stream: ("cic.i", field) for each state i, then ("forward.1", ...)
    and ("forward.2", ...).

    One `ForwardPass` over the states: each cic.i is yielded as its step
    finishes, and the forward rows once the walk is done.  These are the
    fields of `cic_multi(split_controls(...))` and `forward_residual` bit
    for bit, from one evaluation of each A_i, grad x^i and B.  The states
    are checked, and B evaluated, when this is called.  The stream keeps no
    cic.i it has yielded; the forward rows are views of the one array of
    rows the walk sums into.
    """
    _scalar_states(states)
    return _stream(ForwardPass(sys, grid, states, controls), states)


def _stream(fwd: ForwardPass, states):
    # no local holds A_i while the walk evaluates A_{i+1}
    steps = iter(fwd)
    for i, x in enumerate(states, 1):
        yield f"cic.{i}", _triple_cic(CrossTriple.of(fwd.grid, *next(steps)), x)
    yield from zip(("forward.1", "forward.2"), fwd.residual())


def _triple_cic(t: CrossTriple, x: ScalarField) -> ScalarField:
    return cic_single(t.p, t.q, t.r, x)


def plastic_cic(rho: ScalarField, phi: AngleField, k: ScalarField,
                u: ScalarField, v: ScalarField, mu: ScalarField, nu: ScalarField
                ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The three integrability conditions of the perfect-plastic split system.

    line 1:  du/dy - dv/dx
    line 2:  d/dy(-mu c + nu s) - d/dx(mu s + nu c)
    line 3:  d/dy((u+mu)s + (v+nu)c) + K_y phi_x - d/dx((u+mu)c - (v+nu)s) - K_x phi_y
    """
    if (k.data <= 0).any():
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

