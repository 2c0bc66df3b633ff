"""Masked Cartesian grid on the unit disc with second-order difference operators.

The grid is a uniform lattice (x, y) = (i*h, j*h) clipped to the disc
x^2 + y^2 <= (1 - margin)^2, optionally minus exclusion bands around the
axes or the origin (needed by solution families with 1/x, 1/y or log
singularities).  First derivatives use centered stencils wherever both
neighbours exist and one-sided second-order stencils at the mask edge, so
everything stays O(h^2).  Boundary data are never extrapolated from the
grid; the unit circle is sampled parametrically (`boundary_samples`).

Stencils are applied without copying the lattice: the centered difference
is one subtraction of two slices of the padded lattice (the two padding
rings keep every slice in bounds), the one-sided stencils overwrite the
edge nodes through per-axis flat index lists built once with the grid, and
the off-mask entries are then zeroed in place.

Closed forms f(x, y) reach the grid only through `DiscGrid.sample`, which
evaluates them on masked nodes alone and stores zeros elsewhere, so a
formula may be singular anywhere off the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ExclusionZone",
    "DiscGrid",
    "ScalarField",
    "AngleField",
    "build_disc_grid",
    "partial",
    "boundary_samples",
    "line_integral",
    "write_csv",
]


@dataclass(frozen=True)
class ExclusionZone:
    """A band of the plane removed from the grid.

    kinds:
      ``abs_x``  -- remove |x| < size
      ``abs_y``  -- remove |y| < size
      ``origin`` -- remove x^2 + y^2 < size^2
      ``half_x`` -- remove x < size (keeps the right half-plane)
      ``half_y`` -- remove y < size
    """

    kind: str
    size: float

    _KINDS = ("abs_x", "abs_y", "origin", "half_x", "half_y")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown exclusion zone kind {self.kind!r}")
        if self.size < 0:
            raise ValueError("exclusion zone size must be >= 0")

    def excludes(self, x, y):
        """Boolean array: True where the zone removes points."""
        if self.kind == "abs_x":
            return np.abs(x) < self.size - 1e-15
        if self.kind == "abs_y":
            return np.abs(y) < self.size - 1e-15
        if self.kind == "origin":
            return x * x + y * y < self.size**2 - 1e-15
        if self.kind == "half_x":
            return x < self.size - 1e-15
        return y < self.size - 1e-15


# Largest (2M+1)^2 lattice build_disc_grid allocates: h = 1/1024 needs
# 2053^2 = 4.2e6 points.
_MAX_LATTICE_POINTS = 5_000_000

# Rows per formatting block in write_csv.
_CSV_BLOCK_ROWS = 2048

# Stencil codes per node per axis.
_CENTERED = 0
_FORWARD = 1
_BACKWARD = 2
_NONE = -1


def _neighbours(a: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """a shifted by +1, -1, +2, -2 lattice steps along axis: (up1, dn1, up2, dn2).

    Wrap-around from np.roll never reaches a used node: the lattice carries
    a two-ring padding outside the unit disc that is always masked off.
    """
    return tuple(np.roll(a, -k, axis=axis) for k in (1, -1, 2, -2))


class DiscGrid:
    """Unit-disc lattice with cached stencil selections.

    Not meant to be constructed directly; use :func:`build_disc_grid`.
    """

    def __init__(self, h: float, margin: float, zones: Sequence[ExclusionZone],
                 mask: np.ndarray, coords: np.ndarray):
        self.h = float(h)
        self.margin = float(margin)
        self.zones = tuple(zones)
        self.mask = mask
        self.coords = coords  # 1-d lattice coordinates, shared by both axes
        self.X, self.Y = np.meshgrid(coords, coords, indexing="ij")
        self.shape = mask.shape
        self.n_nodes = int(mask.sum())
        self._off_mask = ~mask
        # stencil code arrays, one per axis (0 -> x, 1 -> y), and the flat
        # indices of the forward and backward (one-sided) nodes of each axis
        self._stencils = [self._stencil_codes(ax) for ax in (0, 1)]
        self._edges = [(np.flatnonzero(code == _FORWARD), np.flatnonzero(code == _BACKWARD))
                       for code in self._stencils]
        # node ordering for exports: row-major by j (y) then i (x)
        ii, jj = np.nonzero(mask)
        order = np.lexsort((ii, jj))
        self._node_idx = (ii[order], jj[order])

    def _stencil_codes(self, axis: int) -> np.ndarray:
        m = self.mask
        up1, dn1, up2, dn2 = _neighbours(m, axis)
        code = np.full(self.shape, _NONE, dtype=np.int8)
        code[m & up1 & dn1] = _CENTERED
        fwd = m & (code == _NONE) & up1 & up2
        code[fwd] = _FORWARD
        bwd = m & (code == _NONE) & dn1 & dn2
        code[bwd] = _BACKWARD
        return code

    def contains(self, x, y) -> np.ndarray:
        """Geometric membership test for the masked region (not node snapping)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = x * x + y * y <= (1.0 - self.margin) ** 2 + 1e-12
        for z in self.zones:
            inside &= ~z.excludes(x, y)
        return inside

    def interior_mask(self, radius: int = 2) -> np.ndarray:
        """Nodes whose full L-inf neighbourhood of `radius` lattice steps is masked in.

        On such nodes every difference involved in residual assembly is a
        centered stencil; convergence ratios are measured here because the
        one-sided edge set jitters as h changes.
        """
        ok = self.mask.copy()
        for ax in (0, 1):
            for k in range(1, radius + 1):
                ok &= np.roll(self.mask, k, ax) & np.roll(self.mask, -k, ax)
        return ok

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        ii, jj = self._node_idx
        return self.X[ii, jj], self.Y[ii, jj]

    def node_values(self, data: np.ndarray) -> np.ndarray:
        ii, jj = self._node_idx
        return data[ii, jj]

    def on_mask(self, f: Callable, what: str = "closed form"):
        """f(x, y) with the masked node coordinates as 1-d arrays.

        A division by zero, invalid operation or overflow raises ValueError
        naming `what`; nodes off the mask are never evaluated.
        """
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                return f(self.X[self.mask], self.Y[self.mask])
            except FloatingPointError as exc:
                raise ValueError(f"{what} is not finite on the mask: {exc}") from None

    def sample(self, f: Callable) -> tuple["ScalarField", ...]:
        """Evaluate a closed form f(x, y) on the masked nodes, one field per output.

        f returns one value or a tuple of values (arrays over the masked
        nodes, or scalars); see `on_mask` for the floating-point policy.
        Off-mask entries are zero.
        """
        out = self.on_mask(f)
        return tuple(self.scatter(v) for v in (out if isinstance(out, tuple) else (out,)))

    def scatter(self, values) -> "ScalarField":
        """The field holding `values` on the masked nodes (in mask order), zero elsewhere."""
        data = np.zeros(self.shape)
        data[self.mask] = values
        return ScalarField(self, data)

    def field(self, values) -> "ScalarField":
        """Build a field from a constant, a full 2-d array, or a callable f(x, y)."""
        if callable(values):
            (f,) = self.sample(values)
            return f
        data = np.broadcast_to(np.asarray(values, dtype=float), self.shape).copy()
        np.copyto(data, 0.0, where=self._off_mask)
        return ScalarField(self, data)

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.shape))


def build_disc_grid(h: float, margin: float | None = None,
                    zones: Iterable[ExclusionZone] = ()) -> DiscGrid:
    """Build the masked lattice.

    margin defaults to 2h so that the retained nodes sit at least two cells
    inside the unit circle.  Nodes that cannot host any second-order stencil
    on some axis are pruned until the mask is self-consistent.
    """
    if not 0 < h < 1:
        raise ValueError("grid spacing must satisfy 0 < h < 1")
    side = 2.0 / h + 5.0  # lattice points per axis, bounded before any allocation
    if side * side > _MAX_LATTICE_POINTS:
        raise ValueError(f"grid spacing {h:g} needs about {side * side:.3g} lattice "
                         f"points, more than the limit of {_MAX_LATTICE_POINTS}")
    if margin is None:
        margin = 2.0 * h
    if not 0 <= margin < 1:
        raise ValueError("mask margin must satisfy 0 <= margin < 1")
    zones = tuple(zones)

    m_half = int(math.floor(1.0 / h)) + 2  # two padding rings outside the disc
    idx = np.arange(-m_half, m_half + 1)
    coords = idx * h
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    mask = X * X + Y * Y <= (1.0 - margin) ** 2 + 1e-12
    for z in zones:
        mask &= ~z.excludes(X, Y)

    # prune nodes with no usable stencil on some axis, to a fixed point
    while True:
        ok = mask.copy()
        for ax in (0, 1):
            up1, dn1, up2, dn2 = _neighbours(mask, ax)
            ok &= (up1 & dn1) | (up1 & up2) | (dn1 & dn2)
        if np.array_equal(ok, mask):
            break
        mask = ok

    if mask.sum() < 9:
        raise ValueError("grid too coarse")
    return DiscGrid(h, margin, zones, mask, coords)


class ScalarField:
    """One value per grid node.  Immutable by convention; operators copy."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: DiscGrid, data: np.ndarray):
        if data.shape != grid.shape:
            raise ValueError("field shape does not match grid")
        if not np.isfinite(data).all() and not np.isfinite(data[grid.mask]).all():
            raise ValueError("field contains non-finite values on the mask")
        self.grid = grid
        self.data = data

    def max_norm(self) -> float:
        return float(np.abs(self.data[self.grid.mask]).max())

    def l2_norm(self) -> float:
        v = self.data[self.grid.mask]
        return float(math.sqrt(float((v * v).sum()) * self.grid.h**2))

    def partial(self, axis: int) -> "ScalarField":
        return partial(self, axis)

    def _wrap(self, data) -> "ScalarField":
        """A fresh operator result as a field, zeroed off the mask in place."""
        np.copyto(data, 0.0, where=self.grid._off_mask)
        return ScalarField(self.grid, data)

    def __add__(self, other):
        return self._wrap(self.data + _data_of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.data - _data_of(other))

    def __rsub__(self, other):
        return self._wrap(_data_of(other) - self.data)

    def __mul__(self, other):
        return self._wrap(self.data * _data_of(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.data)


def _data_of(x):
    return x.data if isinstance(x, ScalarField) else x


class AngleField:
    """An angle sheet stored as its (cos, sin) unit pair.

    The scalar angle is branch-ambiguous on the annulus, so it is never
    stored; d(angle)/dt^a is assembled as c*ds - s*dc, which is branch-free.
    """

    __slots__ = ("grid", "c", "s")

    def __init__(self, c: ScalarField, s: ScalarField):
        if c.grid is not s.grid:
            raise ValueError("cos/sin sheets live on different grids")
        norm = c.data**2 + s.data**2
        bad = np.abs(norm[c.grid.mask] - 1.0) > 1e-12
        if bad.any():
            raise ValueError("angle pair is not unit-norm on the mask")
        self.grid = c.grid
        self.c = c
        self.s = s

    def partial(self, axis: int) -> ScalarField:
        return self.c * partial(self.s, axis) - self.s * partial(self.c, axis)


def partial(f: ScalarField, axis: int) -> ScalarField:
    """Second-order d/dt^axis, axis 1 -> x, axis 2 -> y.

    Centered on interior nodes, one-sided second-order at the mask edge;
    exact for polynomials of degree <= 2 along the axis.  Only masked
    entries of f reach the result: the centered pass also differences
    off-mask entries (which may be non-finite), but those results are
    overwritten or zeroed, so their floating-point errors are ignored.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 (x) or 2 (y)")
    g = f.grid
    ax = axis - 1
    a = f.data
    two_h = 2.0 * g.h
    out = np.empty(g.shape)
    if ax == 0:
        hi, lo, inner = a[2:], a[:-2], out[1:-1]
    else:
        hi, lo, inner = a[:, 2:], a[:, :-2], out[:, 1:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(hi, lo, out=inner)
        inner /= two_h
    flat, res = a.reshape(-1), out.reshape(-1)
    step = g.shape[1] if ax == 0 else 1
    fw, bw = g._edges[ax]
    res[fw] = (-3.0 * flat[fw] + 4.0 * flat[fw + step] - flat[fw + 2 * step]) / two_h
    res[bw] = (3.0 * flat[bw] - 4.0 * flat[bw - step] + flat[bw - 2 * step]) / two_h
    np.copyto(out, 0.0, where=g._off_mask)
    return ScalarField(g, out)


def boundary_samples(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of m equally spaced points theta_k = 2 pi k / m on S^1.

    On the unit circle these are also the outward normals; each sample
    carries the quadrature weight 2 pi / m.
    """
    if m < 1:
        raise ValueError("need at least one boundary sample")
    th = 2.0 * math.pi * np.arange(m) / m
    return np.cos(th), np.sin(th)


def line_integral(grid: DiscGrid, sampler: Callable, path: Sequence[tuple[float, float]],
                  step: float | None = None) -> float:
    """Midpoint-rule integral of v . dl along a polyline inside the mask.

    `sampler(x, y)` returns the two components of v (array-capable).
    Each segment is subdivided to pieces no longer than `step` (default: h).
    """
    pts = [tuple(map(float, p)) for p in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two vertices")
    for (px, py) in pts:
        if not bool(grid.contains(px, py)):
            raise ValueError("path leaves domain")
    if step is None:
        step = grid.h
    total = 0.0
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        if length == 0.0:
            continue
        n = max(1, int(math.ceil(length / step)))
        t = (np.arange(n) + 0.5) / n
        xm = x0 + (x1 - x0) * t
        ym = y0 + (y1 - y0) * t
        vx, vy = sampler(xm, ym)
        total += float(((x1 - x0) * np.asarray(vx) + (y1 - y0) * np.asarray(vy)).sum()) / n
    return total


def write_csv(path, grid: DiscGrid, columns: dict[str, ScalarField]) -> None:
    """Write node fields as CSV with 17 significant digits.

    Header is x,y,<names>; rows are ordered row-major by j then i so two
    runs with the same config are byte-identical.  Rows are formatted a
    block at a time, so only one block is ever held as Python floats.
    """
    xs, ys = grid.node_coordinates()
    cols = [xs, ys] + [grid.node_values(f.data) for f in columns.values()]
    header = "x,y," + ",".join(columns)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(xs), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
