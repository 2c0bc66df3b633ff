"""Masked Cartesian grid on the unit disc with second-order difference operators.

The grid is a uniform lattice (x, y) = (i*h, j*h) clipped to the disc
x^2 + y^2 <= (1 - 2h)^2, optionally minus exclusion bands around the
axes or the origin (needed by solution families with 1/x, 1/y or log
singularities).  First derivatives use centered stencils wherever both
neighbours exist and one-sided second-order stencils at the mask edge, so
everything stays O(h^2).  Boundary data are never extrapolated from the
grid; the unit circle is sampled parametrically (`boundary_samples`).

A field is one float64 value per masked node, in `np.nonzero(mask)` order
(x index major), so nothing is stored off the mask.  The lattice (`mask`,
`X`, `Y`, `shape`) is only the geometry the nodes are taken from.  Each
axis's stencils are node taps built once, on first use: y-neighbours are
adjacent in node order, so the centered y difference is one subtraction of
two slices; the centered x difference gathers through two index vectors;
the one-sided stencils overwrite the edge nodes through index triples.

Residual norms (`banded_norms`) and export columns (`banded_columns`) are
taken by one band walk over bands of lattice columns, each a lattice of its
own with a halo that keeps its core's stencils exact, so the peak memory of
a check follows the band size rather than the node count; bands narrow as the
number of sheets a stream samples per band grows.

Closed forms f(x, y) reach the grid only through `DiscGrid.on_mask`, on the
node coordinates alone, so a formula may be singular anywhere off the mask.
Values are checked once, where they enter (`on_mask`, `DiscGrid.field`);
the band walk runs under `_raising`, and a `ScalarField` checks its shape only.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ExclusionZone",
    "DiscGrid",
    "ScalarField",
    "AngleField",
    "build_disc_grid",
    "partial",
    "boundary_samples",
    "banded_norms",
    "banded_columns",
    "write_csv",
]


def _finite_real(value) -> bool:
    """A finite real number that is not a bool (an int beyond float range is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _all_finite(out) -> bool:
    """Every value of a nest of tuples and lists of arrays or scalars is finite."""
    if isinstance(out, (tuple, list)):
        return all(map(_all_finite, out))
    return bool(np.isfinite(out).all())


@contextmanager
def _raising(message: str = "arithmetic out of float64 range ({})"):
    """numpy raises on division by zero, overflow and invalid operations, as ValueError(message)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ValueError(message.format(exc)) from None


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
        if not _finite_real(self.size) or self.size < 0:
            raise ValueError(f"exclusion zone size must be a finite number >= 0, "
                             f"got {self.size!r}")
        if self.kind == "origin":
            try:
                float(self.size)**2 - 1e-15  # the bound `excludes` compares, as a Python float
            except OverflowError:
                raise ValueError(f"origin zone size {self.size:g} is beyond float64 range "
                                 "when squared") from None

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

# Lattice columns per block of the disc test in build_disc_grid.
_DISC_BLOCK_COLUMNS = 64

# Rows per output block, and distinct values per formatting block, in write_csv.
_CSV_BLOCK_ROWS = 2048
_SPELL_BLOCK = 4096

# Most core nodes per band of a walk whose stream samples up to
# `_BAND_SHEETS` node-sized sheets per band (see `_band_size`), and the
# columns each band carries beyond its core on either side: every stencil
# reads at most two columns to each side, so two nested x-derivatives reach
# four.  Beyond its halo a band's lattice has two empty columns on either
# side, as the whole lattice has its two padding rings, so no neighbour
# lookup leaves it.
_BAND_NODES = 32768
_BAND_SHEETS = 3
_HALO_COLUMNS = 4
_PAD_COLUMNS = 2
# Most values per sum of squares in `banded_norms`; band cores are cut
# between such ranges.
_SUM_LEAF_NODES = 4096


class DiscGrid:
    """Unit-disc lattice, its masked nodes, and the stencil taps of each axis.

    Not meant to be constructed directly; use :func:`build_disc_grid`.
    """

    def __init__(self, h: float, mask: np.ndarray, lattice_x: np.ndarray, lattice_y: np.ndarray):
        self.h = float(h)
        self.mask = mask
        # 1-d coordinates of the lattice columns (x) and rows (y)
        self.lattice_x, self.lattice_y = lattice_x, lattice_y
        self.shape = mask.shape
        self.n_nodes = int(np.count_nonzero(mask))

    # Node coordinates, stencil taps and the interior mask are built on first
    # use: a grid that is only split into bands (see `band`) never needs its own.
    @cached_property
    def _nodes(self):
        """(x, y, x taps, edge taps, interior) from one lookup of the node neighbours.

        x and y are the node coordinates.  A node is centered on an axis if
        both neighbours are nodes, else forward if the two above are, else
        backward (pruning leaves no other case); the one-sided ones are kept
        with their two taps inward, ((fw, fw+1, fw+2), (bw, bw-1, bw-2)) in
        axis steps, one pair per axis: the stencil taps of `partial`.
        Centered x taps are kept for every node, a one-sided node tapping
        itself twice (a zero its edge stencil overwrites); y needs none, its
        neighbours being the adjacent nodes.  `interior` is `interior_mask`.

        Neighbours are looked up in a flat lattice -> node map, where an axis
        step is a fixed offset of the flat lattice index.  The map dies when
        this returns, and the taps are the `intp` lookups themselves, which
        `partial` gathers with as they are.
        """
        stride = self.shape[1]
        flat = np.flatnonzero(self.mask)
        x, y = self.lattice_x[flat // stride], self.lattice_y[flat % stride]
        node = np.full(self.mask.size, -1, dtype=np.intp)  # lattice point -> node, or -1
        node[flat] = np.arange(self.n_nodes)
        interior = np.ones(self.n_nodes, dtype=bool)
        edge_taps = []
        for step in (stride, 1):  # one x step, then one y step
            up1, dn1, up2, dn2 = (node[flat + d] for d in (step, -step, 2 * step, -2 * step))
            centered = (up1 >= 0) & (dn1 >= 0)
            interior &= centered & (up2 >= 0) & (dn2 >= 0)
            forward = ~centered & (up1 >= 0) & (up2 >= 0)
            fw, bw = np.flatnonzero(forward), np.flatnonzero(~centered & ~forward)
            edge_taps.append(((fw, up1[fw], up2[fw]), (bw, dn1[bw], dn2[bw])))
            if step == stride:
                one_sided = np.flatnonzero(~centered)
                up1[one_sided] = dn1[one_sided] = one_sided
                x_taps = (up1, dn1)
        # read-only, since closed forms and callers receive them as is
        x.flags.writeable = y.flags.writeable = interior.flags.writeable = False
        return x, y, x_taps, edge_taps, interior

    x = property(lambda self: self._nodes[0])
    y = property(lambda self: self._nodes[1])

    # the lattice coordinates, as read-only views of shape `shape`
    X = property(lambda self: np.broadcast_to(self.lattice_x[:, None], self.shape))
    Y = property(lambda self: np.broadcast_to(self.lattice_y[None, :], self.shape))

    def interior_mask(self, radius: int = 2) -> np.ndarray:
        """Per node: True if every lattice point within two axis steps is a node.

        On such nodes every difference involved in residual assembly is a
        centered stencil; convergence ratios are measured here because the
        one-sided edge set jitters as h changes.  Two steps, the reach of
        the stencils, is the only radius.
        """
        if radius != 2:
            raise ValueError(f"interior_mask takes radius 2 only, got {radius!r}")
        return self._nodes[4]

    @cached_property
    def _column_starts(self) -> np.ndarray:
        """The first node of each lattice column, and the node count last."""
        return np.concatenate(([0], np.cumsum(np.count_nonzero(self.mask, axis=1))))

    def band(self, lo: int, hi: int) -> tuple["DiscGrid", slice]:
        """The grid on the lattice columns that hold nodes lo..hi-1, plus halo.

        Returns (band, core): `band` holds every node of those columns and of
        `_HALO_COLUMNS` more on either side; `core` is the slice of its nodes
        that are nodes lo..hi-1 here.  The band's lattice is those columns
        and `_PAD_COLUMNS` empty ones on either side, so its mask, node map
        and taps are sized by the band, not by the grid.  Near its ends a
        band's stencil taps differ from the grid's, but not within
        `_HALO_COLUMNS` columns of them: a result built node by node from
        closed forms with at most two nested x-derivatives has the same
        value, bit for bit, on a core node as on the whole grid.  The whole
        node range is the grid itself.
        """
        if lo == 0 and hi == self.n_nodes:
            return self, slice(None)
        starts = self._column_starts
        c0 = max(int(np.searchsorted(starts, lo, "right")) - 1 - _HALO_COLUMNS, 0)
        c1 = min(int(np.searchsorted(starts, hi - 1, "right")) + _HALO_COLUMNS, self.shape[0])
        # the grid's own two empty columns pad a band at the lattice's ends
        p0, p1 = max(c0 - _PAD_COLUMNS, 0), min(c1 + _PAD_COLUMNS, self.shape[0])
        mask = np.zeros((p1 - p0, self.shape[1]), dtype=bool)
        mask[c0 - p0:c1 - p0] = self.mask[c0:c1]
        return (DiscGrid(self.h, mask, self.lattice_x[p0:p1], self.lattice_y),
                slice(int(lo - starts[c0]), int(hi - starts[c0])))

    def on_mask(self, f: Callable, what: str = "closed form"):
        """f(x, y) with the node coordinates as 1-d arrays.

        f returns a value or a nest of tuples and lists of them (arrays over the nodes, or
        scalars); a floating-point error or a non-finite value raises ValueError naming `what`.
        """
        with _raising(f"{what} is not finite on the mask: {{}}"):
            out = f(self.x, self.y)
        if not _all_finite(out):
            raise ValueError(f"{what} is not finite on the mask")
        return out

    def sample(self, f: Callable, what: str = "closed form") -> tuple["ScalarField", ...]:
        """A closed form f(x, y) returning one value or a tuple (see `on_mask`), one field
        per output; an array returned twice is kept by its first field, copied for the others."""
        out = self.on_mask(f, what)
        data = []
        for v in (out if isinstance(out, tuple) else (out,)):
            data.append(self._node_values(np.copy(v) if any(v is d for d in data) else v))
        return tuple(ScalarField(self, d) for d in data)

    def field(self, values) -> "ScalarField":
        """A field from a constant, a callable f(x, y) (see `sample`), or an array over
        the nodes or the lattice (restricted to the nodes), finite on the nodes.

        A writeable float64 node array that owns its data becomes the field's
        data; anything else (the read-only node coordinates, a view, a scalar) is copied.
        """
        if callable(values):
            (f,) = self.sample(values)
            return f
        data = self._node_values(values)
        if not np.isfinite(data).all():
            raise ValueError("field contains non-finite values on the mask")
        return ScalarField(self, data)

    def _node_values(self, values) -> np.ndarray:
        data = np.asarray(values, dtype=float)
        if data.shape == self.shape:
            data = data[self.mask]
        if not (data.shape == (self.n_nodes,) and data.flags.owndata and data.flags.writeable):
            data = np.broadcast_to(data, (self.n_nodes,)).copy()
        return data

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.n_nodes))


def _check_spacing(h: float) -> None:
    """Refuse h outside (0, 1), or a lattice at h over the budget, before any allocation."""
    if not 0 < h < 1:
        raise ValueError("grid spacing must satisfy 0 < h < 1")
    side = 2.0 / h + 5.0  # lattice points per axis, bounded before any allocation
    if side * side > _MAX_LATTICE_POINTS:
        raise ValueError(f"grid spacing {h:g} needs about {side * side:.3g} lattice "
                         f"points, more than the limit of {_MAX_LATTICE_POINTS}")


def _disc(coords: np.ndarray, r2: float, zones: Iterable[ExclusionZone]) -> np.ndarray:
    """The lattice points (x, y) of `coords` x `coords` with x^2 + y^2 <= r2
    that no zone excludes, tested a block of lattice columns at a time, so
    no lattice-sized float array is made."""
    zones = tuple(zones)
    mask = np.empty((coords.size, coords.size), dtype=bool)
    Y = coords[None, :]
    for i in range(0, coords.size, _DISC_BLOCK_COLUMNS):
        X, block = coords[i:i + _DISC_BLOCK_COLUMNS, None], mask[i:i + _DISC_BLOCK_COLUMNS]
        np.less_equal(X * X + Y * Y, r2, out=block)
        for z in zones:
            block &= ~z.excludes(X, Y)
    return mask


def _pruned(mask: np.ndarray) -> np.ndarray:
    """`mask` less the points with no second-order stencil on some axis:
    neither both neighbours nor two on one side are in `mask`.

    The two padding rings hold no node, so only the points inside them are
    tested, each axis through slices of the mask.
    """
    ok = mask.copy()
    for m, o in ((mask, ok), (mask.T, ok.T)):  # along x, then along y
        up1, dn1, up2, dn2 = m[3:-1], m[1:-3], m[4:], m[:-4]
        usable = up1 & dn1
        usable |= up1 & up2
        usable |= dn1 & dn2
        o[2:-2] &= usable
        del usable  # not alive while the next axis makes its own
    return ok


def build_disc_grid(h: float, zones: Iterable[ExclusionZone] = ()) -> DiscGrid:
    """Build the masked lattice on the disc of radius 1 - 2h, minus `zones`.

    The 2h margin keeps every node two cells inside the unit circle (from
    h = 1/2 on it leaves the origin at most: "grid too coarse").  Nodes that
    cannot host any second-order stencil on some axis are pruned until the
    mask is self-consistent.
    """
    _check_spacing(h)

    m_half = int(math.floor(1.0 / h)) + 2  # two padding rings outside the disc
    coords = np.arange(-m_half, m_half + 1) * h
    mask = _disc(coords, (1.0 - 2.0 * h) ** 2 + 1e-12, zones)
    # prune nodes with no usable stencil on some axis, to a fixed point
    while True:
        ok = _pruned(mask)
        if np.count_nonzero(ok) == np.count_nonzero(mask):  # ok is a subset of mask
            break
        mask = ok

    if mask.sum() < 9:
        raise ValueError("grid too coarse")
    return DiscGrid(h, mask, coords, coords)


class ScalarField:
    """One value per masked node, in node order.  Immutable by convention; operators copy."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: DiscGrid, data: np.ndarray):
        if data.shape != (grid.n_nodes,):
            raise ValueError("field shape does not match grid")
        self.grid = grid
        self.data = data

    def max_norm(self) -> float:
        return float(np.abs(self.data).max())

    def l2_norm(self) -> float:
        v = self.data
        return float(math.sqrt(float((v * v).sum()) * self.grid.h**2))

    def partial(self, axis: int) -> "ScalarField":
        return partial(self, axis)

    def __add__(self, other):
        return ScalarField(self.grid, self.data + _data_of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.data - _data_of(other))

    def __mul__(self, other):
        return ScalarField(self.grid, self.data * _data_of(other))

    __rmul__ = __mul__


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
        if (np.abs(c.data**2 + s.data**2 - 1.0) > 1e-12).any():
            raise ValueError("angle pair is not unit-norm on the mask")
        self.grid = c.grid
        self.c = c
        self.s = s

    def partial(self, axis: int) -> ScalarField:
        """c*ds - s*dc, built in place in two arrays (ds*c is c*ds bit for bit)."""
        out = partial(self.s, axis).data
        out *= self.c.data
        term = partial(self.c, axis).data
        term *= self.s.data
        out -= term
        return ScalarField(self.grid, out)


def partial(f: ScalarField, axis: int) -> ScalarField:
    """Second-order d/dt^axis, axis 1 -> x, axis 2 -> y.

    Centered on interior nodes, one-sided second-order at the mask edge;
    exact for polynomials of degree <= 2 along the axis.  The centered pass
    runs over every node and the edge stencils then overwrite the one-sided
    nodes (node 0 is y-forward and the last node y-backward, so the slices
    always leave them to the edge pass).
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 (x) or 2 (y)")
    g = f.grid
    v = f.data
    two_h = 2.0 * g.h
    out = np.empty(g.n_nodes)
    if axis == 1:
        up, dn = g._nodes[2]
        np.subtract(v[up], v[dn], out=out)
        out /= two_h
    else:
        inner = out[1:-1]
        np.subtract(v[2:], v[:-2], out=inner)
        inner /= two_h
    (fw, fw1, fw2), (bw, bw1, bw2) = g._nodes[3][axis - 1]
    out[fw] = (-3.0 * v[fw] + 4.0 * v[fw1] - v[fw2]) / two_h
    out[bw] = (3.0 * v[bw] - 4.0 * v[bw1] + v[bw2]) / two_h
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


def _pairwise(lo: int, n: int, size: int, leaf: Callable):
    """numpy's pairwise sum over lo..lo+n-1 down to ranges of at most `size` values
    (at least 128, the block numpy never splits): `leaf(start, stop)` of such a range,
    else the sum of its halves', the first n/2 rounded down to a multiple of 8."""
    if n <= size:
        return leaf(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, half, size, leaf) + _pairwise(lo + half, n - half, size, leaf)


def _band_size(sheets: int) -> tuple[int, int]:
    """(most core nodes per band, most values per leaf sum) of a walk whose stream
    samples `sheets` node-sized sheets per band.

    A band holds `_BAND_NODES` nodes for up to `_BAND_SHEETS` sheets (the
    plastic states), and proportionally fewer for more, so the sampled sheets
    take about as much memory as `_BAND_SHEETS` of them do, but never fewer
    than `_BAND_NODES // 2` nodes: the halo's share of a band, and its cost,
    grow as the band narrows.  A leaf is never longer than a band, so a band
    holds whole leaves; with `_BAND_NODES` >= 256 neither is shorter than 128
    values, the block numpy never splits.
    """
    band = max(_BAND_NODES * _BAND_SHEETS // max(sheets, _BAND_SHEETS), _BAND_NODES // 2)
    return band, min(_SUM_LEAF_NODES, band)


def bands(grid: DiscGrid, sheets: int = _BAND_SHEETS):
    """The bands a walk over `grid` takes: (leaves, band, core) for each, in node order.

    `band, core = grid.band(lo, hi)` for a node range lo..hi-1 no longer than the
    band size of a stream that samples `sheets` sheets per band (`_band_size`), cut
    between the ranges over which numpy's pairwise sum over the grid's nodes takes
    its leaf sums; `leaves` lists those ranges as (start, stop) node numbers, from
    lo to hi.
    """
    band_nodes, leaf_nodes = _band_size(sheets)
    leaves = _pairwise(0, grid.n_nodes, leaf_nodes, lambda start, stop: [(start, stop)])
    while leaves:
        k = sum(stop - leaves[0][0] <= band_nodes for _, stop in leaves)  # stops increase
        cut, leaves = leaves[:k], leaves[k:]
        yield (cut, *grid.band(cut[0][0], cut[-1][1]))


def _walk(grid: DiscGrid, stream: Callable, take: Callable, sheets: int = _BAND_SHEETS):
    """The band walk: `take(leaves, name, core values)` for each (name, field) pair
    `stream(band)` yields, over `bands(grid, sheets)`, under `_raising`.  A stream
    builds fields `DiscGrid.band` keeps exact, the same names in the same order on
    every band."""
    with _raising():
        for cut, band, core in bands(grid, sheets):
            for name, f in stream(band):
                take(cut, name, f.data[core])
                del f  # dead before the stream computes the next field


def banded_norms(grid: DiscGrid, residuals: Callable[[DiscGrid], Iterable[tuple[str, ScalarField]]],
                 sheets: int = _BAND_SHEETS) -> dict[str, tuple[float, float]]:
    """{name: (max norm, l2 norm)} of the (name, field) pairs `residuals(band)` yields,
    a stream that samples `sheets` node-sized sheets per band.

    The walk folds each field into its max and leaf-range sums and drops it, so
    memory follows the band size (`_band_size`), not the node count.  Both norms
    equal `max_norm` and `l2_norm` on the whole grid bit for bit, sums added in
    numpy's order.
    """
    peak: dict[str, float] = {}
    leaf_sums: dict[tuple[str, int], float] = {}

    def fold(cut, name, v):
        peak[name] = max(peak.get(name, 0.0), float(np.abs(v).max()))
        for start, stop in cut:
            w = v[start - cut[0][0]:stop - cut[0][0]]
            leaf_sums[name, start] = float((w * w).sum())

    _walk(grid, residuals, fold, sheets)
    n, size = grid.n_nodes, _band_size(sheets)[1]
    return {name: (peak[name], math.sqrt(_pairwise(0, n, size, lambda s, _: leaf_sums[name, s])
                                         * grid.h**2)) for name in peak}


def banded_columns(grid: DiscGrid, columns: Callable[[DiscGrid], Iterable[tuple[str, ScalarField]]]):
    """(name, whole-grid values) of each name `columns(band)` yields, filled by
    the walk; all are computed before the first is yielded, none held after."""
    out: dict[str, np.ndarray] = defaultdict(lambda: np.empty(grid.n_nodes))

    def fill(cut, name, v):
        out[name][cut[0][0]:cut[-1][1]] = v

    _walk(grid, columns, fill)
    for name in list(out):
        yield name, out.pop(name)


def _spellings(values: np.ndarray) -> np.ndarray:
    """One row of 23 bytes per value: its `%.17g` spelling, space-padded to
    the longest spelling of a non-negative float64 (as in
    2.2250738585072014e-308); formatted `_SPELL_BLOCK` values at a time."""
    out = np.empty((len(values), 23), np.uint8)
    for start in range(0, len(values), _SPELL_BLOCK):
        chunk = values[start:start + _SPELL_BLOCK].tolist()
        text = ("%-23.17g" * len(chunk)) % tuple(chunk)
        out[start:start + len(chunk)] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 23)
    return out


def _encoded(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, picks) of a column: one CSV cell per distinct float64 bit pattern
    (so -0.0 stays apart from 0.0), and each value's int32 index into them.

    A cell is a void item of the column's own width: a sign slot (`-`, or a
    space; blank for a NaN, which Python spells `nan` whatever its sign bit),
    the `%.17g` spelling of the magnitude, space padding to the longest
    spelling, and a comma as the last byte (a row's last comma becomes its
    newline).  One argsort orders the bits rotated left by one, magnitude
    first and sign last, so v and -v are neighbours and each distinct
    magnitude is formatted once; `np.unique` would hold more node-sized
    arrays while it sorts."""
    bits = values.view(np.uint64)
    keys = bits << 1 | bits >> 63
    perm = np.argsort(keys)
    keys = keys[perm]
    new = np.concatenate(([True], keys[1:] != keys[:-1]))  # the first of each bit pattern
    picks = np.empty(len(keys), np.int32)
    picks[perm] = np.cumsum(new, dtype=np.int32) - 1
    del perm
    keys = keys[new]
    magnitudes = keys >> 1
    new = np.concatenate(([True], magnitudes[1:] != magnitudes[:-1]))  # and of each magnitude
    spellings = _spellings(magnitudes[new].view(np.float64))
    width = int((spellings != ord(" ")).any(axis=0).sum())  # spellings are left-aligned
    cells = np.empty((len(keys), width + 2), np.uint8)
    negative = (keys & 1).astype(bool) & ~np.isnan(magnitudes.view(np.float64))
    cells[:, 0] = np.where(negative, ord("-"), ord(" "))
    cells[:, 1:-1] = spellings[np.cumsum(new) - 1, :width]
    cells[:, -1] = ord(",")
    return cells.view(f"V{width + 2}").ravel(), picks


def write_csv(path, grid: DiscGrid,
              columns: dict[str, ScalarField] | Iterable[tuple[str, np.ndarray]]) -> None:
    """Write node fields as CSV with 17 significant digits.

    `columns` is a {name: field} dict, or (name, values) pairs with one
    float64 value per node.  Header is x,y,<names>; rows are ordered
    row-major by j then i (y, then x) so two runs with the same config are
    byte-identical.  Each column keeps one cell per distinct value
    (`_encoded`), x and y from the lattice coordinates of the nodes'
    columns and rows, and each distinct magnitude of a column is formatted
    once.  A block of rows is filled with one gather of cells per column,
    its rows' last commas become newlines, and its padding is stripped.
    A column's values are dropped here once it is encoded, so the pairs of
    a generator that holds none of them once yielded are alive one at a
    time.  The bytes are those of `%.17g` on every value.
    """
    if isinstance(columns, dict):
        columns = ((name, f.data) for name, f in columns.items())
    encoded = [(name, *_encoded(values)) for name, values in columns]
    i, j = np.divmod(np.flatnonzero(grid.mask), grid.shape[1])  # each node's column and row
    order = np.lexsort((i, j))
    (cells_x, x_at), (cells_y, y_at) = _encoded(grid.lattice_x), _encoded(grid.lattice_y)
    encoded = [("x", cells_x, x_at[i]), ("y", cells_y, y_at[j]), *encoded]
    del i, j
    for c, (name, cells, picks) in enumerate(encoded):
        encoded[c] = name, cells, picks[order]  # the unordered picks die one column at a time
    del order, picks
    ends = np.cumsum([cells.itemsize for _, cells, _ in encoded])
    with open(path, "wb") as fh:
        fh.write((",".join(name for name, _, _ in encoded) + "\n").encode())
        for start in range(0, grid.n_nodes, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, grid.n_nodes)
            block = np.empty((stop - start, ends[-1]), np.uint8)
            for end, (_, cells, picks) in zip(ends, encoded):
                # mode="clip" takes straight into the strided slot ("raise" buffers it)
                np.take(cells, picks[start:stop], mode="clip",
                        out=block[:, end - cells.itemsize:end].view(cells.dtype)[:, 0])
            block[:, -1] = ord("\n")  # the row's last comma
            fh.write(block.tobytes().translate(None, b" "))
