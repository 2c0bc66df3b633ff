import math

import numpy as np
import pytest

from bitime.grid import build_disc_grid


@pytest.fixture(scope="session")
def grid32():
    """Plain disc grid at h = 1/32 with the default 2h margin."""
    return build_disc_grid(1.0 / 32.0)


@pytest.fixture(scope="session")
def grid64():
    return build_disc_grid(1.0 / 64.0)


def reference_disc_mask(h, zones=()) -> np.ndarray:
    """`build_disc_grid`'s mask as it was first built: the disc test on the whole
    lattice at once, and pruning through np.roll copies of the mask."""
    m_half = int(math.floor(1.0 / h)) + 2
    coords = np.arange(-m_half, m_half + 1) * h
    X, Y = coords[:, None], coords[None, :]
    mask = X * X + Y * Y <= (1.0 - 2.0 * h) ** 2 + 1e-12
    for z in zones:
        mask &= ~z.excludes(X, Y)
    while True:
        ok = mask.copy()
        for ax in (0, 1):
            up1, dn1, up2, dn2 = (np.roll(mask, -k, axis=ax) for k in (1, -1, 2, -2))
            ok &= (up1 & dn1) | (up1 & up2) | (dn1 & dn2)
        if np.array_equal(ok, mask):
            return mask
        mask = ok


def line_integral(grid, sampler, path, zones=(), step=None) -> float:
    """Midpoint-rule integral of v . dl along a polyline inside the grid's region.

    The region is the disc of radius 1 - 2h minus `zones`, the zones the
    grid was built with.  `sampler(x, y)` returns the two components of v
    (array-capable).  Each segment is subdivided to pieces no longer than
    `step` (default: h).
    """
    pts = [tuple(map(float, p)) for p in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two vertices")
    for (px, py) in pts:
        if (px * px + py * py > (1.0 - 2.0 * grid.h) ** 2 + 1e-12
                or any(z.excludes(px, py) for z in zones)):
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


def node_index(grid, x, y) -> np.ndarray:
    """The node numbers of the points (x, y), which must be nodes of `grid`."""
    i = np.rint((x - grid.lattice_x[0]) / grid.h).astype(int)
    j = np.rint((y - grid.lattice_y[0]) / grid.h).astype(int)
    # nodes are in row-major lattice order, so their flat lattice indices are sorted
    return np.searchsorted(np.flatnonzero(grid.mask), np.ravel_multi_index((i, j), grid.shape))


def counted(sys, calls):
    """`sys` with each A_i and B evaluator adding its calls to `calls["A_i"]`, `calls["B"]`."""
    from bitime.systems import QuasiLinearSystem

    def wrap(fn, key):
        def evaluate(*args):
            calls[key] += 1
            return fn(*args)
        return evaluate

    return QuasiLinearSystem(a=tuple(wrap(f, f"A_{i}") for i, f in enumerate(sys.a, 1)),
                             b=wrap(sys.b, "B"))
