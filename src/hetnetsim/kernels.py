"""Vectorized inner loops of the slot pipeline, in plain numpy.

Callers look these up as ``kernels.NAME`` at call time, so an
instrumented run can wrap them here.  ``USING_NUMBA`` stays False: there
is one backend, and tools that report the environment read the flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

USING_NUMBA = False


@dataclass(frozen=True)
class DiscIndex:
    """Per grid cell, the discs whose box, padded to radius * (1 + 1e-9),
    reaches it; one empty cell if there are no discs.  containing_disc
    reads the table one depth column at a time, so a query of n points
    takes O(n + cells * depth) memory."""

    cx: np.ndarray       # (m + 1,) centres, then one at infinity
    cy: np.ndarray
    radius: float
    x0: float            # grid origin and cell side
    y0: float
    w: float
    gx: int              # cells per row and column
    gy: int
    table: np.ndarray    # (gx * gy, depth); m marks an empty slot

    @property
    def m(self) -> int:
        return self.cx.shape[0] - 1


def _cell(q, origin, w):
    """Grid coordinate of q, unclipped; monotone in q, as each step is."""
    return np.floor((q - origin) / w).astype(np.intp)


def disc_index(cx, cy, radius) -> DiscIndex:
    """List each of m discs of ``radius > 0`` in every grid cell that its
    bounding box, padded to ``pad = radius * (1 + 1e-9)``, reaches.

    A point the strict test puts in a disc has |px - cx| < radius: exactly,
    or, where px - cx rounds (both within 2 radius of 0), up to a rounding
    the padding covers.  So px lies between the rounded padded bounds,
    and _cell, being monotone, puts it between their cells: its cell lists
    every disc that can contain it.  The origin sits 2 radius below the
    lowest centre, so no bound falls below cell 0.  The cell side w >=
    radius grows with the centres' spread, keeping the grid near 4m cells;
    depth, the most discs one cell lists, is a handful in the coe and udc
    layouts, whose picos are 2 radius or more apart.
    """
    m = cx.shape[0]
    if m == 0:
        inf = np.array([np.inf])
        return DiscIndex(inf, inf, radius, 0.0, 0.0, 1.0, 1, 1, np.zeros((1, 1), np.intp))
    pad = radius * (1.0 + 1e-9)
    x0, y0 = cx.min() - 2.0 * radius, cy.min() - 2.0 * radius
    w = max(radius, max(cx.max() - x0, cy.max() - y0) / math.ceil(math.sqrt(4 * m)))
    lo_x, hi_x = _cell(cx - pad, x0, w), _cell(cx + pad, x0, w)
    lo_y, hi_y = _cell(cy - pad, y0, w), _cell(cy + pad, y0, w)
    gx, gy = int(hi_x.max()) + 1, int(hi_y.max()) + 1
    # (m, k, k) cells of each box, masked past its extent
    k = np.arange(max((hi_x - lo_x).max(), (hi_y - lo_y).max()) + 1)
    ix, iy = lo_x[:, None, None] + k, lo_y[:, None, None] + k[:, None]
    in_box = (ix <= hi_x[:, None, None]) & (iy <= hi_y[:, None, None])
    disc = np.nonzero(in_box)[0]
    cell = (iy * gx + ix)[in_box]
    order = np.argsort(cell, kind="stable")
    per_cell = np.bincount(cell, minlength=gx * gy)
    first = (np.cumsum(per_cell) - per_cell)[cell[order]]
    table = np.full((gx * gy, per_cell.max()), m, dtype=np.intp)
    table[cell[order], np.arange(cell.size) - first] = disc[order]
    return DiscIndex(np.append(cx, np.inf), np.append(cy, np.inf), radius,
                     x0, y0, w, gx, gy, table)


def containing_disc(px, py, index: DiscIndex):
    """Per point: index of the disc of the index that strictly contains it
    (``dx*dx + dy*dy < radius*radius``, ``dx = px - cx``), -1 if none.
    Where discs overlap, the lowest index wins.

    Each point tests only the discs its own cell lists; as the floor of a
    padded bound is monotone, any that contains it is there (disc_index).
    The table is read one depth column at a time: each column gives every
    point one candidate, and a running minimum keeps the lowest hit, so
    memory is O(n + cells * depth).
    """
    # off the grid, a point lies past every box: its edge cell lists no hit
    ix = np.clip(_cell(px, index.x0, index.w), 0, index.gx - 1)
    iy = np.clip(_cell(py, index.y0, index.w), 0, index.gy - 1)
    cell = iy * index.gx + ix
    r2 = index.radius * index.radius

    def hits(column):
        # one candidate per point; empty slots point at the centre at infinity
        cand = column.take(cell)
        dx = px - index.cx.take(cand)
        dy = py - index.cy.take(cand)
        dx *= dx
        dx += np.square(dy, out=dy)
        return np.where(dx < r2, cand, index.m)

    first_hit = reduce(np.minimum, map(hits, index.table.T))
    return np.where(first_hit < index.m, first_hit, -1).astype(np.int64, copy=False)


def link_capacity(
    dist_m,
    shadow_db,
    pico_link: bool,
    bandwidth_hz,
    eirp_macro_dbm,
    eirp_pico_dbm,
    noise_dbm,
    min_distance_m,
):
    """Shannon capacity of links of one tier: the pico path-loss law and
    EIRP if pico_link, else the macro ones.

    eirp_* = tx power + antenna gains in dBm; shadow_db is already scaled
    by the serving tier's sigma.
    """
    d = np.maximum(dist_m, min_distance_m) / 1000.0
    log_d = np.log10(d)
    if pico_link:
        pl, eirp = 128.1 + 37.6 * log_d, eirp_pico_dbm
    else:
        pl, eirp = 140.7 + 36.7 * log_d, eirp_macro_dbm
    snr_db = eirp - pl + shadow_db - noise_dbm
    snr = 10.0 ** (snr_db / 10.0)
    return bandwidth_hz * np.log2(1.0 + snr)


def advance_positions(px, py, dx, dy, vx, vy, speed):
    """One movement step: pos += vel, then snap to the destination when the
    remaining gap is within one step.  Returns the arrival mask."""
    px += vx
    py += vy
    gx = dx - px
    gy = dy - py
    arrived = gx * gx + gy * gy <= speed * speed
    px[arrived] = dx[arrived]
    py[arrived] = dy[arrived]
    return arrived
