"""Vectorized inner loops of the slot pipeline, in plain numpy.

Callers look these up as ``kernels.NAME`` at call time, so an
instrumented run can wrap them here.  ``USING_NUMBA`` stays False: there
is one backend, and tools that report the environment read the flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

USING_NUMBA = False


@dataclass(frozen=True)
class DiscIndex:
    """Disc centres bucketed into a uniform grid, built by disc_index.  An
    index of no discs has no grid: containing_disc answers -1 without one."""

    cx: np.ndarray       # (m + 1,) centres, then one at infinity
    cy: np.ndarray
    radius: float
    x0: float = 0.0      # grid origin and cell side
    y0: float = 0.0
    w: float = 0.0
    gx: int = 0          # cells per row and column, without the ring
    gy: int = 0
    table: Optional[np.ndarray] = None  # (cells, depth); m marks an empty slot
    block: Optional[np.ndarray] = None  # (9,) cell offsets of a 3x3 block

    @property
    def m(self) -> int:
        return self.cx.shape[0] - 1


def disc_index(cx, cy, radius) -> DiscIndex:
    """Bucket the centres of m discs of ``radius > 0`` for containing_disc.

    The centres go into a grid of square cells of side w > radius, so the
    centre of a containing disc lies in the 3x3 block of cells around the
    point.  w also grows with the centres' spread, which keeps the grid
    near 4m cells for any radius.  The table takes O(m * depth), depth
    being the most centres in one cell: 1 or 2 in the coe and udc layouts,
    whose picos are 2r or more apart.
    """
    m = cx.shape[0]
    inf = np.array([np.inf])
    if m == 0:
        return DiscIndex(inf, inf, radius)
    x0, y0 = cx.min(), cy.min()
    span = max(cx.max() - x0, cy.max() - y0)
    # the margin above radius keeps rounding in the cell coordinates from
    # putting a containing centre two cells away
    w = max(radius, span / math.ceil(math.sqrt(4 * m))) * (1.0 + 1e-9)
    ccx = np.floor((cx - x0) / w).astype(np.intp)
    ccy = np.floor((cy - y0) / w).astype(np.intp)
    gx, gy = ccx.max() + 1, ccy.max() + 1
    # a ring of empty cells around the grid holds every point's 3x3 block
    stride = gx + 2
    cell = (ccy + 1) * stride + ccx + 1
    order = np.argsort(cell, kind="stable")
    by_cell = cell[order]
    per_cell = np.bincount(cell, minlength=(gy + 2) * stride)
    first = np.cumsum(per_cell) - per_cell
    table = np.full((per_cell.size, per_cell.max()), m, dtype=np.intp)
    table[by_cell, np.arange(m) - first[by_cell]] = order
    block = (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
    return DiscIndex(np.append(cx, inf), np.append(cy, inf), radius,
                     x0, y0, w, int(gx), int(gy), table, block)


def containing_disc(px, py, index: DiscIndex):
    """Per point: index of the disc of the index that strictly contains it
    (``dx*dx + dy*dy < radius*radius``, ``dx = px - cx``), -1 if none.
    Where discs overlap, the lowest index wins.

    Each point tests only the centres in the 3x3 block of cells around it.
    Memory is O(n * depth + m).
    """
    containing = np.full(px.shape[0], -1, dtype=np.int64)
    m = index.m
    if m == 0:
        return containing
    # points off the grid take the nearest edge cell: its block still holds
    # every centre within one cell of them
    ix = np.clip(np.floor((px - index.x0) / index.w), 0, index.gx - 1).astype(np.intp)
    iy = np.clip(np.floor((py - index.y0) / index.w), 0, index.gy - 1).astype(np.intp)
    cand = index.table[((iy + 1) * (index.gx + 2) + ix + 1)[:, None] + index.block]
    # (n, 9, depth); empty slots point at the centre at infinity, which
    # contains nothing
    dx = px[:, None, None] - index.cx[cand]
    dy = py[:, None, None] - index.cy[cand]
    inside = dx * dx + dy * dy < index.radius * index.radius
    first_hit = np.where(inside, cand, m).min(axis=(1, 2))
    hit = first_hit < m
    containing[hit] = first_hit[hit]
    return containing


def link_capacity(
    dist_m,
    shadow_db,
    pico_link,
    bandwidth_hz,
    eirp_macro_dbm,
    eirp_pico_dbm,
    noise_dbm,
    min_distance_m,
):
    """Shannon capacity per link, macro/pico path-loss law chosen per entry.

    eirp_* = tx power + antenna gains in dBm; shadow_db is already scaled
    by the serving tier's sigma.
    """
    d = np.maximum(dist_m, min_distance_m) / 1000.0
    log_d = np.log10(d)
    pl = np.where(pico_link, 128.1 + 37.6 * log_d, 140.7 + 36.7 * log_d)
    eirp = np.where(pico_link, eirp_pico_dbm, eirp_macro_dbm)
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
