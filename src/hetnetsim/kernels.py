"""Vectorized inner loops of the slot pipeline, in plain numpy.

Callers look these up as ``kernels.NAME`` at call time, so an
instrumented run can wrap them here.  ``USING_NUMBA`` stays False: there
is one backend, and tools that report the environment read the flag.
"""

from __future__ import annotations

import math

import numpy as np

USING_NUMBA = False


def containing_disc(px, py, cx, cy, radius):
    """Per point: index of the disc of ``radius > 0`` that strictly contains
    it (``dx*dx + dy*dy < radius*radius``, ``dx = px - cx``), -1 if none.
    Where discs overlap, the lowest index wins.

    The centres go into a grid of square cells of side w > radius, so the
    centre of a containing disc lies in the 3x3 block of cells around the
    point, and each point tests only those candidates.  w also grows with
    the centres' spread, which keeps the grid near 4m cells for any radius.
    Memory is O(n * depth + m), depth being the most centres in one cell:
    1 or 2 in the coe and udc layouts, whose picos are 2r or more apart.
    """
    n = px.shape[0]
    m = cx.shape[0]
    containing = np.full(n, -1, dtype=np.int64)
    if m == 0:
        return containing
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
    # points off the grid take the nearest edge cell: its block still holds
    # every centre within one cell of them
    ix = np.clip(np.floor((px - x0) / w), 0, gx - 1).astype(np.intp)
    iy = np.clip(np.floor((py - y0) / w), 0, gy - 1).astype(np.intp)
    block = (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
    cand = table[((iy + 1) * stride + ix + 1)[:, None] + block]   # (n, 9, depth)
    # empty slots point at a centre at infinity, which contains nothing
    dx = px[:, None, None] - np.append(cx, np.inf)[cand]
    dy = py[:, None, None] - np.append(cy, np.inf)[cand]
    inside = dx * dx + dy * dy < radius * radius
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


def freespace_tx_power(dist_m, alpha, beta, g, k, p0_w, p_max_w):
    """Per-link adaptive transmit power under the free-space model."""
    att = dist_m**alpha * (1.0 + dist_m / g) ** beta
    return np.minimum(p_max_w, p0_w * att / k)
