"""Vectorized inner loops of the slot pipeline, in plain numpy.

Callers look these up as ``kernels.NAME`` at call time, so an
instrumented run can wrap them here.  ``USING_NUMBA`` stays False: there
is one backend, and tools that report the environment read the flag.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False


def containing_disc(px, py, cx, cy, radius):
    """Per point: index of the disc strictly containing it, -1 if none.

    Discs never overlap in our layouts; ties on shared boundary points go
    to the lowest index (argmax finds the first hit).
    """
    n = px.shape[0]
    m = cx.shape[0]
    containing = np.full(n, -1, dtype=np.int64)
    if m == 0:
        return containing
    dx = px[:, None] - cx[None, :]
    dy = py[:, None] - cy[None, :]
    inside = dx * dx + dy * dy < radius * radius
    hit = inside.any(axis=1)
    containing[hit] = inside[hit].argmax(axis=1)
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
