"""The numpy kernels agree with independent scalar references: loops
written out here (containment, movement) or the scalar link and power
formulas in ``channel``."""

import numpy as np

from hetnetsim import channel, kernels
from hetnetsim.channel import evaluate_link
from hetnetsim.topology import CellKind

RNG = np.random.default_rng(1234)


def random_discs(m=28):
    cx = RNG.uniform(100, 900, m)
    cy = RNG.uniform(100, 900, m)
    return cx, cy, 50.0


def brute_force_containing(px, py, cx, cy, r):
    """First disc (lowest index) with d^2 < r^2 per point, else -1."""
    out = []
    for x, y in zip(px, py):
        hit = -1
        for j, (a, b) in enumerate(zip(cx, cy)):
            if (x - a) ** 2 + (y - b) ** 2 < r * r:
                hit = j
                break
        out.append(hit)
    return np.array(out, dtype=np.int64)


def test_backend_flag_is_exposed():
    assert kernels.USING_NUMBA is False


def test_containing_disc_matches_numpy():
    cx, cy, r = random_discs()
    px = RNG.uniform(0, 1000, 2000)
    py = RNG.uniform(0, 1000, 2000)
    got = kernels.containing_disc(px, py, cx, cy, r)
    np.testing.assert_array_equal(got, brute_force_containing(px, py, cx, cy, r))
    assert got.dtype == np.int64
    assert (got >= -1).all() and (got < 28).all()
    assert (got >= 0).any() and (got == -1).any()


def test_containing_disc_prefers_the_lowest_index():
    # two coincident discs: index 0 must win
    cx = np.array([500.0, 500.0])
    cy = np.array([500.0, 500.0])
    px = np.array([510.0, 560.0])
    py = np.array([500.0, 500.0])
    got = kernels.containing_disc(px, py, cx, cy, 50.0)
    np.testing.assert_array_equal(got, [0, -1])
    np.testing.assert_array_equal(got, brute_force_containing(px, py, cx, cy, 50.0))


def test_link_capacity_matches_numpy_and_the_scalar_path():
    n = 2000
    dist = RNG.uniform(0.2, 1500.0, n)  # includes sub-clamp distances
    shadow = RNG.normal(0, 9, n)
    pico = RNG.random(n) < 0.5
    got = kernels.link_capacity(
        dist, shadow, pico, 20e3, 60.0, 35.0, -130.9648872375883, 1.0)
    # the structured link evaluator is the scalar reference
    for i in range(0, n, 50):
        lb = evaluate_link(CellKind.PICO if pico[i] else CellKind.MACRO, float(dist[i]),
                           20e3, shadow_db=float(shadow[i]))
        np.testing.assert_allclose(got[i], lb.capacity_bps, rtol=1e-9)


def test_advance_positions_matches_numpy_bitwise():
    n = 3000
    px = RNG.uniform(0, 1000, n)
    py = RNG.uniform(0, 1000, n)
    dx = RNG.uniform(0, 1000, n)
    dy = RNG.uniform(0, 1000, n)
    speed = RNG.uniform(0, 25, n)
    gap = np.hypot(dx - px, dy - py)
    vx = np.where(gap > 0, speed * (dx - px) / gap, 0.0)
    vy = np.where(gap > 0, speed * (dy - py) / gap, 0.0)
    # a few users already sit one step from their waypoint
    vx[:50] = dx[:50] - px[:50]
    vy[:50] = dy[:50] - py[:50]

    px1, py1 = px.copy(), py.copy()
    arrived = np.asarray(kernels.advance_positions(px1, py1, dx, dy, vx, vy, speed))

    # per-user scalar reference: move, then snap when within one step
    for i in range(n):
        x, y = px[i] + vx[i], py[i] + vy[i]
        gx, gy = dx[i] - x, dy[i] - y
        hit = gx * gx + gy * gy <= speed[i] * speed[i]
        if hit:
            x, y = dx[i], dy[i]
        assert arrived[i] == hit
        assert (px1[i], py1[i]) == (x, y)
    assert arrived.any() and not arrived.all()


def test_freespace_tx_power_matches_numpy_and_scalar():
    d = RNG.uniform(0.5, 4000.0, 1000)
    p = channel.FREESPACE_MACRO
    got = kernels.freespace_tx_power(d, p.alpha, p.beta, p.g, p.k, p.p0_w, p.p_max_w)
    for i in range(0, 1000, 37):
        np.testing.assert_allclose(
            got[i], channel.freespace_tx_power_w(float(d[i]), p), rtol=1e-12)
    assert (got <= p.p_max_w).all()
    assert (got == p.p_max_w).any() and (got < p.p_max_w).any()
