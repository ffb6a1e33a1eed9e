"""The numpy kernels agree with independent scalar references: loops
written out here (containment, movement) or the scalar link budget in
tests/oracles.py."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hetnetsim import kernels
from hetnetsim.config import parse_scenario
from hetnetsim.engine import build_geometry
from hetnetsim.topology import build_coe, build_udc
from oracles import evaluate_link

MACRO_R = 500.0

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
            dx, dy = x - a, y - b
            if dx * dx + dy * dy < r * r:
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
    got = kernels.containing_disc(px, py, kernels.disc_index(cx, cy, r))
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
    got = kernels.containing_disc(px, py, kernels.disc_index(cx, cy, 50.0))
    np.testing.assert_array_equal(got, [0, -1])
    np.testing.assert_array_equal(got, brute_force_containing(px, py, cx, cy, 50.0))


@st.composite
def disc_sets(draw):
    """(cx, cy, r): free centres with r from 1e-3 m to the macro radius,
    overlapping at large r and with repeated (coincident) centres; the
    tangent ring of build_coe; or up to 200 small picos packed by
    build_udc, several of which share a cell of the containment index."""
    kind = draw(st.sampled_from(["free", "ring", "packed"]))
    if kind == "packed":
        r = draw(st.floats(2.0, 20.0))
        topo = build_udc(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         MACRO_R, r, draw(st.integers(0, 200)))
        return topo.cx.copy(), topo.cy.copy(), r
    r = 10.0 ** draw(st.floats(-3.0, math.log10(MACRO_R)))
    if kind == "free":
        coord = st.floats(0.0, 2 * MACRO_R)
        centres = draw(st.lists(st.tuples(coord, coord), max_size=12))
        if centres:
            centres += draw(st.lists(st.sampled_from(centres), max_size=4))
        centres = draw(st.permutations(centres))
        cx = np.array([c[0] for c in centres], dtype=np.float64)
        cy = np.array([c[1] for c in centres], dtype=np.float64)
        return cx, cy, r
    r = min(r, 240.0)  # the ring needs r < R - r
    fit = int((2 * math.pi + 1e-12) // (2 * math.asin(r / (MACRO_R - r))))
    topo = build_coe(MACRO_R, r, draw(st.integers(0, min(fit, 12))))
    return topo.cx.copy(), topo.cy.copy(), r


@st.composite
def probe_points(draw, cx, cy, r):
    """Free points plus points at centres, on disc boundaries (along the
    axes and at an angle), at midpoints of neighbouring centres, which are
    the tangent points of a ring, and on the edges and corners of the
    index's cells (x0 + k*w, y0 + k*w).  Each boundary or edge point may
    move one ulp either way in each coordinate."""
    coord = st.floats(-0.1 * MACRO_R, 2.1 * MACRO_R)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=30))
    m = cx.shape[0]
    ulps = st.sampled_from([-np.inf, None, np.inf])

    def nudge(p):
        return tuple(v if to is None else float(np.nextafter(v, to))
                     for v, to in zip(p, draw(st.tuples(ulps, ulps))))

    if m:
        kinds = st.sampled_from(["centre", "east", "west", "north", "south",
                                 "angle", "midpoint"])
        for j, kind, a in draw(st.lists(
                st.tuples(st.integers(0, m - 1), kinds, st.floats(0, 2 * math.pi)),
                max_size=30)):
            x, y = cx[j], cy[j]
            pts.append(nudge({
                "centre": (x, y),
                "east": (x + r, y),
                "west": (x - r, y),
                "north": (x, y + r),
                "south": (x, y - r),
                "angle": (x + r * math.cos(a), y + r * math.sin(a)),
                "midpoint": ((x + cx[(j + 1) % m]) / 2, (y + cy[(j + 1) % m]) / 2),
            }[kind]))
        index = kernels.disc_index(cx, cy, r)
        # one row or column past the grid on each side
        kx, ky = st.integers(-1, index.gx + 1), st.integers(-1, index.gy + 1)
        for i, k, along in draw(st.lists(st.tuples(kx, ky, coord), max_size=20)):
            edge_x, edge_y = index.x0 + i * index.w, index.y0 + k * index.w
            pts.append(nudge(draw(st.sampled_from(
                [(edge_x, along), (along, edge_y), (edge_x, edge_y)]))))
    px = np.array([p[0] for p in pts], dtype=np.float64)
    py = np.array([p[1] for p in pts], dtype=np.float64)
    return px, py


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_containing_disc_equals_the_scan_on_any_disc_set(data):
    cx, cy, r = data.draw(disc_sets())
    px, py = data.draw(probe_points(cx, cy, r))
    got = kernels.containing_disc(px, py, kernels.disc_index(cx, cy, r))
    assert got.dtype == np.int64 and got.shape == px.shape
    np.testing.assert_array_equal(got, brute_force_containing(px, py, cx, cy, r))


def ulp_neighbours(px, py):
    """Each point, first, and its 8 neighbours one ulp away on either axis."""
    steps = [(v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)) for v in (px, py)]
    return (np.concatenate([x for x in steps[0] for _ in range(3)]),
            np.concatenate([y for _ in range(3) for y in steps[1]]))


def sure_cell_outlines(index):
    """The corners and edge midpoints of every cell with a sure label."""
    cells = np.flatnonzero(index.table > -2)
    i, k = cells % index.gx, cells // index.gx
    f = np.array([0.0, 0.5, 1.0])
    px = index.x0 + (i[:, None, None] + f[:, None]) * index.w
    py = index.y0 + (k[:, None, None] + f) * index.w
    return np.broadcast_to(px, (cells.size, 3, 3)).ravel(), \
        np.broadcast_to(py, (cells.size, 3, 3)).ravel()


def assert_scan_answers(cx, cy, r, px, py):
    """The raster answers each point, its ulp neighbours and the outlines
    of the sure cells as the scan does; the index, and the answers of the
    points."""
    index = kernels.disc_index(cx, cy, r)
    n = px.size
    px, py = ulp_neighbours(px, py)
    ox, oy = ulp_neighbours(*sure_cell_outlines(index))
    px, py = np.concatenate([px, ox]), np.concatenate([py, oy])
    got = kernels.containing_disc(px, py, index)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, brute_force_containing(px, py, cx, cy, r))
    return index, got[:n]


@pytest.mark.parametrize("gap", [1.0, 1.0 - 1e-10])
@pytest.mark.parametrize("flip", [False, True])
def test_containment_where_two_discs_touch(gap, flip):
    """Centres exactly 2r apart, tangent at one point, or 2r (1 - 1e-10)
    apart, sharing a lens 4e-9 m wide: points in and about it, either
    disc listed first."""
    r = 20.0
    cx, cy = np.array([100.0, 100.0 + 2 * r * gap]), np.array([100.0, 100.0])
    if flip:
        cx = cx[::-1].copy()
    mid = (cx[0] + cx[1]) / 2
    dy = np.array([0.0, 1e-12, 1e-6, 1e-4, 2.8e-4, 1e-3])
    px = np.concatenate([np.full(12, mid), mid + np.array([-2e-9, 2e-9, -1e-8, 1e-8])])
    py = np.concatenate([100.0 + dy, 100.0 - dy, np.full(4, 100.0 + 1e-4)])
    _, got = assert_scan_answers(cx, cy, r, px, py)
    if gap < 1.0:
        # both hold the lens, 2.8e-4 m high: the first wins
        lens = (px == mid) & (np.abs(py - 100.0) < 3e-4)
        assert lens.sum() == 10 and (got[lens] == 0).all()


def test_containment_where_a_disc_edge_crosses_a_cell_corner():
    """Disc 1's circle passes through the corner x0 + 7w, y0 + 6w, which
    lies inside disc 0: a 3-4-5 triangle, exact in binary."""
    cx, cy, r = np.array([0.0, 1.75]), np.array([0.0, 1.5]), 5.0
    index = kernels.disc_index(cx, cy, r)
    assert (index.x0, index.y0, index.w) == (-10.0, -10.0, 1.25)
    corner_x, corner_y = index.x0 + 7 * index.w, index.y0 + 6 * index.w
    assert (corner_x - cx[1]) ** 2 + (corner_y - cy[1]) ** 2 == r * r
    # either disc first: with the crossing one first, the corner's answer
    # rests on its strict test
    for order in ([0, 1], [1, 0]):
        assert_scan_answers(cx[order], cy[order], r, np.array([corner_x]), np.array([corner_y]))


@pytest.mark.parametrize("m", [0, 1])
def test_containment_of_no_disc_and_of_one(m):
    cx, cy, r = np.array([300.0])[:m], np.array([200.0])[:m], 40.0
    px = np.concatenate([RNG.uniform(200, 400, 500), 300.0 + np.array([40.0, -40.0, 0, 0])])
    py = np.concatenate([RNG.uniform(100, 300, 500), 200.0 + np.array([0, 0, 40.0, -40.0])])
    index, got = assert_scan_answers(cx, cy, r, px, py)
    assert (got >= 0).any() == bool(m)
    if m:
        # a sure cell labels every point in it
        assert (index.table >= 0).any()


def test_containment_of_points_far_off_the_grid():
    cx, cy, r = random_discs()
    big = np.array([-1e15, -1e9, -1e3, 1e3, 1e9, 1e15])
    px = np.concatenate([big, np.zeros(6), big, cx])
    py = np.concatenate([np.zeros(6), big, big[::-1], np.full(cx.size, 1e12)])
    _, got = assert_scan_answers(cx, cy, r, px, py)
    assert (got == -1).all()


def test_containment_where_the_cell_cap_sets_the_side():
    """Three discs of 1 cm a kilometre apart: the cap of CELLS_PER_DISC
    cells a disc makes a cell many radii wide, so no cell is sure of a
    disc, and every point near one tests it."""
    cx, cy, r = np.array([0.0, 1000.0, 500.0]), np.array([0.0, 0.0, 1000.0]), 0.01
    index = kernels.disc_index(cx, cy, r)
    c = math.floor(math.sqrt(kernels.CELLS_PER_DISC * 3))
    assert index.w > 1000.0 / c > r
    assert index.gx * index.gy <= (c + 1) ** 2
    assert not (index.table >= 0).any()
    a = RNG.uniform(0, 2 * math.pi, 300)
    d = r * np.concatenate([RNG.uniform(0, 1.5, 200), np.ones(100)])
    j = RNG.integers(0, 3, 300)
    _, got = assert_scan_answers(cx, cy, r, cx[j] + d * np.cos(a), cy[j] + d * np.sin(a))
    assert (got >= 0).any() and (got == -1).any()


# the layouts the presets and the run workloads build at their default seed
# 1, and at a second seed: coe and udc at 28 picos of 50 m (presets,
# ts_paper), udc at 200 picos of 20 m (ts_stress)
LAYOUTS = [
    {"topology": "coe", "seed": 1},
    *({"topology": "udc", "seed": seed} for seed in (1, 7)),
    *({"topology": "udc", "seed": seed,
       "layout": {"n_picos": 200, "pico_radius_m": 20.0}} for seed in (1, 7)),
]


@pytest.mark.parametrize("doc", LAYOUTS)
def test_disc_index_size_is_linear_in_picos(doc):
    """The raster has O(m) cells, O(m) edge rows of a small depth, and
    sure cells in every disc, for m picos of radius r.

    Cells: the grid spans x0 = min(cx) - 2r to x1 = max(cx) + 2r with side
    w >= span / c, c = floor(sqrt(CELLS_PER_DISC * m)), span the larger of
    x1 - x0 and y1 - y0.  So there are at most c + 1 cells a row and a
    column, (c + 1)^2 in all.

    Edge rows: a cell whose lowest disc may hold some of its points but
    not all has its widened square, of diagonal a = sqrt(2) w (1 + 2
    SLACK), both within and beyond about r of that disc's centre.  So
    the cell lies in the annulus from r - a to r + a about it, of area 4
    pi r a, and the cells of one disc's annulus number at most that over
    w^2.

    Depth: a row lists only discs whose centre lies within about r of the
    cell, a square of side w.  Picos of coe and udc are 2r or more apart,
    so their discs are disjoint and lie inside that square grown by 2r:
    depth * pi r^2 <= (w + 4r)^2.  Sure cells of one disc lie inside it,
    so there are at most pi r^2 / w^2 of them, and at least one, as w <=
    r / 2 puts the cell of its centre inside it.
    """
    topo = build_geometry(parse_scenario(doc))
    r = topo.pico_radius
    index = kernels.disc_index(topo.cx, topo.cy, r)
    m, w = index.m, index.w
    edges, depth = index.rows.shape
    c = math.floor(math.sqrt(kernels.CELLS_PER_DISC * m))
    assert index.table.shape == (index.gx * index.gy,)
    assert max(index.gx, index.gy) <= c + 1
    assert edges <= index.table.size
    a = math.sqrt(2) * w * (1 + 2 * kernels.SLACK)
    assert edges <= m * 4 * math.pi * r * a * (1 + 1e-5) / (w * w)
    assert np.array_equal(np.sort(index.table[index.table < -1]), -1 - np.arange(edges, 0, -1))
    assert depth <= (w + 4 * r * (1 + 1e-5)) ** 2 / (math.pi * r * r)
    # what these layouts reach: the depth bound above is 5 here
    assert depth == 2
    sure = np.bincount(index.table[index.table >= 0], minlength=m)
    assert 1 <= sure.min() and sure.max() <= math.pi * r * r / (w * w)
    # the cell side is r / 4, or a little more where the cap sets it
    assert kernels.CELL_RATIO * r <= w <= r / 3.5


@pytest.mark.parametrize("m", [20, 200])
def test_containing_disc_memory_is_linear_in_users(m):
    """One call at 20,000 users stays under a bound that does not grow
    with the pico count; an n x m broadcast peaks near 120 MiB at m = 200."""
    topo = build_udc(np.random.default_rng(m), MACRO_R, 20.0, m)
    cx, cy = topo.cx.copy(), topo.cy.copy()
    rng = np.random.default_rng(7)
    px = rng.uniform(0, 2 * MACRO_R, 20_000)
    py = rng.uniform(0, 2 * MACRO_R, 20_000)
    tracemalloc.start()
    try:
        kernels.containing_disc(px, py, kernels.disc_index(cx, cy, 20.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_link_capacity_matches_numpy_and_the_scalar_path():
    n = 2000
    dist = RNG.uniform(0.2, 1500.0, n)  # includes sub-clamp distances
    shadow = RNG.normal(0, 9, n)
    # one call per tier, each against the structured link evaluator, the
    # scalar reference
    for pico in (False, True):
        got = kernels.link_capacity(dist, shadow, pico,
                                    20e3, 60.0, 35.0, -130.9648872375883, 1.0)
        for i in range(0, n, 50):
            lb = evaluate_link(pico, float(dist[i]), 20e3, shadow_db=float(shadow[i]))
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


def reprs(values):
    return [repr(v) for v in values.tolist()]


def texts(rows):
    """Each ASCII row of kernels.float_text, its NUL padding on the right
    dropped: a NUL anywhere else stays and fails the comparison."""
    assert rows.dtype == np.uint8 and rows.shape[1] >= 18
    return [t.decode("ascii") for t in rows.view(f"S{rows.shape[1]}")[:, 0].tolist()]


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 60),
                         elements=st.floats(width=64) | st.floats(1.0, 1e14)))
def test_float_reprs_equal_repr_on_any_floats(values):
    """nan, both infinities, both zeros, subnormals and every magnitude,
    with values in the fast path's [1, 1e14) drawn as often as the rest."""
    assert texts(kernels.float_text(values)) == reprs(values)


def test_float_reprs_of_no_values_and_of_one():
    assert kernels.float_text(np.empty(0)).shape == (0, 18)
    assert texts(kernels.float_text(np.array([123.456]))) == ["123.456"]
    assert texts(kernels.float_text(np.array([0.1 + 0.2]))) == ["0.30000000000000004"]


def test_float_text_widens_to_the_longest_repr():
    """A repr longer than the fast path's 18 characters widens every row
    to its length, the others padded with NUL."""
    values = np.array([123.456, -1.2345678901234567e-300, 1.2345678901234567e-05, 5e-324])
    rows = kernels.float_text(values)
    assert rows.shape == (4, 24)
    assert texts(rows) == reprs(values)


@pytest.mark.parametrize("values", [
    [], [0], [7], [9, 10], [99, 100, 5], [999_999, 1_000_000],
    list(range(0, 2000, 37)), [10 ** 16 - 1, 10 ** 16, 10 ** 17 - 1, 0],
])
def test_int_text_equals_str_at_every_digit_width(values):
    """Each row, its NULs dropped, is str of its int; the width is the
    widest's digit count, and 0 has one digit."""
    rows = kernels.int_text(np.array(values, dtype=np.int64))
    assert rows.dtype == np.uint8
    assert rows.shape == (len(values), max([1, *map(len, map(str, values))]))
    assert [bytes(r).replace(b"\0", b"").decode("ascii") for r in rows] == list(map(str, values))


def bulk_families(rng):
    """About 1.1e6 floats in families that test each decision of
    float_text, by name."""
    def neighbours(a):
        return np.concatenate([a, np.nextafter(a, 0.0), np.nextafter(a, np.inf),
                               np.nextafter(np.nextafter(a, np.inf), np.inf)])

    # random significands under exponents of [1, 2 ** 47), so in [1, 1.4e14)
    in_range = (rng.integers(1023, 1070, 200_000, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2 ** 52, 200_000, dtype=np.uint64)).view(np.float64)
    # the doubles nearest 11- and 12-place decimals in [1, 1000), whose
    # shortest repr is short, and their neighbours, whose repr is long
    places = np.concatenate([rng.integers(10 ** 11, 10 ** 14, 40_000) / 1e11,
                             rng.integers(10 ** 12, 10 ** 15, 40_000) / 1e12])
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-20, 21)])
    positions = rng.uniform(0.0, 1000.0, 200_000)
    return {
        "positions": positions,
        "rates": rng.lognormal(16.0, 2.0, 100_000),
        "bit patterns": rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
        "in-range bit patterns": in_range,
        "decimals and neighbours": neighbours(places),
        "powers of 2 and 10 and neighbours": neighbours(powers),
        "negatives": -positions[:100_000],
        "carries and specials": np.array([
            999.9999999999999, 9.999999999999998, 99999999999999.98, 0.9999999999999999,
            99.99999999999999, 1e14, np.nextafter(1e14, 0.0), 1.0, 0.5, 1e-5,
            np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, np.finfo(np.float64).max]),
    }


def test_float_reprs_equal_repr_on_a_million_seeded_values():
    """Every family of bulk_families, in calls of 16,384 values; and the
    fast path, not repr, formats almost every position."""
    families = bulk_families(np.random.default_rng(33))
    assert sum(a.size for a in families.values()) >= 10 ** 6
    for name, values in families.items():
        for i in range(0, values.size, 16_384):
            chunk = values[i:i + 16_384]
            assert texts(kernels.float_text(chunk)) == reprs(chunk), name
    positions = families["positions"][:16_384]
    _, _, unsure = kernels._shortest_decimal(positions[positions >= 1.0])
    assert unsure.mean() < 0.02


def test_float_reprs_leave_every_tie_to_repr():
    """v = m / 2 ** (17 - e) with m odd and 10 ** e <= v < 10 ** (e + 1)
    makes v * 10 ** (16 - e) end in exactly .5: the 17-digit rounding of
    v is a tie, which the fast path leaves to repr, at every e."""
    rng = np.random.default_rng(17)
    ties = np.concatenate([
        (2 * rng.integers(10 ** e * 2 ** (16 - e), 10 ** (e + 1) * 2 ** (16 - e), 500) + 1)
        / 2.0 ** (17 - e) for e in range(14)])
    _, _, unsure = kernels._shortest_decimal(ties)
    assert unsure.all()
    assert texts(kernels.float_text(ties)) == reprs(ties)
