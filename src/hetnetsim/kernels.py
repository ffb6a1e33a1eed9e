"""Vectorized inner loops of the slot pipeline, in plain numpy: disc
containment from a raster certified against float rounding, so that
most points need one gather and no distance, link budgets and movement;
and the output layer's number formatters, as rows of NUL-padded ASCII bytes:
int_text, str's digits of non-negative ints, and float_text, repr's
exact text for a whole array, worked in float64 and int64 steps where
they can certify it and left to repr where they cannot.

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


# the raster's cell side, as a share of the disc radius, and its most
# cells per disc: where discs lie sparse, the cap sets the side
CELL_RATIO = 0.25
CELLS_PER_DISC = 256
# a cell is widened by SLACK * w, and a disc holds (misses) it only within
# r^2 (1 - SLACK) (beyond r^2 (1 + SLACK)): far more than _cell and
# dx*dx + dy*dy round
SLACK = 1e-6


@dataclass(frozen=True)
class DiscIndex:
    """A raster of the discs: per grid cell, the answer of every point in
    it, or a row of the discs that may hold some of them.  The grid
    reaches 2 radius past every centre; one cell, of no disc, if m = 0."""

    cx: np.ndarray       # (m + 1,) centres, then one at infinity
    cy: np.ndarray
    radius: float
    x0: float            # grid origin and cell side
    y0: float
    w: float
    gx: int              # cells per row and column
    gy: int
    table: np.ndarray    # (gx * gy,) int32: the sure disc, -1 for none, or -2 - row
    rows: np.ndarray     # (edge cells, depth) discs, ascending; m pads a row

    @property
    def m(self) -> int:
        return self.cx.shape[0] - 1


def _cell(q, origin, w):
    """Grid coordinate of q, unclipped; monotone in q, as each step is."""
    return np.floor((q - origin) / w).astype(np.intp)


def disc_index(cx, cy, radius) -> DiscIndex:
    """Label the cells of a grid of side about CELL_RATIO * radius, with
    at most about CELLS_PER_DISC cells a disc, for m discs of radius > 0.

    A point the strict test puts in a disc has |px - cx| < radius: exactly,
    or, where px - cx rounds (both within 2 radius of 0), up to a rounding
    that ``pad = radius * (1 + 1e-9)`` covers; so, _cell being monotone,
    only the cells of its box padded to pad hold points of the disc.  A
    point whose _cell is (i, k) lies in that cell's square widened by
    SLACK * w, as _cell rounds by about 1e-16 of the grid's size, and the
    square's offsets from a centre, worked from x0 - cx, round as little.
    A disc holds the cell if the widened square's farthest point is within
    r^2 (1 - SLACK) of its centre, and may hold some of its points unless
    the nearest is beyond r^2 (1 + SLACK).  A cell's sure answer is the
    lowest disc that may, if it holds them all, or -1 if none may; else
    its row lists every disc that may.  Points off the grid lie past every
    disc, as do the border cells, never sure of one.  The build takes
    O(m * (radius / w)^2) memory.
    """
    m = cx.shape[0]
    if m == 0:
        inf = np.array([np.inf])
        return DiscIndex(inf, inf, radius, 0.0, 0.0, 1.0, 1, 1,
                         np.full(1, -1, np.int32), np.zeros((0, 1), np.intp))
    pad = radius * (1.0 + 1e-9)
    x0, y0 = cx.min() - 2.0 * radius, cy.min() - 2.0 * radius
    x1, y1 = cx.max() + 2.0 * radius, cy.max() + 2.0 * radius
    w = max(CELL_RATIO * radius,
            max(x1 - x0, y1 - y0) / math.floor(math.sqrt(CELLS_PER_DISC * m)))
    gx, gy = int(_cell(x1, x0, w)) + 1, int(_cell(y1, y0, w)) + 1
    lo_x, hi_x = _cell(cx - pad, x0, w), _cell(cx + pad, x0, w)
    lo_y, hi_y = _cell(cy - pad, y0, w), _cell(cy + pad, y0, w)
    # (m, k, k) cells of each box, masked past its extent
    k = np.arange(max((hi_x - lo_x).max(), (hi_y - lo_y).max()) + 1)
    ix, iy = lo_x[:, None, None] + k, lo_y[:, None, None] + k[:, None]

    def near_far(i, offset):
        # per axis, the widened cell's nearest and farthest offset from the
        # centre, squared
        lo = offset[:, None, None] + i * w - SLACK * w
        hi = offset[:, None, None] + (i + 1) * w + SLACK * w
        near = np.maximum(lo, 0.0) + np.minimum(hi, 0.0)
        return near * near, np.maximum(lo * lo, hi * hi)

    (near_x, far_x), (near_y, far_y) = near_far(ix, x0 - cx), near_far(iy, y0 - cy)
    r2 = radius * radius
    may = (ix <= hi_x[:, None, None]) & (iy <= hi_y[:, None, None])
    may &= near_x + near_y <= r2 * (1.0 + SLACK)
    holds = (far_x + far_y < r2 * (1.0 - SLACK))[may]
    disc = np.nonzero(may)[0]
    cell = (iy * gx + ix)[may]
    # each cell's discs, ascending: the boxes are in disc order
    order = np.argsort(cell, kind="stable")
    cell, disc, holds = cell[order], disc[order], holds[order]
    per_cell = np.bincount(cell, minlength=gx * gy)
    first = np.cumsum(per_cell) - per_cell
    table = np.full(gx * gy, -1, dtype=np.int32)
    lowest = first[per_cell > 0]
    table[cell[lowest]] = disc[lowest]
    edge = cell[lowest[~holds[lowest]]]
    table[edge] = -2 - np.arange(edge.size)
    in_edge = table[cell] < -1
    rows = np.full((edge.size, per_cell[edge].max(initial=1)), m, dtype=np.intp)
    rows[-2 - table[cell[in_edge]], (np.arange(cell.size) - first[cell])[in_edge]] = disc[in_edge]
    return DiscIndex(np.append(cx, np.inf), np.append(cy, np.inf), radius,
                     x0, y0, w, gx, gy, table, rows)


def containing_disc(px, py, index: DiscIndex):
    """Per point: index of the disc of the index that strictly contains it
    (``dx*dx + dy*dy < radius*radius``, ``dx = px - cx``), -1 if none.
    Where discs overlap, the lowest index wins.

    One gather gives each point its cell's label (disc_index): a sure
    answer, or for a point in an edge cell a row of the discs that may
    hold it, which only those points test.  The rows are read one depth
    column at a time: each column gives every such point one candidate,
    and a running minimum keeps the lowest hit, so memory is O(n + cells
    * depth).
    """
    # off the grid, a point lies past every disc, as its border cell does;
    # in place where it can be, as the points may be a block of many slots
    label = np.clip(_cell(py, index.y0, index.w), 0, index.gy - 1)
    label *= index.gx
    label += np.clip(_cell(px, index.x0, index.w), 0, index.gx - 1)
    label = index.table.take(label)
    edge = np.flatnonzero(label < -1)
    row = -2 - label.take(edge)
    ex, ey = px.take(edge), py.take(edge)
    r2 = index.radius * index.radius

    def hits(column):
        # one candidate per point; padding points at the centre at infinity
        cand = column.take(row)
        dx, dy = index.cx.take(cand), index.cy.take(cand)
        np.subtract(ex, dx, out=dx)
        np.subtract(ey, dy, out=dy)
        dx *= dx
        dx += np.square(dy, out=dy)
        np.copyto(cand, index.m, where=~(dx < r2))
        return cand

    first_hit = reduce(lambda a, b: np.minimum(a, b, out=a), map(hits, index.rows.T))
    np.copyto(first_hit, -1, where=first_hit == index.m)
    label = label.astype(np.int64)
    label[edge] = first_hit
    return label


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
    # one array, worked in place: each step is the ufunc of the formula,
    # with a + b and a * b taken as b + a and b * a, which IEEE makes equal
    v = np.maximum(dist_m, min_distance_m)
    v /= 1000.0
    np.log10(v, out=v)
    if pico_link:
        a, b, eirp = 128.1, 37.6, eirp_pico_dbm
    else:
        a, b, eirp = 140.7, 36.7, eirp_macro_dbm
    v *= b
    v += a  # the path loss
    np.subtract(eirp, v, out=v)
    v += shadow_db
    v -= noise_dbm
    v /= 10.0
    np.power(10.0, v, out=v)  # the SNR
    v += 1.0
    np.log2(v, out=v)
    v *= bandwidth_hz
    return v


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


# 10 ** k for k = 0 .. 16, exact as int64 and as float64
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_POW10 = _POW10_INT.astype(np.float64)
# the two ASCII digits of each pair 0 .. 99, as one uint16
_PAIR_CHARS = np.array([[48 + i // 10, 48 + i % 10] for i in range(100)],
                       dtype=np.uint8).view(np.uint16)[:, 0]
# a decision this close to its boundary, in units of the 17th digit, is
# left to repr; the float steps that reach it err by less than 1e-12
_MARGIN = 1e-6


def _split(a):
    """a == hi + lo, each at most 26 bits wide (Veltkamp)."""
    c = a * 134217729.0  # 2 ** 27 + 1
    hi = c - (c - a)
    return hi, a - hi


# each 10 ** k split, for the exact products w * 10 ** k
_POW10_HI, _POW10_LO = _split(_POW10)


def _shortest_decimal(w):
    """For w in [1, 1e14): D = w * 10 ** (16 - e) rounded as float_text
    says, as int64, e, and whether to leave w to repr."""
    # 10 ** e <= w < 10 ** (e + 1), found among the exact powers
    e = _POW10[:15].searchsorted(w, side="right") - 1
    p = 16 - e
    scale = _POW10[p]
    hi = w * scale
    w1, w2 = _split(w)
    s1, s2 = _POW10_HI[p], _POW10_LO[p]
    lo = ((w1 * s1 - hi) + w1 * s2 + w2 * s1) + w2 * s2
    # hi >= 1e16 > 2 ** 53 is an int and |lo| <= 8, so D = base + R: base
    # an int64 multiple of 1000 and R < 1010 a float, rounded once
    H = hi.astype(np.int64)
    base = H // 1000 * 1000
    R = (H - base).astype(np.float64) + lo
    # free what the loop does not read: a call's peak memory bounds its size
    del p, s1, s2, w1, w2, hi, lo, H
    # half an ulp of w, scaled as D is: exact
    half_ulp = np.ldexp(scale, np.frexp(w)[1] - 54)
    unsure = np.zeros(w.shape, dtype=bool)
    # the nearest multiple of q = 10 ** (17 - k), for k = 17, 16, 15, 14
    for q in (1.0, 10.0, 100.0, 1000.0):
        near = np.rint(R / q) * q
        dist = np.abs(R - near)
        unsure |= (np.abs(dist - q / 2) < _MARGIN) | (np.abs(dist - half_ulp) < _MARGIN)
        fits = dist < half_ulp
        if q == 1.0:
            off = near
        elif q < 1000.0:
            off = np.where(fits, near, off)
        else:
            unsure |= fits
    return base + off.astype(np.int64), e, unsure


def _decimal_text(D, e):
    """(n, 18) ASCII bytes: the digits of D with a point after the first
    e + 1 and trailing 0s dropped, NUL-padded."""
    # X: D with a 0 digit put in after its first e + 1, 18 digits
    s = _POW10_INT[16 - e]
    X = D + D // s * (9 * s)
    # its 9 digit pairs, first to last, as rows
    pairs = np.empty((9, X.size), np.int64)
    pairs[8] = X
    for i in range(7, -1, -1):
        np.floor_divide(pairs[i + 1], 100, out=pairs[i])
    for i in range(8, 0, -1):
        pairs[i] -= 100 * pairs[i - 1]
    # taken from a contiguous index, then turned: taking through pairs.T
    # copies the index too
    chars = _PAIR_CHARS.take(pairs)
    del pairs
    text = np.ascontiguousarray(chars.T).view(np.uint8)
    text.reshape(-1)[np.arange(1, 18 * X.size, 18) + e] = 46  # "."
    # D ends in at most two 0s: had it three, its 14-digit decimal would
    # read back, and _shortest_decimal leaves such a value to repr
    text[text[:, 17] == 48, 17] = 0
    text[(text[:, 17] == 0) & (text[:, 16] == 48), 16] = 0
    return text


def float_text(values) -> np.ndarray:
    """(n, w) ASCII bytes of a 1-D float64 array: row i is repr(values[i]),
    NUL-padded on the right; w is 18, or the longest repr if longer.

    repr writes the shortest decimal that reads back as v, the nearest of
    its length.  For v in [1, 1e14), with 10 ** e <= v < 10 ** (e + 1),
    D = v * 10 ** (16 - e) lies in [1e16, 1e17) and is held exactly as
    hi + lo (Dekker, Numer. Math. 1971).  The nearest k-digit decimal is
    D rounded to a multiple of q = 10 ** (17 - k); it reads back when its
    distance from D is below half an ulp of v, scaled as D is.  That
    holds for k = 17, and for k whenever for k - 1, so the shortest is the
    last of k = 17, 16, 15 for which it holds; its text is D's digits
    with a point after the first e + 1 and trailing 0s dropped.  Left to
    repr (Loitsch, PLDI 2010: hand back what the fast path cannot
    certify) are values outside [1, 1e14), values whose 14-digit decimal
    reads back (they may be shorter still; every carry to 10 ** 17 is
    one, and so is every power of two in range, the one value whose ulp
    below is not its ulp above), and values with a rounding or read-back
    decision within _MARGIN of its boundary, every tie among them.
    """
    # outside [1, 1e14) a value is worked as 1.0, whose 14 digits read back
    D, e, unsure = _shortest_decimal(np.where((values >= 1.0) & (values < 1e14), values, 1.0))
    text = _decimal_text(D, e)
    fallback = np.flatnonzero(unsure)
    # ASCII, NUL-padded to the longest: -1.2345678901234567e-300 has 24
    reprs = np.array([repr(v) for v in values[fallback].tolist()], dtype="S")
    w = reprs.itemsize
    if w > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, w - text.shape[1])))
    text[fallback, w:] = 0
    text[fallback, :w] = reprs.view(np.uint8).reshape(-1, w)
    return text


def int_text(values) -> np.ndarray:
    """(n, w) ASCII bytes of a 1-D array of ints in [0, 10 ** 17): row i
    is str(values[i]), NUL in place of its leading 0s; w is the widest's
    digit count."""
    w = max(1, int(_POW10_INT.searchsorted(values.max(initial=0), side="right")))
    powers = _POW10_INT[w - 1::-1]
    text = (values[:, None] // powers % 10 + 48).astype(np.uint8)
    text[:, :-1][values[:, None] < powers[:-1]] = 0
    return text
