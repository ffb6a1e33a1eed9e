"""Vectorized inner loops of the slot pipeline, in plain numpy, and the
output layer's number formatters, as rows of NUL-padded ASCII bytes:
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
    # off the grid, a point lies past every box: its edge cell lists no hit;
    # in place where it can be, as the points may be a block of many slots
    cell = np.clip(_cell(py, index.y0, index.w), 0, index.gy - 1)
    cell *= index.gx
    cell += np.clip(_cell(px, index.x0, index.w), 0, index.gx - 1)
    r2 = index.radius * index.radius

    def hits(column):
        # one candidate per point; empty slots point at the centre at infinity
        cand = column.take(cell)
        dx, dy = index.cx.take(cand), index.cy.take(cand)
        np.subtract(px, dx, out=dx)
        np.subtract(py, dy, out=dy)
        dx *= dx
        dx += np.square(dy, out=dy)
        np.copyto(cand, index.m, where=~(dx < r2))
        return cand

    first_hit = reduce(lambda a, b: np.minimum(a, b, out=a), map(hits, index.table.T))
    np.copyto(first_hit, -1, where=first_hit == index.m)
    return first_hit.astype(np.int64, copy=False)


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
