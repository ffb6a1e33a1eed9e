"""Layouts for the two-tier network.

One macro cell of radius R centered at (R, R) — tangent to both coordinate
axes — optionally overlaid with small pico cells that must lie entirely
inside the macro disc and must not overlap each other.  Three layout
families:

* ``monet``  — macro only, no picos.
* ``coe``    — picos on a concentric ring, each tangent to the macro edge,
  packed edge-to-edge starting at angle 0.
* ``udc``    — picos dropped uniformly at random, accepted only if they fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np


class TopologyError(Exception):
    """A layout that cannot be built: too many ring picos, a random
    placement out of attempts, or picos that escape or overlap."""


@dataclass(frozen=True)
class Topology:
    """Immutable layout: the macro disc of radius macro_radius centred at
    (macro_radius, macro_radius), and picos of one radius, pico_radius,
    centred at the read-only (m,) columns (cx[j], cy[j]); pico j has id j."""

    kind: str
    macro_radius: float
    cx: np.ndarray
    cy: np.ndarray
    pico_radius: float

    def __post_init__(self) -> None:
        self.cx.setflags(write=False)
        self.cy.setflags(write=False)

    def to_json(self) -> str:
        R, r = self.macro_radius, self.pico_radius
        doc = {
            "kind": self.kind,
            "macro": {"x": R, "y": R, "r": R},
            "picos": [{"id": j, "x": x, "y": y, "r": r}
                      for j, (x, y) in enumerate(zip(self.cx.tolist(), self.cy.tolist()))],
        }
        return json.dumps(doc, indent=2)


# validation slack, relative to the radii: a pico escapes when it reaches
# past R·(1 + SLACK), two picos overlap when nearer than 2r·(1 - SLACK)
SLACK = 1e-9
# |z - w| over complex arrays screens out the pairs far from a threshold;
# it differs from math.hypot, which decides the rest, by far less than this.
SCREEN = 1e-9


def validate_topology(topo: Topology) -> None:
    """Assert containment, then pairwise non-overlap, each with a SLACK
    relative to the radii: the first offending pico, then pair (i, j), in
    scan order raises TopologyError."""
    R, r, cx, cy = topo.macro_radius, topo.pico_radius, topo.cx, topo.cy
    z, m, reach, gap = cx + 1j * cy, cx.size, R * (1 + SLACK), 2 * r * (1 - SLACK)
    for j in np.flatnonzero(abs(z - complex(R, R)) + r > reach * (1 - SCREEN)).tolist():
        if math.hypot(cx[j] - R, cy[j] - R) + r > reach:
            raise TopologyError(f"pico {j} extends outside the macro disc")
    block = max(1, 2**18 // max(m, 1))  # rows i of pairs (i, j > i) screened at once
    for lo in range(0, m, block):
        i = np.arange(lo, min(lo + block, m))[:, None]
        near = (abs(z[i] - z[lo:]) < gap * (1 + SCREEN)) & (np.arange(lo, m) > i)
        for a, b in (lo + np.argwhere(near)).tolist():
            if math.hypot(cx[a] - cx[b], cy[a] - cy[b]) < gap:
                raise TopologyError(f"picos {a} and {b} overlap")


def build_monet(macro_radius: float = 500.0) -> Topology:
    return Topology("monet", macro_radius, np.empty(0), np.empty(0), 0.0)


def build_coe(
    macro_radius: float = 500.0,
    pico_radius: float = 50.0,
    n_picos: int = 28,
) -> Topology:
    """Ring layout: pico centers on radius R - r, consecutive picos tangent.

    The angular step between neighbours is 2*asin(r / (R - r)); n of them
    must fit in a full turn or the request is rejected.
    """
    if n_picos < 0:
        raise TopologyError("n_picos must be non-negative")
    ring = macro_radius - pico_radius
    if ring <= 0:
        raise TopologyError("pico_radius must be smaller than macro_radius")
    step = 2.0 * math.asin(pico_radius / ring)
    if n_picos * step > 2.0 * math.pi + 1e-12:
        raise TopologyError(
            f"{n_picos} picos of radius {pico_radius} do not fit on the ring "
            f"(need {n_picos * step:.4f} rad, have {2 * math.pi:.4f})"
        )
    # math.cos and math.sin, as numpy's may differ in the last bit
    cx = np.array([macro_radius + ring * math.cos(i * step) for i in range(n_picos)])
    cy = np.array([macro_radius + ring * math.sin(i * step) for i in range(n_picos)])
    topo = Topology("coe", macro_radius, cx, cy, pico_radius)
    validate_topology(topo)
    return topo


# udc candidate offsets are drawn this many pairs at a time
DRAW_BLOCK = 256


def _offsets(rng: np.random.Generator):
    """Endless (ox, oy) candidate offsets: the doubles that scalar
    rng.uniform(-1.0, 1.0) calls would return, in their order, drawn
    DRAW_BLOCK pairs at a time."""
    while True:
        block = iter(rng.uniform(-1.0, 1.0, 2 * DRAW_BLOCK).tolist())
        yield from zip(block, block)


def build_udc(
    rng: np.random.Generator,
    macro_radius: float = 500.0,
    pico_radius: float = 50.0,
    n_picos: int = 28,
    max_attempts: int = 10_000,
) -> Topology:
    """Sequential random packing of picos inside the macro disc.

    Candidate centers are drawn uniformly over the disc of radius R - r
    (so the pico fits inside the macro) and accepted if at least 2r away
    from every previously placed center.  Each pico gets its own attempt
    budget; exhausting it raises TopologyError, as does a count whose
    discs together outcover the macro disc, which no packing can hold.
    Candidates come from rng in blocks, so rng is left further along than
    the attempts made.
    """
    if n_picos < 0:
        raise TopologyError("n_picos must be non-negative")
    if pico_radius >= macro_radius:
        raise TopologyError("pico_radius must be smaller than macro_radius")
    if n_picos * pico_radius * pico_radius > macro_radius * macro_radius:
        raise TopologyError(
            f"{n_picos} picos of radius {pico_radius} cover more area than "
            f"the macro disc of radius {macro_radius}"
        )
    inner = macro_radius - pico_radius
    too_close = 2.0 * pico_radius * (1 + SCREEN)
    z = np.empty(n_picos, dtype=complex)
    offsets = _offsets(rng)
    for i in range(n_picos):
        for ox, oy in islice(offsets, max_attempts):
            # Uniform over the inner disc via rejection from the square.
            if ox * ox + oy * oy > 1.0:
                continue
            cx = macro_radius + ox * inner
            cy = macro_radius + oy * inner
            near = (abs(z[:i] - complex(cx, cy)) < too_close).nonzero()[0]
            if all(math.hypot(cx - z[j].real, cy - z[j].imag) >= 2.0 * pico_radius
                   for j in near):
                z[i] = complex(cx, cy)
                break
        else:
            raise TopologyError(
                f"could not place pico {i} after {max_attempts} attempts"
            )
    topo = Topology("udc", macro_radius, z.real, z.imag, pico_radius)
    validate_topology(topo)
    return topo
