"""Cell layouts for the two-tier network.

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
from enum import Enum
from itertools import islice

import numpy as np


class TopologyError(Exception):
    """Base class for layout construction failures."""


class RingOverflow(TopologyError):
    """Requested more ring picos than fit edge-to-edge on the ring."""


class PlacementFailure(TopologyError):
    """Random placement could not fit all picos within the attempt budget."""


class CellKind(Enum):
    MACRO = "macro"
    PICO = "pico"


@dataclass(frozen=True)
class Cell:
    id: int
    x: float
    y: float
    radius: float
    kind: CellKind


@dataclass(frozen=True)
class Topology:
    """Immutable layout: one macro cell plus zero or more picos."""

    kind: str
    macro: Cell
    picos: tuple[Cell, ...]

    def pico_centers(self) -> np.ndarray:
        """(m, 2) array of pico centers; shape (0, 2) when there are none."""
        if not self.picos:
            return np.empty((0, 2))
        return np.array([[p.x, p.y] for p in self.picos])

    def pico_radius(self) -> float:
        if not self.picos:
            return 0.0
        return self.picos[0].radius

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "macro": {"x": self.macro.x, "y": self.macro.y, "r": self.macro.radius},
            "picos": [
                {"id": p.id, "x": p.x, "y": p.y, "r": p.radius} for p in self.picos
            ],
        }
        return json.dumps(doc, indent=2)


# |z - w| over complex arrays screens out the pairs far from a threshold;
# it differs from math.hypot, which decides the rest, by far less than this.
SCREEN = 1e-9


def validate_topology(topo: Topology) -> None:
    """Assert containment, then pairwise non-overlap: the first offending
    pico, then pair (i, j), in scan order raises TopologyError."""
    R, M, picos, m = topo.macro.radius, topo.macro, topo.picos, len(topo.picos)
    z, r = np.array([complex(p.x, p.y) for p in picos]), np.array([p.radius for p in picos])
    for p in (picos[i] for i in np.flatnonzero(
            abs(z - complex(M.x, M.y)) + r > (R + 1e-9) * (1 - SCREEN))):
        if math.hypot(p.x - M.x, p.y - M.y) + p.radius > R + 1e-9:
            raise TopologyError(f"pico {p.id} extends outside the macro disc")
    block = max(1, 2**18 // max(m, 1))  # rows i of pairs (i, j > i) screened at once
    for lo in range(0, m, block):
        i = np.arange(lo, min(lo + block, m))[:, None]
        gap = r[i] + r[lo:] - 1e-9
        near = (abs(z[i] - z[lo:]) < gap * (1 + SCREEN)) & (np.arange(lo, m) > i)
        for a, b in ((picos[lo + u], picos[lo + v]) for u, v in zip(*near.nonzero())):
            if math.hypot(a.x - b.x, a.y - b.y) < a.radius + b.radius - 1e-9:
                raise TopologyError(f"picos {a.id} and {b.id} overlap")


def build_monet(macro_radius: float = 500.0) -> Topology:
    macro = Cell(0, macro_radius, macro_radius, macro_radius, CellKind.MACRO)
    return Topology("monet", macro, ())


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
        raise RingOverflow(
            f"{n_picos} picos of radius {pico_radius} do not fit on the ring "
            f"(need {n_picos * step:.4f} rad, have {2 * math.pi:.4f})"
        )
    macro = Cell(0, macro_radius, macro_radius, macro_radius, CellKind.MACRO)
    picos = tuple(
        Cell(i, macro_radius + ring * math.cos(i * step),
             macro_radius + ring * math.sin(i * step), pico_radius, CellKind.PICO)
        for i in range(n_picos)
    )
    topo = Topology("coe", macro, picos)
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
    budget; exhausting it raises PlacementFailure, as does a count whose
    discs together outcover the macro disc, which no packing can hold.
    Candidates come from rng in blocks, so rng is left further along than
    the attempts made.
    """
    if n_picos < 0:
        raise TopologyError("n_picos must be non-negative")
    if pico_radius >= macro_radius:
        raise TopologyError("pico_radius must be smaller than macro_radius")
    if n_picos * pico_radius * pico_radius > macro_radius * macro_radius:
        raise PlacementFailure(
            f"{n_picos} picos of radius {pico_radius} cover more area than "
            f"the macro disc of radius {macro_radius}"
        )
    macro = Cell(0, macro_radius, macro_radius, macro_radius, CellKind.MACRO)
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
            raise PlacementFailure(
                f"could not place pico {i} after {max_attempts} attempts"
            )
    picos = tuple(Cell(i, x, y, pico_radius, CellKind.PICO)
                  for i, (x, y) in enumerate(zip(z.real.tolist(), z.imag.tolist())))
    topo = Topology("udc", macro, picos)
    validate_topology(topo)
    return topo
