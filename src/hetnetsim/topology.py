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


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def validate_topology(topo: Topology) -> None:
    """Assert containment and pairwise non-overlap; raises TopologyError."""
    R = topo.macro.radius
    for p in topo.picos:
        d = _dist(p.x, p.y, topo.macro.x, topo.macro.y)
        if d + p.radius > R + 1e-9:
            raise TopologyError(f"pico {p.id} extends outside the macro disc")
    for i, a in enumerate(topo.picos):
        for b in topo.picos[i + 1 :]:
            if _dist(a.x, a.y, b.x, b.y) < a.radius + b.radius - 1e-9:
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
    picos = []
    for i in range(n_picos):
        ang = i * step
        picos.append(
            Cell(
                i,
                macro_radius + ring * math.cos(ang),
                macro_radius + ring * math.sin(ang),
                pico_radius,
                CellKind.PICO,
            )
        )
    topo = Topology("coe", macro, tuple(picos))
    validate_topology(topo)
    return topo


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
    placed: list[tuple[float, float]] = []
    for i in range(n_picos):
        for _ in range(max_attempts):
            # Uniform over the inner disc via rejection from the square.
            ox = rng.uniform(-1.0, 1.0)
            oy = rng.uniform(-1.0, 1.0)
            if ox * ox + oy * oy > 1.0:
                continue
            cx = macro_radius + ox * inner
            cy = macro_radius + oy * inner
            if all(
                _dist(cx, cy, px, py) >= 2.0 * pico_radius for px, py in placed
            ):
                placed.append((cx, cy))
                break
        else:
            raise PlacementFailure(
                f"could not place pico {i} after {max_attempts} attempts"
            )
    picos = tuple(
        Cell(i, x, y, pico_radius, CellKind.PICO) for i, (x, y) in enumerate(placed)
    )
    topo = Topology("udc", macro, picos)
    validate_topology(topo)
    return topo
