"""Spans for the traced run, recorded from outside the package.

Each public function is wrapped where its callers look it up (a caller
that did ``from .mobility import step_population`` looks it up in its own
module), so the program's code is unchanged.  A span is (name, start, end,
parent).  Spans stay in memory and are written to one file when the run
ends; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"

_WRITERS = (
    "write_slot_csv", "write_users_csv", "write_histogram_csv",
    "write_user_trace_csv", "write_pico_trace_csv", "write_sweep_csv",
    "write_pico_view_csv",
)

# (module whose global the caller reads, attribute, span name).  The span
# is named after the layer the function belongs to; build_geometry, the
# layout step, is defined in engine.  Topology.to_json serializes
# topology.json, the one result file not written by a write_* function.
WRAPS = (
    ("config", "parse_scenario", "config.parse_scenario"),
    ("cli", "parse_scenario", "config.parse_scenario"),
    ("presets", "parse_scenario", "config.parse_scenario"),
    ("cli", "build_geometry", "topology.build_geometry"),
    ("engine", "build_geometry", "topology.build_geometry"),
    ("cli", "run_scenario", "engine.run_scenario"),
    ("presets", "run_scenario", "engine.run_scenario"),
    ("engine", "World", "engine.World"),
    ("engine", "init_population", "mobility.init_population"),
    ("engine", "step_population", "mobility.step_population"),
    ("engine", "draw_activity_flags", "mobility.draw_activity_flags"),
    ("kernels", "advance_positions", "kernels.advance_positions"),
    ("kernels", "containing_disc", "kernels.containing_disc"),
    ("kernels", "link_capacity", "kernels.link_capacity"),
    ("engine", "step_state", "control.step_state"),
    ("engine", "consumed_power_w", "power.consumed_power_w"),
    *((mod, fn, "engine.write") for mod in ("cli", "presets") for fn in _WRITERS),
    ("topology", "Topology.to_json", "engine.write"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._open = [-1]

    def wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()

        return traced

    def install(self, package: str) -> list[str]:
        """Wrap every WRAPS entry; returns the ones the package lacks."""
        absent = []
        for mod_name, path, span in WRAPS:
            owner = importlib.import_module(f"{package}.{mod_name}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{path}")
            else:
                setattr(owner, attr, self.wrap(fn, span))
        return absent

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )


def span_totals(path) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), from a file Tracer.save wrote.
    Every name in WRAPS appears, with (0, 0.0) when it never ran."""
    with np.load(path) as z:
        names, name, parent = list(z["names"]), z["name"], z["parent"]
        dur = z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    totals = {span: (0, 0.0) for _, _, span in WRAPS}
    for i, span in enumerate(names):
        totals[span] = (int(calls[i]), float(self_s[i]))
    return totals
