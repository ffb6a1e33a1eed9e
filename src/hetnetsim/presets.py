"""Canned experiment families.

A preset is one PRESETS entry: description, driver and grid.  The driver
reads every scenario document and file name off the grid and writes each
file to part(name), part being the engine.staged stage of run_preset.
manifest.json records that very grid beside the preset name, seed,
package version and the files the stage recorded: all it takes to
rebuild the outputs byte-for-byte.
Each driver runs all its points in one engine.run_scenarios call (points
that share a user process simulate it once): _sweep writes one sweep CSV
per sleep power x hotspot count through run_sweeps (shared with
`hetnetsim sweep`), and _timeseries one run per topology x policy x
sleep power.  A file axis given as a list tags the file names
(_psleep0p0, _hotspot250, _one5); a single value adds no tag.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable

from . import __version__
from .config import ConfigError, parse_scenario
from .engine import (
    RunResult,
    run_scenarios,
    staged,
    write_file,
    write_histogram_csv,
    write_pico_view_csv,
    write_slot_csv,
    write_sweep_csv,
    write_users_csv,
)

DEFAULT_SEED = 1


def run_sweeps(part: Callable[[str], Path], sweeps: dict[str, list[tuple[float, dict]]]
               ) -> list[tuple[float, RunResult]]:
    """Parse every (threshold label, scenario document) point of sweeps,
    run them all in one call and write one sweep CSV per file name to
    part(name); returns the (label, result) pairs in order."""
    points = [point for file_points in sweeps.values() for point in file_points]
    results = run_scenarios([parse_scenario(doc) for _, doc in points])
    pairs = [(label, res) for (label, _), res in zip(points, results)]
    rows = iter(pairs)
    for name, file_points in sweeps.items():
        write_sweep_csv(islice(rows, len(file_points)), part(name))
    return pairs


def _axis(grid: dict, key: str, tag: str) -> list[tuple[str, object]]:
    """The (file tag, value) pairs of grid[key]: a list tags each value
    (_psleep0p0 for 0.0 with tag psleep); a single value, or none, adds
    no tag."""
    values = grid.get(key)
    if not isinstance(values, list):
        return [("", values)]
    return [(f"_{tag}{v}".replace(".", "p"), v) for v in values]


def _sweep(part: Callable[[str], Path], seed: int, grid: dict
           ) -> list[tuple[int, RunResult]]:
    """The sweep driver: runs the sweep CSVs of a snapshot grid through
    run_sweeps, one per sleep power x hotspot count, each of (threshold,
    one-threshold snapshot document) points, topology-major; the users
    section takes the grid's hotspot count and activity, where it has
    them.  Returns run_sweeps' (threshold, result) pairs."""
    a = grid.get("activity")
    return run_sweeps(part, {
        f"sweep{ptag}{htag}.csv": [
            (t, {"topology": topo, "seed": seed, "realizations": grid["realizations"],
                 "users": {key: v for key, v in (("hotspot", h), ("activity_uniform", a),
                                                 ("activity_hotspot", a)) if v is not None},
                 "policy": {"t_activate": float(t), "t_deactivate": None},
                 "power": {"pico": {"p_sleep_w": p}}})
            for topo in grid["topologies"] for t in grid["thresholds"]]
        for ptag, p in _axis(grid, "p_sleep_w", "psleep")
        for htag, h in _axis(grid, "hotspot", "hotspot")
    })


def _threshold_sweep(part: Callable[[str], Path], seed: int, grid: dict) -> None:
    """The sweep driver, plus every point's mean active-pico count in
    pico_count.csv."""
    write_sweep_csv(_sweep(part, seed, grid), part("pico_count.csv"), ("active_picos_mean",))


def _timeseries(part: Callable[[str], Path], seed: int, grid: dict,
                pico_views: bool = False) -> None:
    """The time-series driver: one run of grid["slots"] slots with
    grid["hotspot"] hotspot users per topology x policy x sleep power, in
    one call; the policy axis is one "policy", or named "policies" that
    tag the file names.  Writes each run's slot, user and histogram CSVs,
    and with pico_views the pico-layer view of each run whose picos
    serve."""
    policies = ([(f"_{name}", policy) for name, policy in grid["policies"].items()]
                if "policies" in grid else [("", grid["policy"])])
    runs = {
        f"{topo}{qtag}{ptag}": {
            "topology": topo, "seed": seed, "slots": grid["slots"],
            "users": {"hotspot": grid["hotspot"]}, "policy": policy,
            "power": {"pico": {"p_sleep_w": p}}}
        for qtag, policy in policies for ptag, p in _axis(grid, "p_sleep_w", "psleep")
        for topo in grid["topologies"]
    }
    results = run_scenarios([parse_scenario(doc) for doc in runs.values()], True)
    for stem, res in zip(runs, results):
        writers = {"": write_slot_csv, "_users": write_users_csv, "_hist": write_histogram_csv}
        if pico_views and res.scenario.serves_from_picos():
            writers["_pico"] = write_pico_view_csv
        for suffix, write in writers.items():
            write(res, part(f"{stem}{suffix}.csv"))


# grid values that several presets share
HOTSPOT = 500
P_SLEEPS = [0.0, 8.6]
SNAPSHOTS = {"thresholds": list(range(0, 31)), "realizations": 100}
# threshold_sweep: every user active, free sleep
FULL_ACTIVITY = {**SNAPSHOTS, "topologies": ["monet", "coe", "udc"],
                 "activity": 1.0, "p_sleep_w": 0.0}
# the pico layouts and their macro-only twins: snapshot and time-series
# presets list them in different orders, and their manifests keep them
POPULATIONS = {**SNAPSHOTS, "hotspot": HOTSPOT,
               "topologies": ["coe", "udc", "monet_coe_users", "monet_udc_users"]}
TIMESERIES = {"topologies": ["udc", "coe", "monet_udc_users", "monet_coe_users"],
              "p_sleep_w": P_SLEEPS, "hotspot": HOTSPOT, "slots": 1000}

# name -> (description, driver, grid); run_preset calls driver(part,
# seed, grid) inside engine.staged and writes grid to manifest.json
PRESETS: dict[str, tuple[str, Callable, dict]] = {
    "capacity_table": (
        "EE/capacity/power at thresholds {0,8,13}, 3 layouts, full activity",
        _sweep, {**FULL_ACTIVITY, "thresholds": [0, 8, 13]}),
    "threshold_sweep": (
        "EE and active-pico count vs. threshold 0..30, full activity",
        _threshold_sweep, FULL_ACTIVITY),
    "sleep_power_sweep": (
        "threshold sweep at sleep powers {0,2,4,6,8.6} W, 500 hotspot users",
        _sweep, {**POPULATIONS, "p_sleep_w": [0.0, 2.0, 4.0, 6.0, 8.6]}),
    "hotspot_sweep": (
        "threshold sweep at hotspot counts {0,250,500,750}, sleep {0,8.6} W",
        _sweep, {**POPULATIONS, "p_sleep_w": P_SLEEPS, "hotspot": [0, 250, 500, 750]}),
    # 5/4 hysteresis (t_deactivate keeps its default 4): for integer
    # counts the same control as the one-threshold rule at 5
    "ee_timeseries": (
        "1000-slot EE traces, pico layouts vs. macro-only twins",
        partial(_timeseries, pico_views=True), {**TIMESERIES, "policy": {"t_activate": 5}}),
    "occupancy_timeseries": (
        "1000-slot served-user counts under 12/8 hysteresis",
        _timeseries, {**TIMESERIES, "topologies": ["udc", "coe"], "p_sleep_w": 8.6,
                      "policy": {"t_activate": 12, "t_deactivate": 8}}),
    "policy_compare": (
        "1000-slot traces for 4 policies x 2 sleep powers x 4 layouts",
        _timeseries, {**TIMESERIES, "policies": {
            "one5": {"t_activate": 5.0, "t_deactivate": None},
            "two9_4": {"t_activate": 9.0, "t_deactivate": 4.0},
            "one9": {"t_activate": 9.0, "t_deactivate": None},
            "one12": {"t_activate": 12.0, "t_deactivate": None},
        }}),
}


def run_preset(name: str, outdir: str | Path, seed: int) -> Path:
    """Run a named preset into outdir; returns the manifest path."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    _, driver, grid = PRESETS[name]
    with staged(outdir) as part:
        driver(part, seed, grid)
        manifest = {"preset": name, "seed": seed, "version": __version__, "grid": grid,
                    "files": sorted(part.names)}
        write_file(part("manifest.json"),
                   [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return Path(outdir) / "manifest.json"
