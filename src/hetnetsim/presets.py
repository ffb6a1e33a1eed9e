"""Canned experiment families.

Each preset expands to a grid of scenario documents and hands it to one
of two drivers, each of which runs all its points in one
engine.run_scenarios call (points that share a user process simulate it
once): run_sweeps, shared with `hetnetsim sweep`, or _run_timeseries.  A
preset's manifest.json holds everything needed to reproduce its outputs
byte-for-byte: preset name, seed, grid and package version.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Callable

from . import __version__
from .config import ConfigError, parse_scenario
from .engine import (
    RunResult,
    run_scenarios,
    write_file,
    write_histogram_csv,
    write_pico_view_csv,
    write_slot_csv,
    write_sweep_csv,
    write_users_csv,
)

DEFAULT_SEED = 1

# grid values that several presets share
THRESHOLDS = list(range(0, 31))
FULL_ACTIVITY_LAYOUTS = ["monet", "coe", "udc"]
# the pico layouts and their macro-only twins: snapshot and time-series
# presets list them in different orders, and their manifests keep them
SNAPSHOT_LAYOUTS = ["coe", "udc", "monet_coe_users", "monet_udc_users"]
TIMESERIES_LAYOUTS = ["udc", "coe", "monet_udc_users", "monet_coe_users"]
P_SLEEPS = [0.0, 8.6]
REALIZATIONS = 100
HOTSPOT = 500
SLOTS = 1000


def _ptag(p_sleep: float) -> str:
    return str(p_sleep).replace(".", "p")


def _one_threshold(t: float) -> dict:
    return {"t_activate": float(t), "t_deactivate": None}


def _document(topology: str, seed: int, policy: dict, p_sleep: float,
              users: dict, slots: int = 1) -> dict:
    """A preset's scenario document: a snapshot of REALIZATIONS
    realizations, or one realization of several slots."""
    return {"topology": topology, "seed": seed, "slots": slots,
            "realizations": REALIZATIONS if slots == 1 else 1, "users": users,
            "policy": policy, "power": {"pico": {"p_sleep_w": p_sleep}}}


def run_sweeps(outdir: str | Path, sweeps: dict[str, list[tuple[float, dict]]]
               ) -> list[tuple[float, RunResult]]:
    """Parse every (threshold label, scenario document) point of sweeps,
    run them all in one call and write one sweep CSV per file name;
    returns the (label, result) pairs in order."""
    points = [point for file_points in sweeps.values() for point in file_points]
    results = run_scenarios([parse_scenario(doc) for _, doc in points])
    pairs = [(label, res) for (label, _), res in zip(points, results)]
    rows = iter(pairs)
    for name, file_points in sweeps.items():
        write_sweep_csv(islice(rows, len(file_points)), Path(outdir) / name)
    return pairs


def _run_timeseries(outdir: Path, seed: int,
                    runs: dict[str, tuple[str, dict, float]],
                    pico_views: bool = False) -> list[str]:
    """Run every {file stem: (topology, policy, sleep power)} entry, SLOTS
    slots with HOTSPOT hotspot users, in one call; write each run's slot,
    user and histogram CSVs, and with pico_views the pico-layer view of
    each run whose picos serve.  Returns the file names."""
    docs = [_document(topo, seed, policy, p, {"hotspot": HOTSPOT}, SLOTS)
            for topo, policy, p in runs.values()]
    results = run_scenarios([parse_scenario(doc) for doc in docs], True)
    files = []
    for stem, res in zip(runs, results):
        writers = {"": write_slot_csv, "_users": write_users_csv,
                   "_hist": write_histogram_csv}
        if pico_views and res.scenario.serves_from_picos():
            writers["_pico"] = write_pico_view_csv
        for suffix, write in writers.items():
            files.append(f"{stem}{suffix}.csv")
            write(res, outdir / files[-1])
    return files


def _full_activity(outdir: Path, seed: int, thresholds: list[int]):
    """sweep.csv of every FULL_ACTIVITY_LAYOUTS x thresholds snapshot with
    every user active and free sleep, rows layout-major; returns the
    manifest grid and the (threshold, result) pairs."""
    activity, p_sleep = 1.0, 0.0
    users = {"activity_uniform": activity, "activity_hotspot": activity}
    pairs = run_sweeps(outdir, {"sweep.csv": [
        (t, _document(topo, seed, _one_threshold(t), p_sleep, users))
        for topo in FULL_ACTIVITY_LAYOUTS for t in thresholds
    ]})
    grid = {"thresholds": thresholds, "topologies": FULL_ACTIVITY_LAYOUTS,
            "realizations": REALIZATIONS, "activity": activity, "p_sleep_w": p_sleep}
    return grid, pairs


def _capacity_table(outdir: Path, seed: int):
    grid, _ = _full_activity(outdir, seed, [0, 8, 13])
    return grid, ["sweep.csv"]


def _threshold_sweep(outdir: Path, seed: int):
    grid, pairs = _full_activity(outdir, seed, THRESHOLDS)
    write_sweep_csv(pairs, outdir / "pico_count.csv", ("active_picos_mean",))
    return grid, ["sweep.csv", "pico_count.csv"]


def _population_sweep(outdir: Path, seed: int,
                      files: dict[tuple[float, int], str]) -> list[str]:
    """One sweep CSV per (sleep power, hotspot count) key of files: every
    SNAPSHOT_LAYOUTS x THRESHOLDS snapshot at the default activities."""
    run_sweeps(outdir, {
        name: [(t, _document(topo, seed, _one_threshold(t), p, {"hotspot": h}))
               for topo in SNAPSHOT_LAYOUTS for t in THRESHOLDS]
        for (p, h), name in files.items()
    })
    return list(files.values())


def _sleep_power_sweep(outdir: Path, seed: int):
    p_sleeps = [0.0, 2.0, 4.0, 6.0, 8.6]
    files = _population_sweep(outdir, seed, {
        (p, HOTSPOT): f"sweep_psleep{_ptag(p)}.csv" for p in p_sleeps})
    grid = {"p_sleep_w": p_sleeps, "thresholds": THRESHOLDS, "hotspot": HOTSPOT,
            "topologies": SNAPSHOT_LAYOUTS, "realizations": REALIZATIONS}
    return grid, files


def _hotspot_sweep(outdir: Path, seed: int):
    hotspots = [0, 250, 500, 750]
    files = _population_sweep(outdir, seed, {
        (p, h): f"sweep_psleep{_ptag(p)}_hotspot{h}.csv"
        for p in P_SLEEPS for h in hotspots})
    grid = {"p_sleep_w": P_SLEEPS, "hotspot": hotspots, "thresholds": THRESHOLDS,
            "topologies": SNAPSHOT_LAYOUTS, "realizations": REALIZATIONS}
    return grid, files


def _ee_timeseries(outdir: Path, seed: int):
    t_activate = 5
    files = _run_timeseries(outdir, seed, {
        f"{topo}_psleep{_ptag(p)}": (topo, _one_threshold(t_activate), p)
        for p in P_SLEEPS for topo in TIMESERIES_LAYOUTS
    }, pico_views=True)
    grid = {"topologies": TIMESERIES_LAYOUTS, "p_sleep_w": P_SLEEPS,
            "policy": {"t_activate": t_activate}, "hotspot": HOTSPOT, "slots": SLOTS}
    return grid, files


def _occupancy_timeseries(outdir: Path, seed: int):
    topologies = ["udc", "coe"]
    policy = {"t_activate": 12, "t_deactivate": 8}
    p_sleep = 8.6
    files = _run_timeseries(outdir, seed,
                            {topo: (topo, policy, p_sleep) for topo in topologies})
    grid = {"topologies": topologies, "policy": policy, "p_sleep_w": p_sleep,
            "hotspot": HOTSPOT, "slots": SLOTS}
    return grid, files


def _policy_compare(outdir: Path, seed: int):
    policies = {
        "one5": _one_threshold(5),
        "two9_4": {"t_activate": 9.0, "t_deactivate": 4.0},
        "one9": _one_threshold(9),
        "one12": _one_threshold(12),
    }
    files = _run_timeseries(outdir, seed, {
        f"{topo}_{ptag}_psleep{_ptag(p)}": (topo, policy, p)
        for ptag, policy in policies.items() for p in P_SLEEPS
        for topo in TIMESERIES_LAYOUTS
    })
    grid = {"policies": policies, "topologies": TIMESERIES_LAYOUTS,
            "p_sleep_w": P_SLEEPS, "hotspot": HOTSPOT, "slots": SLOTS}
    return grid, files


PRESETS: dict[str, tuple[str, Callable]] = {
    "capacity_table": (
        "EE/capacity/power at thresholds {0,8,13}, 3 layouts, full activity",
        _capacity_table),
    "threshold_sweep": (
        "EE and active-pico count vs. threshold 0..30, full activity",
        _threshold_sweep),
    "sleep_power_sweep": (
        "threshold sweep at sleep powers {0,2,4,6,8.6} W, 500 hotspot users",
        _sleep_power_sweep),
    "hotspot_sweep": (
        "threshold sweep at hotspot counts {0,250,500,750}, sleep {0,8.6} W",
        _hotspot_sweep),
    "ee_timeseries": (
        "1000-slot EE traces, pico layouts vs. macro-only twins",
        _ee_timeseries),
    "occupancy_timeseries": (
        "1000-slot served-user counts under 12/8 hysteresis",
        _occupancy_timeseries),
    "policy_compare": (
        "1000-slot traces for 4 policies x 2 sleep powers x 4 layouts",
        _policy_compare),
}


def run_preset(name: str, outdir: str | Path, seed: int) -> Path:
    """Run a named preset into outdir; returns the manifest path."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    outdir = Path(outdir)
    _, runner = PRESETS[name]
    grid, files = runner(outdir, seed)
    manifest = {
        "preset": name,
        "seed": seed,
        "version": __version__,
        "grid": grid,
        "files": sorted(files),
    }
    manifest_path = outdir / "manifest.json"
    write_file(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return manifest_path
