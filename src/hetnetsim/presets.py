"""Canned experiment families.

Each preset expands to a grid of scenarios, runs them in one
engine.run_scenarios call (points that share a user process simulate it
once), and writes CSVs plus a manifest.json holding everything needed to
reproduce the outputs byte-for-byte (preset name, seed, grid, package
version).  All presets use the shared default seed unless overridden.

    capacity_table       EE / capacity / power at thresholds {0, 8, 13} for
                         the three serving layouts, full-activity snapshot.
    threshold_sweep      EE and active-pico count vs. activation threshold
                         0..30, full-activity snapshot, uniform users.
    sleep_power_sweep    threshold sweep repeated across sleep-power levels
                         {0, 2, 4, 6, 8.6} W with 500 hotspot users.
    hotspot_sweep        threshold sweep across hotspot populations
                         {0, 250, 500, 750} at sleep power {0, 8.6} W.
    ee_timeseries        1000-slot EE traces: pico layouts vs. their
                         macro-only twins, sleep power {0, 8.6} W, plus
                         pico-layer views.
    occupancy_timeseries 1000-slot served-user counts under the 12/8
                         hysteresis policy.
    policy_compare       1000-slot traces for four control policies at two
                         sleep-power levels across four layouts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import __version__
from .config import parse_scenario
from .engine import (
    run_scenarios,
    write_histogram_csv,
    write_pico_view_csv,
    write_slot_csv,
    write_sweep_csv,
    write_users_csv,
)

DEFAULT_SEED = 1


class UnknownPreset(Exception):
    pass


def _ptag(p_sleep: float) -> str:
    return str(p_sleep).replace(".", "p")


def _single_threshold_doc(t: float) -> dict:
    return {"t_activate": float(t), "t_deactivate": None}


# --- snapshot sweep families ----------------------------------------------


def _snapshot_doc(topology: str, seed: int, threshold: float, *,
                  realizations: int = 100, hotspot: int = 0,
                  p_uniform: float = 1.0, p_hotspot: float = 1.0,
                  p_sleep: float = 0.0) -> dict:
    return {
        "topology": topology,
        "seed": seed,
        "slots": 1,
        "realizations": realizations,
        "users": {
            "hotspot": hotspot,
            "activity_uniform": p_uniform,
            "activity_hotspot": p_hotspot,
        },
        "policy": _single_threshold_doc(threshold),
        "power": {"pico": {"p_sleep_w": p_sleep}},
    }


def _capacity_table(outdir: Path, seed: int):
    thresholds = [0, 8, 13]
    topologies = ["monet", "coe", "udc"]
    points = [(t, topo) for t in thresholds for topo in topologies]
    results = run_scenarios(
        [parse_scenario(_snapshot_doc(topo, seed, t)) for t, topo in points]
    )
    write_sweep_csv([(t, res) for (t, _), res in zip(points, results)],
                    outdir / "sweep.csv")
    grid = {"thresholds": thresholds, "topologies": topologies,
            "realizations": 100, "activity": 1.0, "p_sleep_w": 0.0}
    return grid, ["sweep.csv"]


def _threshold_sweep(outdir: Path, seed: int):
    thresholds = list(range(0, 31))
    topologies = ["monet", "coe", "udc"]
    points = [(t, topo) for topo in topologies for t in thresholds]
    results = run_scenarios(
        [parse_scenario(_snapshot_doc(topo, seed, t)) for t, topo in points]
    )
    write_sweep_csv([(t, res) for (t, _), res in zip(points, results)],
                    outdir / "sweep.csv")
    with open(outdir / "pico_count.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,topology,active_picos_mean\n")
        for (t, topo), res in zip(points, results):
            fh.write(f"{t},{topo},{res.active_picos_mean!r}\n")
    grid = {"thresholds": thresholds, "topologies": topologies,
            "realizations": 100, "activity": 1.0, "p_sleep_w": 0.0}
    return grid, ["sweep.csv", "pico_count.csv"]


def _population_sweep(outdir: Path, seed: int,
                      files: dict[tuple[float, int], str],
                      thresholds: list[int], topologies: list[str]) -> list[str]:
    """One sweep CSV per (sleep power, hotspot count) key of files: every
    topology x threshold of the snapshot family at 40 % / 80 % activity."""
    points = [(key, topo, t) for key in files for topo in topologies
              for t in thresholds]
    results = run_scenarios([
        parse_scenario(_snapshot_doc(topo, seed, t, hotspot=h, p_uniform=0.4,
                                     p_hotspot=0.8, p_sleep=p))
        for (p, h), topo, t in points
    ])
    for key, name in files.items():
        write_sweep_csv([(t, res) for (k, _, t), res in zip(points, results)
                         if k == key], outdir / name)
    return list(files.values())


def _sleep_power_sweep(outdir: Path, seed: int):
    p_sleeps = [0.0, 2.0, 4.0, 6.0, 8.6]
    thresholds = list(range(0, 31))
    topologies = ["coe", "udc", "monet_coe_users", "monet_udc_users"]
    files = _population_sweep(
        outdir, seed, {(p, 500): f"sweep_psleep{_ptag(p)}.csv" for p in p_sleeps},
        thresholds, topologies,
    )
    grid = {"p_sleep_w": p_sleeps, "thresholds": thresholds,
            "topologies": topologies, "hotspot": 500, "realizations": 100}
    return grid, files


def _hotspot_sweep(outdir: Path, seed: int):
    p_sleeps = [0.0, 8.6]
    hotspots = [0, 250, 500, 750]
    thresholds = list(range(0, 31))
    topologies = ["coe", "udc", "monet_coe_users", "monet_udc_users"]
    files = _population_sweep(
        outdir, seed,
        {(p, h): f"sweep_psleep{_ptag(p)}_hotspot{h}.csv"
         for p in p_sleeps for h in hotspots},
        thresholds, topologies,
    )
    grid = {"p_sleep_w": p_sleeps, "hotspot": hotspots,
            "thresholds": thresholds, "topologies": topologies,
            "realizations": 100}
    return grid, files


# --- time-series families --------------------------------------------------


def _timeseries_doc(topology: str, seed: int, *, policy: dict,
                    p_sleep: float = 8.6, hotspot: int = 500,
                    slots: int = 1000) -> dict:
    return {
        "topology": topology,
        "seed": seed,
        "slots": slots,
        "realizations": 1,
        "users": {"hotspot": hotspot},
        "policy": policy,
        "power": {"pico": {"p_sleep_w": p_sleep}},
    }


def _run_and_write(runs: list[tuple[dict, str, bool]],
                   outdir: Path) -> list[str]:
    """Run every (scenario document, file stem, pico view) in one call and
    write each run's slot, user and histogram CSVs (plus the pico-layer
    view where asked)."""
    results = run_scenarios([parse_scenario(doc) for doc, _, _ in runs], {"per_user"})
    files = []
    for (_, base, pico_view), res in zip(runs, results):
        names = [f"{base}.csv", f"{base}_users.csv", f"{base}_hist.csv"]
        write_slot_csv(res, outdir / names[0])
        write_users_csv(res, outdir / names[1])
        write_histogram_csv(res, outdir / names[2])
        if pico_view:
            names.append(f"{base}_pico.csv")
            write_pico_view_csv(res, outdir / names[3])
        files += names
    return files


def _ee_timeseries(outdir: Path, seed: int):
    topologies = ["udc", "coe", "monet_udc_users", "monet_coe_users"]
    p_sleeps = [0.0, 8.6]
    files = _run_and_write(
        [
            (_timeseries_doc(topo, seed, policy=_single_threshold_doc(5), p_sleep=p),
             f"{topo}_psleep{_ptag(p)}", topo in ("udc", "coe"))
            for p in p_sleeps for topo in topologies
        ],
        outdir,
    )
    grid = {"topologies": topologies, "p_sleep_w": p_sleeps,
            "policy": {"t_activate": 5}, "hotspot": 500, "slots": 1000}
    return grid, files


def _occupancy_timeseries(outdir: Path, seed: int):
    topologies = ["udc", "coe"]
    policy = {"t_activate": 12.0, "t_deactivate": 8.0}
    files = _run_and_write(
        [(_timeseries_doc(topo, seed, policy=policy), topo, False)
         for topo in topologies],
        outdir,
    )
    grid = {"topologies": topologies, "policy": {"t_activate": 12, "t_deactivate": 8},
            "p_sleep_w": 8.6, "hotspot": 500, "slots": 1000}
    return grid, files


def _policy_compare(outdir: Path, seed: int):
    policies = {
        "one5": _single_threshold_doc(5),
        "two9_4": {"t_activate": 9.0, "t_deactivate": 4.0},
        "one9": _single_threshold_doc(9),
        "one12": _single_threshold_doc(12),
    }
    topologies = ["udc", "coe", "monet_udc_users", "monet_coe_users"]
    p_sleeps = [0.0, 8.6]
    files = _run_and_write(
        [
            (_timeseries_doc(topo, seed, policy=policy, p_sleep=p),
             f"{topo}_{ptag}_psleep{_ptag(p)}", False)
            for ptag, policy in policies.items() for p in p_sleeps
            for topo in topologies
        ],
        outdir,
    )
    grid = {"policies": {k: v for k, v in policies.items()},
            "topologies": topologies, "p_sleep_w": p_sleeps,
            "hotspot": 500, "slots": 1000}
    return grid, files


PRESETS: dict[str, tuple[str, Callable]] = {
    "capacity_table": (
        "EE/capacity/power at thresholds {0,8,13}, 3 layouts, full activity",
        _capacity_table,
    ),
    "threshold_sweep": (
        "EE and active-pico count vs. threshold 0..30, full activity",
        _threshold_sweep,
    ),
    "sleep_power_sweep": (
        "threshold sweep at sleep powers {0,2,4,6,8.6} W, 500 hotspot users",
        _sleep_power_sweep,
    ),
    "hotspot_sweep": (
        "threshold sweep at hotspot counts {0,250,500,750}, sleep {0,8.6} W",
        _hotspot_sweep,
    ),
    "ee_timeseries": (
        "1000-slot EE traces, pico layouts vs. macro-only twins",
        _ee_timeseries,
    ),
    "occupancy_timeseries": (
        "1000-slot served-user counts under 12/8 hysteresis",
        _occupancy_timeseries,
    ),
    "policy_compare": (
        "1000-slot traces for 4 policies x 2 sleep powers x 4 layouts",
        _policy_compare,
    ),
}


def run_preset(name: str, outdir: str | Path, seed: int = DEFAULT_SEED) -> Path:
    """Run a named preset into outdir; returns the manifest path."""
    if name not in PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
