"""The benchmark's workloads: scenario, command line, input size.

Every workload drives the public CLI (``hetnetsim.cli.main``).  The
program sees only the generated scenario file (which carries the seed) or,
for the preset, ``--seed``.  README.md in this directory says why each
workload exists and which modules it loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

# Seed at which digests.json holds the SHA-256 of every result file.
DEFAULT_SEED = 1

# Power floors of the default power model (power.MACRO_POWER / PICO_POWER),
# restated here so the output gate does not trust the program under test.
MACRO_ACTIVE_FLOOR_W = 3 * 260.0  # 3 sectors x p0_w, at zero load
PICO_SECTORS = 1


@dataclass(frozen=True)
class RunWorkload:
    """``hetnetsim run`` on one multi-slot udc scenario, 12/8 hysteresis."""

    name: str
    users: int
    hotspot: int
    n_picos: int
    pico_radius_m: float
    slots: int
    p_sleep_w: float = 8.6
    traces: bool = False
    size: str = "full"

    @property
    def key(self) -> str:
        return self.name if self.size == "full" else f"{self.name}@{self.size}"

    @property
    def user_slots(self) -> float:
        return float(self.users * self.slots)

    def scenario(self, seed: int) -> dict:
        return {
            "topology": "udc",
            "seed": seed,
            "slots": self.slots,
            "users": {"total": self.users, "hotspot": self.hotspot},
            "layout": {"n_picos": self.n_picos, "pico_radius_m": self.pico_radius_m},
            "policy": {"t_activate": 12.0, "t_deactivate": 8.0},
            "power": {"pico": {"p_sleep_w": self.p_sleep_w}},
        }

    def cli_args(self, seed: int, workdir: Path, outdir: Path) -> list[str]:
        """Write the scenario file into workdir; the CLI arguments to run it."""
        scenario = workdir / "scenario.yaml"
        # JSON is valid YAML; the file is the program's only input.
        scenario.write_text(json.dumps(self.scenario(seed), indent=2) + "\n")
        argv = ["run", "--scenario", str(scenario), "--out", str(outdir)]
        if self.traces:
            argv += ["--trace-users", "--trace-picos"]
        return argv

    def result_files(self) -> list[str]:
        files = ["histogram.csv", "slots.csv", "topology.json", "users.csv"]
        if self.traces:
            files += ["pico_trace.csv", "user_trace.csv"]
        return sorted(files)


@dataclass(frozen=True)
class PresetWorkload:
    """``hetnetsim preset threshold_sweep``: 3 layouts x T = 0..30, each a
    100-realization snapshot of 1000 users; no slot stepping."""

    name: str
    preset: str = "threshold_sweep"
    points: int = 93
    realizations: int = 100
    users: int = 1000
    n_picos: int = 28  # coe and udc; monet has none

    @property
    def key(self) -> str:
        return self.name

    @property
    def user_slots(self) -> float:
        return float(self.points * self.realizations * self.users)

    def cli_args(self, seed: int, workdir: Path, outdir: Path) -> list[str]:
        return ["preset", self.preset, "--out", str(outdir), "--seed", str(seed)]

    def result_files(self) -> list[str]:
        # manifest.json carries the package version, so it is not digested.
        return ["pico_count.csv", "sweep.csv"]


@dataclass(frozen=True)
class SweepWorkload:
    """``hetnetsim sweep`` of the activation threshold over T = 0..t_max on
    one 100-realization snapshot scenario of 1000 users, as threshold_sweep
    runs it (up to T = 30) for each of its three topologies; no slot
    stepping."""

    name: str
    topology: str = "udc"
    t_max: int = 15
    realizations: int = 100
    users: int = 1000
    n_picos: int = 28
    size: str = "full"

    @property
    def key(self) -> str:
        return self.name if self.size == "full" else f"{self.name}@{self.size}"

    @property
    def points(self) -> int:
        return self.t_max + 1

    @property
    def user_slots(self) -> float:
        return float(self.points * self.realizations * self.users)

    def scenario(self, seed: int) -> dict:
        # The snapshot scenario of presets.threshold_sweep at T = 0.
        return {
            "topology": self.topology,
            "seed": seed,
            "slots": 1,
            "realizations": self.realizations,
            "users": {"total": self.users, "hotspot": 0,
                      "activity_uniform": 1.0, "activity_hotspot": 1.0},
            "policy": {"t_activate": 0.0, "t_deactivate": None},
            "power": {"pico": {"p_sleep_w": 0.0}},
        }

    def cli_args(self, seed: int, workdir: Path, outdir: Path) -> list[str]:
        """Write the scenario file into workdir; the CLI arguments to run it."""
        scenario = workdir / "scenario.yaml"
        scenario.write_text(json.dumps(self.scenario(seed), indent=2) + "\n")
        return ["sweep", "--scenario", str(scenario), "--param", "policy.t_activate",
                "--from", "0", "--to", str(self.t_max), "--out", str(outdir)]

    def result_files(self) -> list[str]:
        return ["sweep.csv"]


_PAPER = RunWorkload("ts_paper", users=1000, hotspot=500, n_picos=28,
                     pico_radius_m=50.0, slots=1000)

WORKLOADS = {
    "ts_paper": _PAPER,
    "ts_stress": RunWorkload("ts_stress", users=20_000, hotspot=10_000,
                             n_picos=200, pico_radius_m=20.0, slots=20),
    "threshold_sweep": PresetWorkload("threshold_sweep"),
    "sweep_udc": SweepWorkload("sweep_udc"),
    "ts_traced": replace(_PAPER, name="ts_traced", slots=125, traces=True),
}

# Small versions for the self-test.  A preset's size is fixed by the
# program, so threshold_sweep runs at full size there too.
TINY = {
    "ts_paper": replace(WORKLOADS["ts_paper"], users=100, hotspot=50,
                        slots=30, size="tiny"),
    "ts_stress": replace(WORKLOADS["ts_stress"], users=400, hotspot=200,
                         slots=10, size="tiny"),
    "threshold_sweep": WORKLOADS["threshold_sweep"],
    "sweep_udc": replace(WORKLOADS["sweep_udc"], users=200, realizations=5,
                         t_max=4, size="tiny"),
    "ts_traced": replace(WORKLOADS["ts_traced"], users=60, hotspot=20,
                         slots=20, size="tiny"),
}
