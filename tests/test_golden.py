"""Golden outputs: the SHA-256 of every file a few short CLI runs write.

A refactor that keeps the simulation's semantics must leave every byte of
every result file unchanged, so these digests only change when the output
is meant to change.  To re-record them on purpose, run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed mapping over GOLDEN.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hetnetsim.cli import main

HYSTERESIS_RUN = {
    "topology": "udc",
    "seed": 4,
    "slots": 90,
    "layout": {"n_picos": 8},
    "users": {"total": 240, "hotspot": 180},
    "work": {"start_slots": [0, 10], "duration": 45},
    "policy": {"t_activate": 12.0, "t_deactivate": 8.0},
}

# name -> (CLI arguments, scenario document or None for a command that
# reads none)
CASES = {
    "run_boot3": (
        ["run", "--trace-users", "--trace-picos"],
        {**HYSTERESIS_RUN, "boot_slots": 3},
    ),
    "run_boot0": (
        ["run", "--trace-users", "--trace-picos"],
        {**HYSTERESIS_RUN, "boot_slots": 0},
    ),
    # a traced snapshot: the slot column is the realization index and the
    # hotspot users sit still inside their picos
    "snapshot_traced": (
        ["run", "--trace-users", "--trace-picos"],
        {"topology": "udc", "seed": 12, "realizations": 5,
         "users": {"total": 200, "hotspot": 80},
         "policy": {"t_activate": 2.0, "t_deactivate": None}},
    ),
    "monet_udc_users": (
        ["run", "--trace-picos"],
        {"topology": "monet_udc_users", "seed": 3, "slots": 40,
         "users": {"total": 200, "hotspot": 80}},
    ),
    "sweep": (
        ["sweep", "--from", "0", "--to", "6", "--step", "2"],
        {"topology": "udc", "seed": 5, "realizations": 4,
         "users": {"total": 250, "activity_uniform": 1.0},
         "policy": {"t_deactivate": None}},
    ),
    # multi-slot points: each threshold steps its own picos through Boot
    "sweep_timeseries": (
        ["sweep", "--from", "4", "--to", "12", "--step", "4"],
        {"topology": "udc", "seed": 6, "slots": 60, "boot_slots": 2,
         "layout": {"n_picos": 8},
         "users": {"total": 200, "hotspot": 120},
         "work": {"start_slots": [0, 10], "duration": 30},
         "policy": {"t_deactivate": None}},
    ),
    # sleep-power points at a threshold where most picos sleep, so the
    # rows differ in power
    "sweep_psleep": (
        ["sweep", "--param", "power.pico.p_sleep_w",
         "--from", "0", "--to", "8", "--step", "4"],
        {"topology": "udc", "seed": 8, "realizations": 5,
         "users": {"total": 300, "activity_uniform": 1.0},
         "policy": {"t_activate": 4.0, "t_deactivate": None}},
    ),
    # 128 threshold rows of one multi-slot group; hotspot users reach
    # their picos within a few slots of a small macro cell, so about half
    # the rows differ
    "sweep_k128": (
        ["sweep", "--param", "policy.t_activate", "--from", "0", "--to", "127"],
        {"topology": "udc", "seed": 13, "slots": 40, "boot_slots": 1,
         "layout": {"n_picos": 3, "macro_radius_m": 150.0, "pico_radius_m": 30.0},
         "users": {"total": 400, "hotspot": 380},
         "work": {"start_slots": [0, 3], "duration": 25},
         "policy": {"t_deactivate": None}},
    ),
    # stress shape: 200 small picos, so one grid cell of the containment
    # index lists several discs, and 4,000 users, half of them hotspot
    # users; the low thresholds wake most picos, so the user trace's
    # serving cell follows containment
    "run_stress": (
        ["run", "--trace-users"],
        {"topology": "udc", "seed": 14, "slots": 3, "boot_slots": 0,
         "layout": {"n_picos": 200, "pico_radius_m": 20.0},
         "users": {"total": 4000, "hotspot": 2000},
         "policy": {"t_activate": 2.0, "t_deactivate": 1.0}},
    ),
    # a ring of 300 tangent 2 m picos: one grid cell of the containment
    # index lists up to six discs, and hotspot users walking inside discs
    # of 2 m cross their edges often
    "run_dense_ring": (
        ["run", "--trace-users", "--trace-picos"],
        {"topology": "coe", "seed": 15, "slots": 30, "boot_slots": 1,
         "layout": {"n_picos": 300, "macro_radius_m": 200.0, "pico_radius_m": 2.0},
         "users": {"total": 2000, "hotspot": 1500},
         "work": {"start_slots": [0, 5]},
         "policy": {"t_activate": 2.0, "t_deactivate": 1.0}},
    ),
    # the means-only snapshot path of the presets: 620 rows in two groups
    "preset_sleep_power_sweep": (
        ["preset", "sleep_power_sweep", "--seed", "1"],
        None,
    ),
}

GOLDEN = {
    "monet_udc_users": {
        "histogram.csv":
            "227087124a821c32b4d3aed563e16b885679b0c40825c53f257889e00eba3a19",
        "pico_trace.csv":
            "50cf0fdbe6a00ba85f427d219090c3f6f4e69a0acbc1fb3d1ca91b7fd402f79a",
        "slots.csv":
            "c38925bdc5cb505508b58f557985a07de344c984f77a1f7e26fe2185d86d2abf",
        "topology.json":
            "bf2739097ca4e7b7ffb994a1eb3409483747d4e7a21a34cb30c5ce43312f78f6",
        "users.csv":
            "feafdcbe806bedeceadb5e7eb8e488dfda664b73537efa5352f395339bb5a6d0",
    },
    "preset_sleep_power_sweep": {
        "sweep_psleep0p0.csv":
            "76f9162a4d5431038dfeb3b02a6a68f83f42991d23f77c54cf1c8afbada15320",
        "sweep_psleep2p0.csv":
            "18b231188ba76ffe687a3b3393dc666a9a8c202dbc7c51ef4b74e1ff60a24a15",
        "sweep_psleep4p0.csv":
            "75b7f88bbf122ef45e430ab4a66de37bc986eb3e95e572c49d1f74b1d2f29b91",
        "sweep_psleep6p0.csv":
            "8aef2e9f489e47b5f8ca017e076d709592d6f674e201193424f5fe83970cc5c5",
        "sweep_psleep8p6.csv":
            "e54ba39fc1ed29540e912fcc4c584e41c7f94843d701dd8553f3a4a8bff8b98c",
    },
    "run_boot0": {
        "histogram.csv":
            "abd7e6ba7725b71dfc55c26cdebb9f1c406341fbe2d3bf45a84a936789dd62a5",
        "pico_trace.csv":
            "fc74d68e01c8c1f1ab97551fde331475d89ab439749d638603dce255619da602",
        "slots.csv":
            "7afb1ce165537f89e32ffde67180e31713d64862d7616df773abfba9b52f694e",
        "topology.json":
            "be8c90e797929723a9edf691870989ff4abfc98552d2451430a605294b775f13",
        "user_trace.csv":
            "190c5d254361470b16076f240232d6871110bd70ba1031fc8f750d0c07439514",
        "users.csv":
            "93b60f00d6cde6464685d712ca1bac034a7c3a92fc10ea41738de988e5aa6008",
    },
    "run_boot3": {
        "histogram.csv":
            "abd7e6ba7725b71dfc55c26cdebb9f1c406341fbe2d3bf45a84a936789dd62a5",
        "pico_trace.csv":
            "3be8c46b3bf4bafea0919bce6b87d026bdd79cd32475a21cdfe9e4bcf9e0e843",
        "slots.csv":
            "58bcc939b305baadc4ac9a2a18fcccb7308f2443192a898038d8787b00db5e67",
        "topology.json":
            "be8c90e797929723a9edf691870989ff4abfc98552d2451430a605294b775f13",
        "user_trace.csv":
            "54dc8c2823247b691f5a14b070f8a92dbcbb191ad774df4eb562ea4508bb1edf",
        "users.csv":
            "114e6fc2f849bac072e0f4787069011fe43d24c362c72205f664bab7b64067d2",
    },
    "run_dense_ring": {
        "histogram.csv":
            "503395bf4c7d7eab369cb1c05b52682025110f0e2f8faecee4fb577f1d7d9044",
        "pico_trace.csv":
            "bbf0670a5a6f2a076ceeaf2ea2ee033eb99bedb46e34ba32e4234eb196572b53",
        "slots.csv":
            "a1dcdb9892fc06f0c2e66a34e056fa61f57a8306276712cc0d68790f8aade7c6",
        "topology.json":
            "0a88c10d3faa3d4e3ac7fb86e98fec626dab81a079ae92a3559e18013399207b",
        "user_trace.csv":
            "8a09f4842d9bf64e0b3048a0ca43584bac69cc58a4e09be781ee147f90dbf204",
        "users.csv":
            "4b57d9d10a6ba9a5c8d113fea39f3d2057058515d8370d780c73eeb07c83c8b4",
    },
    "run_stress": {
        "histogram.csv":
            "3d9ab2b89670e6e8cefe7b7a9b6900887bd18bdd38034a30add3803ad73202b7",
        "slots.csv":
            "830ebecd94cd7bd90c0dbacf63e5bc0fae07f9360c9ce151cf4e7c077e15eba8",
        "topology.json":
            "c823cb01375e71246f31f8b3befdb5de718e4782cd1f691d11d0eabef8022017",
        "user_trace.csv":
            "f3be57f72c636eeb46f4a70728e97728d99f8f8e1176c7d59b07c8e96fb40310",
        "users.csv":
            "4fcf3f0c78704d565c7ca69315434bceab449b637d9286611b989bc8f9374c7c",
    },
    "snapshot_traced": {
        "histogram.csv":
            "f0020fec1f05540caabf9c8b9da462d7767b9bfeb386dda41ad4477eb40c66de",
        "pico_trace.csv":
            "8108055acfd87680073775620ea18e1c5bf1380bba67fe542781a1b3d2dba3e0",
        "slots.csv":
            "1b6c5113f545b06b4cf240c8a5609953bce38423d4280a8e3d05e2f739a6f188",
        "topology.json":
            "7f218e868ce17a2b216ec8168013f27d09bb62aa8dbfb81c7749a87c9ba5bfe1",
        "user_trace.csv":
            "9080ce253df56d8f38ca0cf7b6918376e642d9e05266282041ca51bdf3d4535e",
        "users.csv":
            "c7359996a84a48ede1bbebb4e3e06539c1405dcbab5c707a47a563e91ed4d96a",
    },
    "sweep": {
        "sweep.csv":
            "1c7e221238f0893bad48cf4ab8a5c77b74adfc873eaa7a192e7ab8058476efb9",
    },
    "sweep_k128": {
        "sweep.csv":
            "72e189e624be68546e040606ed039f733c616f91d53385789f09f745985083c8",
    },
    "sweep_psleep": {
        "sweep.csv":
            "d97054f64538dccb9d7340c4d4b13437978b6f48de8fcc22749e25ad302139ea",
    },
    "sweep_timeseries": {
        "sweep.csv":
            "1a9befcd7c087df55a6318f2b7283183d5757115cd71d5c5d99a105f35031926",
    },
}


def digests(case: str, workdir: Path) -> dict[str, str]:
    """Run one case in workdir; SHA-256 of every file it wrote except a
    preset's manifest.json."""
    args, doc = CASES[case]
    if doc is not None:
        scenario = workdir / "scenario.yaml"
        scenario.write_text(json.dumps(doc))
        args = [*args, "--scenario", str(scenario)]
    out = workdir / "out"
    assert main([*args, "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_unchanged(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    recorded = {}
    with contextlib.redirect_stdout(sys.stderr):
        for name in sorted(CASES):
            with tempfile.TemporaryDirectory() as tmp:
                recorded[name] = digests(name, Path(tmp))
    json.dump(recorded, sys.stdout, indent=4)
    print()
