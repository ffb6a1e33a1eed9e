"""Golden outputs: the SHA-256 of every file a few short CLI runs write.

A refactor that keeps the simulation's semantics must leave every byte of
every result file unchanged, so these digests only change when the output
is meant to change.  To re-record them on purpose, run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed mappings over GOLDEN and MANIFESTS.
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
    # a traced time series of several realizations: its trace lines come
    # in entry order, realization by realization, as in slots.csv
    "timeseries_traced": (
        ["run", "--trace-users", "--trace-picos"],
        {"topology": "udc", "seed": 16, "slots": 20, "realizations": 3,
         "users": {"total": 300, "hotspot": 150},
         "work": {"start_slots": [0, 4], "duration": 12},
         "policy": {"t_activate": 3.0, "t_deactivate": 1.0}},
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
    # the other six presets, so that every preset's files and manifest
    # are pinned
    **{f"preset_{name}": (["preset", name, "--seed", "1"], None)
       for name in ("capacity_table", "threshold_sweep", "hotspot_sweep",
                    "ee_timeseries", "occupancy_timeseries", "policy_compare")},
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
    "preset_capacity_table": {
        "sweep.csv":
            "e7e0fb93e58d1ebd9d8953513a43dc2dfccb055f113bcede5151d10a67e794cf",
    },
    "preset_ee_timeseries": {
        "coe_psleep0p0.csv":
            "4c9836faa95a42162dd71a123015732c900715af3947de18ec2d7102c901a3e3",
        "coe_psleep0p0_hist.csv":
            "ea38e6a4debf5a11383b5486ce782e0381e4adfdafaff27c2f6e4be531e69c1b",
        "coe_psleep0p0_pico.csv":
            "251974292a50da64b9c6d76013b3ace957fcfc6543cf67a5f710b07c66824a4a",
        "coe_psleep0p0_users.csv":
            "72735226f3db7920dd9f727a0c6589d1c63c9b97f7cd6d8775f617008ebf79fd",
        "coe_psleep8p6.csv":
            "1bd342e6fa917a65236c35ba88b86d212497fb8cc9eab804933880cf5929c47b",
        "coe_psleep8p6_hist.csv":
            "ea38e6a4debf5a11383b5486ce782e0381e4adfdafaff27c2f6e4be531e69c1b",
        "coe_psleep8p6_pico.csv":
            "ddd788be677240999ffd7f74cd66a6a86e210daf0eeb8509a9968fdb7dd92d51",
        "coe_psleep8p6_users.csv":
            "72735226f3db7920dd9f727a0c6589d1c63c9b97f7cd6d8775f617008ebf79fd",
        "monet_coe_users_psleep0p0.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_psleep0p0_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_psleep0p0_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_psleep8p6.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_psleep8p6_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_psleep8p6_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_udc_users_psleep0p0.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_psleep0p0_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_psleep0p0_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_psleep8p6.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_psleep8p6_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_psleep8p6_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "udc_psleep0p0.csv":
            "e702e7e2b8f8df98585677015e17bf6e0516beb38efd0657e6c52df8b158dd1d",
        "udc_psleep0p0_hist.csv":
            "e61d01318779bf675432ddd8e2a8c35cac747da2b342a7a7d9eb7220172cee9a",
        "udc_psleep0p0_pico.csv":
            "02a53382f0ee7392bb16e82d521570254bfcf166f91633cdba639d129bf14e20",
        "udc_psleep0p0_users.csv":
            "4c254ab90a0acc19bb3fa366adbd6e907898dec94df70798951ae00240ab8a72",
        "udc_psleep8p6.csv":
            "dc01dcad43b0f59d9cf29eac76c48c799c7eef74eff199220d716dc0cc6fe1a3",
        "udc_psleep8p6_hist.csv":
            "e61d01318779bf675432ddd8e2a8c35cac747da2b342a7a7d9eb7220172cee9a",
        "udc_psleep8p6_pico.csv":
            "57f6d56a447e76a5f351483dbda048b3435867b878c89fb9f008ba22897e813d",
        "udc_psleep8p6_users.csv":
            "4c254ab90a0acc19bb3fa366adbd6e907898dec94df70798951ae00240ab8a72",
    },
    "preset_hotspot_sweep": {
        "sweep_psleep0p0_hotspot0.csv":
            "bc015e90af7e2c02989a722ef22645f14b7400132e6720f534ca48c848d5ee58",
        "sweep_psleep0p0_hotspot250.csv":
            "188a145839ae18807e164af65ed317eeb60355a209c0a611c79371b39de58a18",
        "sweep_psleep0p0_hotspot500.csv":
            "76f9162a4d5431038dfeb3b02a6a68f83f42991d23f77c54cf1c8afbada15320",
        "sweep_psleep0p0_hotspot750.csv":
            "0ba096389330c074533b88cb9d7bf9bf199c64502e4f9dcedb9ed11b99eb0976",
        "sweep_psleep8p6_hotspot0.csv":
            "ab706e37b3e972d6c7d5f67b34129f88d8507409249f9e1cd1aa5f4c73ea23c2",
        "sweep_psleep8p6_hotspot250.csv":
            "63e293909df8b3b8f40a4456174f708a4396e0453d0c757addaf791d7394206b",
        "sweep_psleep8p6_hotspot500.csv":
            "e54ba39fc1ed29540e912fcc4c584e41c7f94843d701dd8553f3a4a8bff8b98c",
        "sweep_psleep8p6_hotspot750.csv":
            "0165dab7a50c9a6333aa9dfd8a5e9c2f78232ef34c2b32abe5643470075d6114",
    },
    "preset_occupancy_timeseries": {
        "coe.csv":
            "79851260ae548234c286052257d9933e30d7a650dd413d6f6b1b3f53992d3a36",
        "coe_hist.csv":
            "d70cb3e472542783ec09689756dd734e306075a7de6f014d45f1924ac1d94d74",
        "coe_users.csv":
            "329ee137e588fb5379174a2bff9da2349f1fe1ef4531116c0e30eb2180494d16",
        "udc.csv":
            "f4008874f4d5bd20f3a5b89a0cf2602ba685de3466a414154d78e8e111759e0d",
        "udc_hist.csv":
            "285d8b987ae789ad786eaf0cacb6585213a2942be14502811a8d488ba06cf6fc",
        "udc_users.csv":
            "20c760a0ff1983067964fd6b8697a6be9fd3d2384de077d1e10eec40c40a51ce",
    },
    "preset_policy_compare": {
        "coe_one12_psleep0p0.csv":
            "19d2005248467edab9c943ea578dff0b8d822f502bffe13c12893440b11115ae",
        "coe_one12_psleep0p0_hist.csv":
            "a67fda6fb53cbcf48d4e62c9953357d71e34be218d698e6f651780a39474f538",
        "coe_one12_psleep0p0_users.csv":
            "2a69158d6ec4fcda8747f17c691d42de37f170bd9327604903a4ef7f2a7dedd5",
        "coe_one12_psleep8p6.csv":
            "879762e15d8aca553c83f6db5a632c2d292e26416d3749604c0e840dafbe7e6a",
        "coe_one12_psleep8p6_hist.csv":
            "a67fda6fb53cbcf48d4e62c9953357d71e34be218d698e6f651780a39474f538",
        "coe_one12_psleep8p6_users.csv":
            "2a69158d6ec4fcda8747f17c691d42de37f170bd9327604903a4ef7f2a7dedd5",
        "coe_one5_psleep0p0.csv":
            "4c9836faa95a42162dd71a123015732c900715af3947de18ec2d7102c901a3e3",
        "coe_one5_psleep0p0_hist.csv":
            "ea38e6a4debf5a11383b5486ce782e0381e4adfdafaff27c2f6e4be531e69c1b",
        "coe_one5_psleep0p0_users.csv":
            "72735226f3db7920dd9f727a0c6589d1c63c9b97f7cd6d8775f617008ebf79fd",
        "coe_one5_psleep8p6.csv":
            "1bd342e6fa917a65236c35ba88b86d212497fb8cc9eab804933880cf5929c47b",
        "coe_one5_psleep8p6_hist.csv":
            "ea38e6a4debf5a11383b5486ce782e0381e4adfdafaff27c2f6e4be531e69c1b",
        "coe_one5_psleep8p6_users.csv":
            "72735226f3db7920dd9f727a0c6589d1c63c9b97f7cd6d8775f617008ebf79fd",
        "coe_one9_psleep0p0.csv":
            "be6ad2584379d65331ee857e5454b82dd8ec7322dcb94c582c50e4d0be5d38f3",
        "coe_one9_psleep0p0_hist.csv":
            "d33cca474d7d5db702ab041cbec3590421bb284e181ff7e2daa0284ddf6b0f9a",
        "coe_one9_psleep0p0_users.csv":
            "ebe9a66463e0094d0556df0a65e8b73f212aedd0fa9b55c0970791568319bd6f",
        "coe_one9_psleep8p6.csv":
            "6b43479ef47f6fcf7f752cf1bb541189a7d8600ee806444bb01baf7e019e85c7",
        "coe_one9_psleep8p6_hist.csv":
            "d33cca474d7d5db702ab041cbec3590421bb284e181ff7e2daa0284ddf6b0f9a",
        "coe_one9_psleep8p6_users.csv":
            "ebe9a66463e0094d0556df0a65e8b73f212aedd0fa9b55c0970791568319bd6f",
        "coe_two9_4_psleep0p0.csv":
            "50eea54c9b9e117bdf497e1e3abd262f24988169003557b7d6f9369fce0ef01c",
        "coe_two9_4_psleep0p0_hist.csv":
            "2cd6fbd26657f15a8ad62b40cc59da08f87fbcdb3cfe7a25010572a00b158623",
        "coe_two9_4_psleep0p0_users.csv":
            "35160261edfb2b15e634996cf6ceda823e2d3031f24557b404c0ce789b8125ea",
        "coe_two9_4_psleep8p6.csv":
            "97eee6d176832bebb578998ce55a4f5ed003e0d41f84066af643aab441c6c50f",
        "coe_two9_4_psleep8p6_hist.csv":
            "2cd6fbd26657f15a8ad62b40cc59da08f87fbcdb3cfe7a25010572a00b158623",
        "coe_two9_4_psleep8p6_users.csv":
            "35160261edfb2b15e634996cf6ceda823e2d3031f24557b404c0ce789b8125ea",
        "monet_coe_users_one12_psleep0p0.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one12_psleep0p0_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one12_psleep0p0_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_one12_psleep8p6.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one12_psleep8p6_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one12_psleep8p6_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_one5_psleep0p0.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one5_psleep0p0_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one5_psleep0p0_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_one5_psleep8p6.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one5_psleep8p6_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one5_psleep8p6_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_one9_psleep0p0.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one9_psleep0p0_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one9_psleep0p0_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_one9_psleep8p6.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_one9_psleep8p6_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_one9_psleep8p6_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_two9_4_psleep0p0.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_two9_4_psleep0p0_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_two9_4_psleep0p0_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_coe_users_two9_4_psleep8p6.csv":
            "138edf70cd6f60ebd98218abf5c5a888da3c42255191f62b9c87c4e1546dd730",
        "monet_coe_users_two9_4_psleep8p6_hist.csv":
            "fa08f3609c8d93094f34d1df02aeee0a6c44351ded0057445b28b1cf2bb5e34c",
        "monet_coe_users_two9_4_psleep8p6_users.csv":
            "1d1fdef7bcb3f67ab941e3f6d9f5475765447167c3a9cf86437b64d99cd90d1e",
        "monet_udc_users_one12_psleep0p0.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one12_psleep0p0_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one12_psleep0p0_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_one12_psleep8p6.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one12_psleep8p6_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one12_psleep8p6_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_one5_psleep0p0.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one5_psleep0p0_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one5_psleep0p0_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_one5_psleep8p6.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one5_psleep8p6_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one5_psleep8p6_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_one9_psleep0p0.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one9_psleep0p0_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one9_psleep0p0_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_one9_psleep8p6.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_one9_psleep8p6_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_one9_psleep8p6_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_two9_4_psleep0p0.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_two9_4_psleep0p0_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_two9_4_psleep0p0_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "monet_udc_users_two9_4_psleep8p6.csv":
            "f98ca008335ff1cf6fbe2e1eb868770e46e19b8658c987da3b090015558e0642",
        "monet_udc_users_two9_4_psleep8p6_hist.csv":
            "086bb4fbca3452eebcfa08d62b4e733623c950f589d77410de249e81096a90bf",
        "monet_udc_users_two9_4_psleep8p6_users.csv":
            "0faa6137429ec8062ed08ddf366cbdd6b65c442ef554d97662c38498693cefb8",
        "udc_one12_psleep0p0.csv":
            "ad172b419d1126ce854a458e08810d736b68d5ce267f9a47f9e044843565bbd7",
        "udc_one12_psleep0p0_hist.csv":
            "a69158d0ebff4ba39b2398ce41e713c23cc52651d0e435fd7e2fba2926b48151",
        "udc_one12_psleep0p0_users.csv":
            "c709fb70b77fb4d127abf0f59b470507993571dbda2c842b20084df000fa5e47",
        "udc_one12_psleep8p6.csv":
            "1d6b898ca376051b4c16c94e4c044b3e568e46c491409905fba4e014ed7c2892",
        "udc_one12_psleep8p6_hist.csv":
            "a69158d0ebff4ba39b2398ce41e713c23cc52651d0e435fd7e2fba2926b48151",
        "udc_one12_psleep8p6_users.csv":
            "c709fb70b77fb4d127abf0f59b470507993571dbda2c842b20084df000fa5e47",
        "udc_one5_psleep0p0.csv":
            "e702e7e2b8f8df98585677015e17bf6e0516beb38efd0657e6c52df8b158dd1d",
        "udc_one5_psleep0p0_hist.csv":
            "e61d01318779bf675432ddd8e2a8c35cac747da2b342a7a7d9eb7220172cee9a",
        "udc_one5_psleep0p0_users.csv":
            "4c254ab90a0acc19bb3fa366adbd6e907898dec94df70798951ae00240ab8a72",
        "udc_one5_psleep8p6.csv":
            "dc01dcad43b0f59d9cf29eac76c48c799c7eef74eff199220d716dc0cc6fe1a3",
        "udc_one5_psleep8p6_hist.csv":
            "e61d01318779bf675432ddd8e2a8c35cac747da2b342a7a7d9eb7220172cee9a",
        "udc_one5_psleep8p6_users.csv":
            "4c254ab90a0acc19bb3fa366adbd6e907898dec94df70798951ae00240ab8a72",
        "udc_one9_psleep0p0.csv":
            "34a1cae90477cafdb43ff31779eec1c7f323c917670c6ee52980c5b2968ab571",
        "udc_one9_psleep0p0_hist.csv":
            "6272d3145e26b326896fc066cf386fdf3c00bb21d73a8b725d58c7a0eea58ba4",
        "udc_one9_psleep0p0_users.csv":
            "777fd3f3fc3bda4ddcc13d8daf4c2eff9a9279a225149f55e1e2a06d4f291ef6",
        "udc_one9_psleep8p6.csv":
            "2ea051dcbeecf5b76e1e51f3f57bf1cef10c64d268ccde993b46be84793ef340",
        "udc_one9_psleep8p6_hist.csv":
            "6272d3145e26b326896fc066cf386fdf3c00bb21d73a8b725d58c7a0eea58ba4",
        "udc_one9_psleep8p6_users.csv":
            "777fd3f3fc3bda4ddcc13d8daf4c2eff9a9279a225149f55e1e2a06d4f291ef6",
        "udc_two9_4_psleep0p0.csv":
            "b425eaa700c4f037f8e9776027b59aa838a8b75d6817db9bdfe5b683a0726846",
        "udc_two9_4_psleep0p0_hist.csv":
            "89289adfbd7ea2dd34e672969ab97a2c1c79030879896b4c1f41892ef61cd7f6",
        "udc_two9_4_psleep0p0_users.csv":
            "33585ee61030eb5e06bc1686ae7eea0a41f86c1033fde8abd3e62fc14e151139",
        "udc_two9_4_psleep8p6.csv":
            "3ffda12996a982f69e9a9897117d9bce7f404b30b40e71473e91167a0e090c04",
        "udc_two9_4_psleep8p6_hist.csv":
            "89289adfbd7ea2dd34e672969ab97a2c1c79030879896b4c1f41892ef61cd7f6",
        "udc_two9_4_psleep8p6_users.csv":
            "33585ee61030eb5e06bc1686ae7eea0a41f86c1033fde8abd3e62fc14e151139",
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
    "preset_threshold_sweep": {
        "pico_count.csv":
            "27783b37176d9bfaa853ad18d398e78a6d705c7b40563aa698d7206d78630598",
        "sweep.csv":
            "ec9247077a4d14cb0d59c5627a19bdabc325120e3ecdc349b11d6da4001cd2a7",
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
    "timeseries_traced": {
        "histogram.csv":
            "ad545b7289a3304dd31c9b762c635a28b969fbf51ad33fb7ccc5eb3b5392c01f",
        "pico_trace.csv":
            "ac4d019ba1f5172bb25552c73d18b6133e20ce3699207d39f4bb4df2aecbcd85",
        "slots.csv":
            "666c771ce4955156fac942bec5d19c4e7cbfa39676827ec97cd4be48b77a07cc",
        "topology.json":
            "1d23dde204ad004506ed959036003f27c7f67311b471adbc158f5ce45eefa19d",
        "user_trace.csv":
            "e12798e4018fc7a8153c925e2be7a27c665d42f8a584a4caf4933a2c89ca7b95",
        "users.csv":
            "17a0aa14bbc27c5d64495ce13a6e861564b2a539929b20d65156373c69f5346a",
    },
}

# the SHA-256 of each preset's manifest.json without its version line
MANIFESTS = {
    "preset_capacity_table":
        "3517e8fdff278a9f7b12e3957cdf6e2fea3febd15646c7700a8b2d3e37558eb7",
    "preset_ee_timeseries":
        "bbd24abcdb10c1e63919059ea5a6406855393cb7b49722acb1c3e47036dc9a36",
    "preset_hotspot_sweep":
        "57aa797295356e509fb47ad410e7196c0cc24d3ab9a90e053994269cc236f6fc",
    "preset_occupancy_timeseries":
        "e5ebd0de9b8b950028deccc817e166aea615fea0d784a42a096a80d954a53970",
    "preset_policy_compare":
        "7919730fbbee91c69422f274ede94949caf92cad5b04b4f2f3488667f3ca77a5",
    "preset_sleep_power_sweep":
        "d05da6d41e35432b254292471ff156d9b7ae1cb63e0b60660aa8493be9920527",
    "preset_threshold_sweep":
        "f4bf903f761b4ca714cdb6933ae5541bf9b26d965c81548ac71e1b8875a57319",
}


def _file_bytes(path: Path) -> bytes:
    """A result file's bytes; a manifest without its package-version line,
    so that a version bump alone changes no digest."""
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"version"'))


def digests(case: str, workdir: Path) -> dict[str, str]:
    """Run one case in workdir; SHA-256 of every file it wrote."""
    args, doc = CASES[case]
    if doc is not None:
        scenario = workdir / "scenario.yaml"
        scenario.write_text(json.dumps(doc))
        args = [*args, "--scenario", str(scenario)]
    out = workdir / "out"
    assert main([*args, "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(_file_bytes(p)).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_unchanged(case, tmp_path):
    got = digests(case, tmp_path)
    assert got.pop("manifest.json", None) == MANIFESTS.get(case)
    assert got == GOLDEN[case]


if __name__ == "__main__":
    recorded = {}
    with contextlib.redirect_stdout(sys.stderr):
        for name in sorted(CASES):
            with tempfile.TemporaryDirectory() as tmp:
                recorded[name] = digests(name, Path(tmp))
    manifests = {name: files.pop("manifest.json")
                 for name, files in recorded.items() if "manifest.json" in files}
    print("GOLDEN = ", end="")
    json.dump(recorded, sys.stdout, indent=4)
    print("\n\nMANIFESTS = ", end="")
    json.dump(manifests, sys.stdout, indent=4)
    print()
