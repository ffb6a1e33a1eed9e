"""End-to-end acceptance gates.

Each test covers one release criterion, prints a single PASS/FAIL line with
the measured numbers, and enforces the stated tolerance and runtime budget.
Heavy simulation products are shared through session fixtures so the wall
clock stays well inside the budgets.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from hetnetsim import kernels
from hetnetsim.config import MACRO_POWER, PICO_POWER, ThresholdPolicy, parse_scenario
from hetnetsim.control import ACTIVE, SLEEP, step_modes
from hetnetsim.engine import Response, run_scenario, run_scenarios
from hetnetsim.presets import run_preset
from hetnetsim.topology import build_udc
from oracles import EnbMode, consumed_power_w, containing_pico, contains_point, evaluate_link


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared simulation products


def snapshot_doc(topology, t_activate):
    return {
        "topology": topology,
        "realizations": 100,
        "users": {"activity_uniform": 1.0},
        "policy": {"t_activate": float(t_activate), "t_deactivate": None},
        "power": {"pico": {"p_sleep_w": 0.0}},
    }


def timeseries_doc(topology, **kw):
    doc = {
        "topology": topology,
        "slots": 1000,
        "users": {"hotspot": 500},
        "policy": {"t_activate": 5.0, "t_deactivate": None},
    }
    for k, v in kw.items():
        doc[k] = v
    return doc


@pytest.fixture(scope="session")
def hotspot_runs():
    """Four 1000-slot commuter-load runs: both pico layouts and both
    macro-only twins, wake threshold 5."""
    t0 = time.perf_counter()
    runs = {
        topo: run_scenario(parse_scenario(timeseries_doc(topo)), per_user=True)
        for topo in ("udc", "coe", "monet_udc_users", "monet_coe_users")
    }
    return runs, time.perf_counter() - t0


def ee_series(result):
    return result.slot_metrics.ee_bits_per_joule


# ---------------------------------------------------------------------------


def thresholds(policies):
    """The (K, 1) t_activate and t_sleep columns of K policies, as
    engine.Response builds them for rows whose picos serve."""
    return (np.array([[p.t_activate] for p in policies], dtype=float),
            np.array([[p.t_sleep] for p in policies], dtype=float))


def test_criterion_1_power_model_exactness():
    checks = {
        "macro full load": (consumed_power_w(MACRO_POWER, EnbMode.ACTIVE, 1000), 1350.0),
        "pico idle": (consumed_power_w(PICO_POWER, EnbMode.ACTIVE, 0), 13.6),
        "pico full load": (consumed_power_w(PICO_POWER, EnbMode.ACTIVE, 50), 14.6),
        "pico sleep": (consumed_power_w(PICO_POWER, EnbMode.SLEEP), 8.6),
    }
    # the same endpoints drawn as the engine draws them, in a row with the
    # default power models and one pico
    response = Response([parse_scenario({"topology": "udc"})])

    def pico(mode, n):
        return response.pico_power(np.array([[[mode]]]), np.array([[n]]))[0, 0]

    engine_checks = {
        "macro full load": (response.macro_power(np.array([[1000]]))[0, 0], 1350.0),
        "pico idle": (pico(ACTIVE, 0), 13.6),
        "pico full load": (pico(ACTIVE, 50), 14.6),
        "pico sleep": (pico(SLEEP, 0), 8.6),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    worst_rows = max(abs(got - want) for got, want in engine_checks.values())
    report(1, worst <= 1e-9 and worst_rows <= 1e-9,
           f"power endpoints {[round(g, 6) for g, _ in checks.values()]}, "
           f"max abs error {worst:.2e} scalar / {worst_rows:.2e} engine "
           f"(tol 1e-9)")


def test_criterion_2_snapshot_efficiency_table():
    t0 = time.perf_counter()
    monet = run_scenario(parse_scenario(snapshot_doc("monet", 9))).ee_mean
    ee = {
        (topo, t): run_scenario(parse_scenario(snapshot_doc(topo, t))).ee_mean
        for topo in ("coe", "udc")
        for t in (0, 13)
    }
    dt = time.perf_counter() - t0
    anchor_ok = abs(monet / 3.41e5 - 1.0) <= 0.03
    low_ok = ee[("coe", 0)] < monet and ee[("udc", 0)] < monet
    high_ok = ee[("coe", 13)] >= monet and ee[("udc", 13)] >= monet
    ok = anchor_ok and low_ok and high_ok and dt <= 60.0
    report(2, ok,
           f"full-activity ensemble EE: monet {monet:.4g} (target 3.41e5 +-3%), "
           f"T0 coe/udc {ee[('coe', 0)]:.4g}/{ee[('udc', 0)]:.4g} below, "
           f"T13 {ee[('coe', 13)]:.4g}/{ee[('udc', 13)]:.4g} at-or-above "
           f"({dt:.1f}s of 60s budget)")


def test_criterion_3_threshold_sweep_shape():
    t0 = time.perf_counter()
    thresholds = list(range(31))
    argmax = {}
    interior = {}
    tail_picos = {}
    results = iter(run_scenarios([
        parse_scenario(snapshot_doc(topo, t))
        for topo in ("coe", "udc") for t in thresholds
    ]))
    for topo in ("coe", "udc"):
        runs = [next(results) for _ in thresholds]
        ee = np.array([r.ee_mean for r in runs])
        picos = [r.active_picos_mean for r in runs]
        best = int(ee.argmax())
        argmax[topo] = best
        interior[topo] = ee[best] > ee[0] and ee[best] > ee[-1]
        tail_picos[topo] = max(picos[21:])
    dt = time.perf_counter() - t0
    ok = (
        all(8 <= argmax[t] <= 18 for t in argmax)
        and all(interior.values())
        and all(v < 0.5 for v in tail_picos.values())
        and dt <= 120.0
    )
    report(3, ok,
           f"EE peaks at T={argmax['coe']} (coe) / T={argmax['udc']} (udc) "
           f"inside [8,18], interior maxima {interior}, "
           f"active picos beyond T=20 at most {max(tail_picos.values()):.3f} "
           f"({dt:.1f}s of 120s budget)")


def test_criterion_4_hotspot_rate_histogram(hotspot_runs):
    runs, fixture_dt = hotspot_runs
    t0 = time.perf_counter()
    udc_bins = np.flatnonzero(runs["udc"].hist_counts)
    top_rate_bin = int(udc_bins.max())
    max_rate = float(runs["udc"].mean_rate_bps.max())
    twin_bins = np.flatnonzero(runs["monet_udc_users"].hist_counts)
    twin_edge = (int(twin_bins.max()) + 1) * 1e4
    dt = fixture_dt + time.perf_counter() - t0
    # top occupied bin must sit inside [6.0e5, 7.5e5); the macro-only twin
    # must never reach 5.6e5
    ok = (60 <= top_rate_bin <= 74) and twin_edge <= 5.6e5 and dt <= 120.0
    report(4, ok,
           f"peak per-user mean rate {max_rate:.3g} b/s "
           f"(top bin [{top_rate_bin * 1e4:.2g}, {(top_rate_bin + 1) * 1e4:.2g})), "
           f"macro-only twin tops out below {twin_edge:.3g} <= 5.6e5 "
           f"({dt:.1f}s of 120s budget)")


def test_criterion_5_efficiency_gain_over_macro_only(hotspot_runs):
    runs, fixture_dt = hotspot_runs
    window = slice(150, 451)
    ratios = {}
    for topo, twin in (("udc", "monet_udc_users"), ("coe", "monet_coe_users")):
        ratios[topo] = (ee_series(runs[topo])[window].mean()
                        / ee_series(runs[twin])[window].mean())
    ok = all(1.12 <= r <= 1.30 for r in ratios.values()) and fixture_dt <= 120.0
    report(5, ok,
           f"all-picos-on window EE gain: udc {ratios['udc']:.4f}, "
           f"coe {ratios['coe']:.4f}, target [1.12, 1.30] "
           f"({fixture_dt:.1f}s of 120s budget)")


def test_criterion_6_occupancy_trace_shape():
    doc = timeseries_doc("udc",
                         policy={"t_activate": 12.0, "t_deactivate": 8.0})
    r = run_scenario(parse_scenario(doc))
    pico = r.slot_metrics.pico_active_users
    macro = r.slot_metrics.macro_active_users
    start_quiet = pico[:5].mean()
    rise_hits = np.flatnonzero(pico >= 430)
    rise_slot = int(rise_hits[0]) if rise_hits.size else -1
    plateau = pico[200:350].mean()
    collapsed = pico[560:].mean()
    macro_before = macro[:5].mean()
    macro_after = macro[560:].mean()
    ok = (
        start_quiet <= 30
        and 0 <= rise_slot <= 180
        and 430 <= plateau <= 510
        and collapsed <= 100
        and 370 <= macro_before <= 430
        and 370 <= macro_after <= 430
    )
    report(6, ok,
           f"pico-served: {start_quiet:.0f} at start, reaches 430 by slot "
           f"{rise_slot}, plateau {plateau:.0f} in 470+-40, falls to "
           f"{collapsed:.0f} after the last shift; macro-served "
           f"{macro_before:.0f} before work / {macro_after:.0f} after, both in 400+-30")


def test_criterion_7_hysteresis_properties():
    """Every pico of every sub-check is one row of one column of
    control.step_modes, all rows stepped at once."""
    rng = np.random.default_rng(99)
    # (a) counts strictly inside the band never move the mode
    policies, sequences = [], []
    for _ in range(10_000):
        t_act = int(rng.integers(2, 31))
        t_deact = int(rng.integers(0, t_act - 1))
        lo, hi = t_deact + 1, t_act - 1
        if lo > hi:
            continue
        policies.append(ThresholdPolicy(t_act, t_deact))
        sequences.append(rng.integers(lo, hi + 1, size=10))
    # each sequence twice: from SLEEP, then from ACTIVE
    rows = thresholds(policies + policies)
    counts = np.tile(np.array(sequences), (2, 1))
    start = np.repeat([SLEEP, ACTIVE], len(sequences))[:, None]
    state = start
    flips = 0
    for t in range(counts.shape[1]):
        state = step_modes(state, counts[:, t:t + 1], *rows, np.ones_like(start))
        flips += int((state != start).sum())
    # (b) waking always routes through the boot state
    draws = []
    for _ in range(10_000):
        t_act = int(rng.integers(1, 31))
        count = int(rng.integers(0, 40))
        draws.append((t_act, count, int(rng.integers(1, 4))))
    t_acts, wake_counts, boot_slots = np.array(draws).T
    state = step_modes(
        np.full((len(draws), 1), SLEEP),
        wake_counts[:, None], *thresholds([ThresholdPolicy(t) for t in t_acts]),
        boot_slots[:, None])
    direct_wakes = int((state == ACTIVE).sum())
    # (c) a single-threshold policy flaps on counts alternating t, t-1
    row = thresholds([ThresholdPolicy(9)])
    state = np.array([[SLEEP]])
    trail = []
    for i in range(30):
        state = step_modes(state, np.array([9 if i % 3 == 0 else 8]), *row, np.array([[1]]))
        trail.append(int(state[0, 0]))
    # a one-slot boot is state 1
    cycles = sum(
        1 for a, b, c in zip(trail, trail[1:], trail[2:])
        if (a, b, c) == (1, ACTIVE, SLEEP)
    )
    ok = flips == 0 and direct_wakes == 0 and cycles >= 5
    report(7, ok,
           f"in-band mode flips {flips}/1e4 sequences, boot-skipping wakes "
           f"{direct_wakes}/1e4, single-threshold flapping witness cycled "
           f"{cycles} times")


def test_criterion_8_oracle_equivalences():
    rng = np.random.default_rng(4321)
    # (a) link evaluation vs straight dB arithmetic
    worst_db = 0.0
    for _ in range(1000):
        pico = bool(rng.random() < 0.5)
        d = float(rng.uniform(0.5, 3000.0))
        shadow = float(rng.normal(0, 9))
        w = 2e4
        a, b = (128.1, 37.6) if pico else (140.7, 36.7)
        eirp = 35.0 if pico else 60.0
        pl = a + b * math.log10(max(d, 1.0) / 1000.0)
        noise = 10 * math.log10(1.380649e-23 * 290.0 * w * 1000.0)
        snr_db = eirp - pl + shadow - noise
        lb = evaluate_link(pico, d, w, shadow_db=shadow)
        worst_db = max(
            worst_db,
            abs(lb.path_loss_db - pl),
            abs(lb.snr_db - snr_db),
            abs(lb.rx_power_dbm - (eirp - pl + shadow)),
        )
    # (b) disc resolution vs exhaustive scan, by the scalar lookup and by
    # the containment kernel the engine uses
    topo = build_udc(np.random.default_rng(7))
    scan_disagreements = 0
    points, scans = [], []
    for _ in range(1000):
        x = float(rng.uniform(0, 1000))
        y = float(rng.uniform(0, 1000))
        hits = [j for j in range(topo.cx.size) if contains_point(topo, j, x, y)]
        if containing_pico(topo, x, y) != (min(hits) if hits else None):
            scan_disagreements += 1
        points.append((x, y))
        scans.append(min(hits) if hits else -1)
    px, py = np.array(points).T
    kernel_disagreements = int((kernels.containing_disc(px, py, kernels.disc_index(
        topo.cx, topo.cy, topo.pico_radius)) != scans).sum())
    ok = (worst_db <= 1e-9 and scan_disagreements == 0
          and kernel_disagreements == 0)
    report(8, ok,
           f"link budget vs dB oracle max error {worst_db:.2e} dB (tol 1e-9), "
           f"disc-scan disagreements {scan_disagreements}/1000, "
           f"kernel disc-scan disagreements {kernel_disagreements}/1000")


def test_criterion_9_preset_rerun_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest_a = run_preset("capacity_table", out_a, seed=1)
    manifest_b = run_preset("capacity_table", out_b, seed=1)
    names = ["manifest.json"] + [
        p.name for p in sorted(out_a.iterdir()) if p.name != "manifest.json"
    ]
    same, differ, funny = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    ok = not differ and not funny and manifest_a.read_bytes() == manifest_b.read_bytes()
    report(9, ok,
           f"re-ran capacity_table with the same seed: {len(same)} files "
           f"byte-identical, {len(differ)} differ, {len(funny)} missing")
