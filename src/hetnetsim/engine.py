"""Slotted simulation engine.

Each slot runs, in order: mobility step, activity draws, per-pico active
counts, pico state-machine transitions, association, link evaluation, power
accounting, metric aggregation.  An active user is served by the pico
whose disc contains it when that pico is Active, otherwise by the macro;
Boot and Sleep picos serve nobody, idle users are served by nobody.

Two run shapes share this machinery:

* slots = 1, realizations = R: R independent snapshot worlds.  Users are
  dropped statically (hotspot users inside their assigned pico), picos are
  Active wherever the activation threshold is met — the stationary view of
  the control loop, with no boot transient.
* slots = S > 1: one world evolved through S slots with the full Sleep /
  Boot / Active machinery.

Randomness: a scenario owns one seed.  Layout generation uses the stream
(seed, 0); world r uses (seed, 1, r).  Within a world every slot draws, in
a fixed order, the mobility draws, one activity uniform per user, and one
shadowing normal per user — so runs that share a seed share users,
trajectories, and fading regardless of topology kind, policy, or sleep
parameters.  That makes paired comparisons (e.g. pico-serving topology vs.
its macro-only twin) common-random-number experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .channel import noise_power_dbm, user_bandwidth
from .config import Scenario
from .control import ACTIVE, MODES, SLEEP, step_modes
from .mobility import draw_activity_flags, init_population, step_population
from .power import EnbMode, consumed_power_w
from .topology import Topology, build_coe, build_monet, build_udc

TAG_TOPOLOGY = 0
TAG_WORLD = 1

HIST_BIN_WIDTH = 1e4
HIST_MAX = 1e6
HIST_BINS = int(HIST_MAX / HIST_BIN_WIDTH)

class EngineError(Exception):
    pass


class ZeroPower(EngineError):
    pass


def compute_ee(total_capacity_bps: float, total_power_w: float) -> float:
    """Delivered bits per joule; slot duration cancels out."""
    if total_power_w <= 0.0:
        raise ZeroPower(f"total power must be positive, got {total_power_w}")
    return total_capacity_bps / total_power_w


@dataclass(frozen=True)
class SlotMetrics:
    slot: int
    n_active_picos: int
    macro_active_users: int
    pico_active_users: int
    capacity_bps: float
    power_w: float
    ee_bits_per_joule: float
    # pico-only slice of the same slot, for the small-cell-view outputs
    pico_capacity_bps: float = 0.0
    pico_power_w: float = 0.0


def build_geometry(scenario: Scenario) -> Topology:
    """Layout for a scenario; depends only on (seed, layout), never on the
    serving mode, so donor-user topologies share their twin's geometry."""
    L = scenario.layout
    kind = scenario.geometry_kind()
    if kind == "monet":
        return build_monet(L.macro_radius_m)
    if kind == "coe":
        return build_coe(L.macro_radius_m, L.pico_radius_m, L.n_picos)
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed, TAG_TOPOLOGY])
    )
    return build_udc(
        rng, L.macro_radius_m, L.pico_radius_m, L.n_picos, L.max_place_attempts
    )


@dataclass
class UserTotals:
    """Per-user sums over every slot a run evaluates, across realizations."""

    cap_sum: np.ndarray
    active_slots: np.ndarray
    pico_slots: np.ndarray
    pico_cap_sum: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "UserTotals":
        return cls(np.zeros(n), np.zeros(n, dtype=np.int64),
                   np.zeros(n, dtype=np.int64), np.zeros(n))

    def add(self, cap: np.ndarray, active: np.ndarray,
            pico_served: np.ndarray) -> None:
        self.cap_sum += cap
        self.active_slots += active
        self.pico_slots += pico_served
        self.pico_cap_sum += np.where(pico_served, cap, 0.0)


class World:
    """One population + pico control state evolving under a scenario.

    Pico control lives in two (m,) int arrays: ``mode`` holds each pico's
    code (control.SLEEP, BOOT, ACTIVE) and ``boot_remaining`` its boot
    countdown.  Every slot adds into ``totals``, which worlds of one run may
    share.
    """

    def __init__(self, scenario: Scenario, topo: Topology, realization: int = 0,
                 totals: Optional[UserTotals] = None):
        self.s = scenario
        self.topo = topo
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, TAG_WORLD, realization])
        )
        self.static = scenario.slots == 1
        self.serving = scenario.serves_from_picos()
        self.pop = init_population(
            scenario.users.total,
            scenario.users.hotspot,
            topo,
            scenario.work,
            scenario.mobility_params(),
            self.rng,
            static_hotspot_in_cell=self.static,
        )
        m = len(topo.picos)
        self.n_picos = m
        self.mode = np.full(m, SLEEP, dtype=np.int64)
        self.boot_remaining = np.zeros(m, dtype=np.int64)
        self.centers = topo.pico_centers()
        self.pico_r = topo.pico_radius()

        C = scenario.channel
        self.w_user = user_bandwidth(C.bandwidth_hz, scenario.users.total)
        self.noise_dbm = noise_power_dbm(self.w_user, C.temperature_k)
        self.eirp_macro = C.macro_tx_dbm + C.macro_antenna_gain_dbi + C.ue_antenna_gain_dbi
        self.eirp_pico = C.pico_tx_dbm + C.pico_antenna_gain_dbi + C.ue_antenna_gain_dbi

        self.totals = UserTotals.zeros(scenario.users.total) if totals is None else totals
        # exposed after each slot, for traces and acceptance checks
        self.last_active: Optional[np.ndarray] = None
        self.last_serving: Optional[np.ndarray] = None  # -2 idle, -1 macro, j pico
        self.last_capacity: Optional[np.ndarray] = None

    # -- slot phases --------------------------------------------------------

    def _containing(self) -> np.ndarray:
        if self.n_picos == 0:
            return np.full(self.pop.n, -1, dtype=np.int64)
        return np.asarray(
            kernels.containing_disc(
                self.pop.px, self.pop.py,
                self.centers[:, 0], self.centers[:, 1], self.pico_r,
            )
        )

    def _counts(self, containing: np.ndarray, active: np.ndarray) -> np.ndarray:
        covered = active & (containing >= 0)
        return np.bincount(containing[covered], minlength=self.n_picos).astype(
            np.int64
        )

    def _pico_power(self, counts: np.ndarray) -> float:
        """Summed draw of every pico: load-dependent when Active, the sleep
        floor in Sleep and Boot (power.consumed_power_w, per pico)."""
        P = self.s.power_pico
        load = np.minimum(counts, P.user_capacity) / P.user_capacity
        draw = np.where(
            self.mode == ACTIVE,
            P.sectors * (P.p0_w + P.delta_p * P.p_max_w * load),
            P.sectors * P.p_sleep_w,
        )
        # added in pico order: np.sum's pairwise order would change the bytes
        return float(np.add.accumulate(draw)[-1]) if draw.size else 0.0

    def _evaluate(self, slot: int, active: np.ndarray, containing: np.ndarray,
                  counts: np.ndarray) -> SlotMetrics:
        """Association, link budgets, power, metrics for one slot."""
        s = self.s
        pop = self.pop
        n = pop.n
        if self.n_picos > 0:
            safe = np.where(containing >= 0, containing, 0)
            pico_served = active & (containing >= 0) & (self.mode[safe] == ACTIVE)
            d_pico = np.hypot(
                pop.px - self.centers[safe, 0], pop.py - self.centers[safe, 1]
            )
        else:
            pico_served = np.zeros(n, dtype=bool)
            d_pico = None
        macro_served = active & ~pico_served
        d_macro = np.hypot(pop.px - self.topo.macro.x, pop.py - self.topo.macro.y)
        dist = np.where(pico_served, d_pico, d_macro) if d_pico is not None else d_macro

        z = self.rng.standard_normal(n)
        sigma = np.where(
            pico_served, s.channel.pico_shadow_sigma_db, s.channel.macro_shadow_sigma_db
        )
        cap = np.asarray(
            kernels.link_capacity(
                dist, z * sigma, pico_served, self.w_user,
                self.eirp_macro, self.eirp_pico, self.noise_dbm,
                s.channel.min_distance_m,
            )
        )
        cap = np.where(active, cap, 0.0)

        n_macro = int(macro_served.sum())
        n_pico = int(pico_served.sum())
        if s.legacy.enabled:
            macro_power = float(
                np.asarray(
                    kernels.freespace_tx_power(
                        d_macro[macro_served],
                        s.legacy.macro.alpha, s.legacy.macro.beta, s.legacy.macro.g,
                        s.legacy.macro.k, s.legacy.macro.p0_w, s.legacy.macro.p_max_w,
                    )
                ).sum()
            )
            if n_pico:
                pico_power = float(
                    np.asarray(
                        kernels.freespace_tx_power(
                            d_pico[pico_served],
                            s.legacy.pico.alpha, s.legacy.pico.beta, s.legacy.pico.g,
                            s.legacy.pico.k, s.legacy.pico.p0_w, s.legacy.pico.p_max_w,
                        )
                    ).sum()
                )
            else:
                pico_power = 0.0
        else:
            macro_power = consumed_power_w(s.power_macro, EnbMode.ACTIVE, n_macro)
            pico_power = self._pico_power(counts) if self.serving else 0.0

        total_cap = float(cap.sum())
        total_power = macro_power + pico_power
        ee = total_cap / total_power if total_power > 0 else 0.0

        self.totals.add(cap, active, pico_served)
        self.last_active = active
        serving = np.full(n, -2, dtype=np.int64)
        serving[macro_served] = -1
        if self.n_picos > 0:
            serving[pico_served] = containing[pico_served]
        self.last_serving = serving
        self.last_capacity = cap

        return SlotMetrics(
            slot=slot,
            n_active_picos=int((self.mode == ACTIVE).sum()),
            macro_active_users=n_macro,
            pico_active_users=n_pico,
            capacity_bps=total_cap,
            power_w=total_power,
            ee_bits_per_joule=ee,
            pico_capacity_bps=float(cap[pico_served].sum()),
            pico_power_w=pico_power,
        )

    def run_slot(self, slot: int) -> SlotMetrics:
        """Advance the world by one slot; ``slot`` labels the metrics row.

        A snapshot world (slots = 1) does not move, and its picos are Active
        wherever the activation threshold is met: the stationary view of the
        control loop, with no boot transient.  Picos of a non-serving
        layout stay asleep; in legacy accounting every serving pico is on.
        """
        s = self.s
        if not self.static:
            step_population(
                self.pop, slot, self.topo, s.work, s.mobility_params(), self.rng
            )
        containing = self._containing()
        active = draw_activity_flags(
            self.pop, containing, self.rng,
            s.users.activity_uniform, s.users.activity_hotspot,
        )
        counts = self._counts(containing, active)
        if self.serving:
            if s.legacy.enabled:
                self.mode[:] = ACTIVE
            elif self.static:
                self.mode = np.where(s.policy.should_wake(counts), ACTIVE, SLEEP)
            else:
                self.mode, self.boot_remaining = step_modes(
                    self.mode, self.boot_remaining, counts, s.policy, s.boot_slots
                )
        return self._evaluate(slot, active, containing, counts)


@dataclass
class RunResult:
    scenario: Scenario
    topology: Topology
    slot_metrics: list[SlotMetrics]
    ee_mean: float
    ee_std: float
    capacity_mean: float
    power_mean: float
    active_picos_mean: float
    is_hotspot: np.ndarray
    mean_rate_bps: np.ndarray         # per user, over its active slots
    frac_slots_on_pico: np.ndarray
    pico_mean_rate_bps: np.ndarray    # per user, over its pico-served slots
    active_slot_count: np.ndarray
    pico_slot_count: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    user_trace: Optional[list[tuple]] = None
    pico_trace: Optional[list[tuple]] = None


def rate_histogram(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-bin histogram: 100 bins of 1e4 b/s over [0, 1e6]; values at or
    beyond the top edge land in the last bin."""
    edges = HIST_BIN_WIDTH * np.arange(HIST_BINS + 1)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.zeros(HIST_BINS, dtype=np.int64), edges
    idx = np.clip((samples // HIST_BIN_WIDTH).astype(np.int64), 0, HIST_BINS - 1)
    return np.bincount(idx, minlength=HIST_BINS).astype(np.int64), edges


def _serving_label(code: int) -> str:
    if code == -2:
        return "none"
    if code == -1:
        return "macro"
    return f"pico:{code}"


def run_scenario(
    scenario: Scenario,
    trace_users: bool = False,
    trace_picos: bool = False,
) -> RunResult:
    topo = build_geometry(scenario)
    n = scenario.users.total
    snapshot = scenario.slots == 1
    totals = UserTotals.zeros(n)
    metrics: list[SlotMetrics] = []
    user_trace: Optional[list[tuple]] = [] if trace_users else None
    pico_trace: Optional[list[tuple]] = [] if trace_picos else None
    hist_samples: list[np.ndarray] = []

    def step(world: World, slot: int) -> None:
        metrics.append(world.run_slot(slot))
        if snapshot:
            hist_samples.append(world.last_capacity[world.last_active])
        if user_trace is not None:
            for i in range(n):
                user_trace.append(
                    (
                        slot, i,
                        float(world.pop.px[i]), float(world.pop.py[i]),
                        int(world.last_active[i]),
                        _serving_label(int(world.last_serving[i])),
                    )
                )
        if pico_trace is not None:
            for j, code in enumerate(world.mode):
                pico_trace.append((slot, j, MODES[code].value))

    if snapshot:
        # one fresh world per realization; the row's slot column is r
        for r in range(scenario.realizations):
            world = World(scenario, topo, realization=r, totals=totals)
            step(world, r)
    else:
        world = World(scenario, topo, realization=0, totals=totals)
        for slot in range(scenario.slots):
            step(world, slot)

    ever_active = totals.active_slots > 0
    mean_rate = np.divide(
        totals.cap_sum, totals.active_slots, out=np.zeros(n), where=ever_active
    )
    pico_mean_rate = np.divide(
        totals.pico_cap_sum, totals.pico_slots, out=np.zeros(n),
        where=totals.pico_slots > 0,
    )
    frac_on_pico = totals.pico_slots / len(metrics)
    # snapshots bin every active user-realization, time series each
    # ever-active user's mean rate
    hist_counts, hist_edges = rate_histogram(
        np.concatenate(hist_samples) if snapshot else mean_rate[ever_active]
    )

    ees = np.array([m.ee_bits_per_joule for m in metrics])
    caps = np.array([m.capacity_bps for m in metrics])
    pows = np.array([m.power_w for m in metrics])
    acts = np.array([m.n_active_picos for m in metrics])
    return RunResult(
        scenario=scenario,
        topology=topo,
        slot_metrics=metrics,
        ee_mean=float(ees.mean()),
        ee_std=float(ees.std(ddof=1)) if len(ees) > 1 else 0.0,
        capacity_mean=float(caps.mean()),
        power_mean=float(pows.mean()),
        active_picos_mean=float(acts.mean()),
        is_hotspot=world.pop.is_hotspot,
        mean_rate_bps=mean_rate,
        frac_slots_on_pico=frac_on_pico,
        pico_mean_rate_bps=pico_mean_rate,
        active_slot_count=totals.active_slots,
        pico_slot_count=totals.pico_slots,
        hist_counts=hist_counts,
        hist_edges=hist_edges,
        user_trace=user_trace,
        pico_trace=pico_trace,
    )


# --- CSV emission ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_slot_csv(result: RunResult, path: str | Path) -> None:
    """Per-slot metrics; for snapshot ensembles the slot column carries the
    realization index."""
    _write_rows(
        Path(path),
        ["slot", "n_active_picos", "macro_active_users", "pico_active_users",
         "capacity_bps", "power_w", "ee_bits_per_joule"],
        (
            (m.slot, m.n_active_picos, m.macro_active_users, m.pico_active_users,
             m.capacity_bps, m.power_w, m.ee_bits_per_joule)
            for m in result.slot_metrics
        ),
    )


def write_pico_view_csv(result: RunResult, path: str | Path) -> None:
    """Same schema as the per-slot CSV but restricted to the pico layer:
    capacity/power/EE of the small cells alone."""
    def rows():
        for m in result.slot_metrics:
            ee = (
                m.pico_capacity_bps / m.pico_power_w if m.pico_power_w > 0 else 0.0
            )
            yield (
                m.slot, m.n_active_picos, m.macro_active_users,
                m.pico_active_users, m.pico_capacity_bps, m.pico_power_w, ee
            )

    _write_rows(
        Path(path),
        ["slot", "n_active_picos", "macro_active_users", "pico_active_users",
         "capacity_bps", "power_w", "ee_bits_per_joule"],
        rows(),
    )


def write_users_csv(result: RunResult, path: str | Path) -> None:
    n = result.mean_rate_bps.shape[0]
    _write_rows(
        Path(path),
        ["user_id", "kind", "mean_rate_bps", "frac_slots_on_pico"],
        (
            (
                i,
                "hotspot" if result.is_hotspot[i] else "uniform",
                float(result.mean_rate_bps[i]),
                float(result.frac_slots_on_pico[i]),
            )
            for i in range(n)
        ),
    )


def write_histogram_csv(result: RunResult, path: str | Path) -> None:
    _write_rows(
        Path(path),
        ["bin_left_bps", "bin_right_bps", "count"],
        (
            (
                float(result.hist_edges[i]),
                float(result.hist_edges[i + 1]),
                int(result.hist_counts[i]),
            )
            for i in range(len(result.hist_counts))
        ),
    )


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    _write_rows(
        Path(path),
        ["threshold", "topology", "ee_mean", "ee_std", "capacity_mean", "power_mean"],
        (
            (
                row["threshold"], row["topology"], float(row["ee_mean"]),
                float(row["ee_std"]), float(row["capacity_mean"]),
                float(row["power_mean"]),
            )
            for row in rows
        ),
    )


def write_user_trace_csv(result: RunResult, path: str | Path) -> None:
    if result.user_trace is None:
        raise EngineError("run was executed without trace_users")
    _write_rows(
        Path(path),
        ["slot", "user_id", "x", "y", "active", "serving_cell"],
        result.user_trace,
    )


def write_pico_trace_csv(result: RunResult, path: str | Path) -> None:
    if result.pico_trace is None:
        raise EngineError("run was executed without trace_picos")
    _write_rows(
        Path(path),
        ["slot", "pico_id", "mode"],
        result.pico_trace,
    )


def sweep_rows(result: RunResult, threshold) -> dict:
    """One sweep-CSV row from an aggregated run."""
    return {
        "threshold": threshold,
        "topology": result.scenario.topology,
        "ee_mean": result.ee_mean,
        "ee_std": result.ee_std,
        "capacity_mean": result.capacity_mean,
        "power_mean": result.power_mean,
    }
