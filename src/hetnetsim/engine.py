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

run_scenarios makes that the code path: scenarios with the same
process_key form a group whose user process (positions, containment,
activity, fading and both tiers' link capacities) is simulated once, and
each scenario is one row of the group's (K, m) pico control and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .channel import noise_power_dbm, user_bandwidth
from .config import Scenario
from .control import ACTIVE, MODES, SLEEP, PolicyRows, step_modes
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


def process_key(s: Scenario) -> tuple:
    """The fields that drive a scenario's user process: layout, users,
    mobility, activity and fading.  Scenarios with equal keys see the same
    users in every slot and differ only in how their picos respond."""
    return (s.seed, s.slots, s.realizations, s.geometry_kind(), s.layout,
            s.users, s.work, s.channel)


class Response:
    """The per-scenario half of a group: one row per scenario, holding its
    pico control rule and pico power model as (K, 1) columns.

    The layout kind and the accounting are folded into the thresholds: a
    row whose layout does not serve (a monet_*_users twin) never wakes its
    picos, and a serving row under legacy accounting starts with every pico
    Active and never sleeps.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        self.scenarios = list(scenarios)
        self.serving = np.array([s.serves_from_picos() for s in scenarios])
        self.always_on = self.serving & np.array(
            [s.legacy.enabled for s in scenarios]
        )
        serving, always_on = self.serving[:, None], self.always_on[:, None]
        policy = PolicyRows.of([s.policy for s in scenarios])
        self.policy = PolicyRows(
            np.where(serving, np.where(always_on, -np.inf, policy.t_activate), np.inf),
            np.where(always_on, -np.inf, policy.t_deactivate),
        )
        self.boot_slots = np.array([[s.boot_slots] for s in scenarios])

        def column(name: str) -> np.ndarray:
            return np.array([[getattr(s.power_pico, name)] for s in scenarios])

        self.sectors = column("sectors")
        self.p0_w = column("p0_w")
        self.delta_p = column("delta_p")
        self.p_max_w = column("p_max_w")
        self.p_sleep_w = column("p_sleep_w")
        self.user_capacity = column("user_capacity")

    def initial_modes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, m) mode and boot_remaining arrays before the first slot."""
        mode = np.full((len(self.scenarios), m), SLEEP, dtype=np.int64)
        mode[self.always_on] = ACTIVE
        return mode, np.zeros_like(mode)

    def step(self, mode: np.ndarray, boot_remaining: np.ndarray,
             counts: np.ndarray, static: bool) -> tuple[np.ndarray, np.ndarray]:
        """Every row's pico modes for a slot with these user counts.  A
        snapshot wakes a pico wherever the activation threshold is met: the
        stationary view of the control loop, with no boot transient."""
        if static:
            return np.where(self.policy.should_wake(counts), ACTIVE, SLEEP), boot_remaining
        return step_modes(mode, boot_remaining, counts, self.policy, self.boot_slots)

    def pico_power(self, mode: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(K,) summed draw of each row's picos: load-dependent when Active,
        the sleep floor in Sleep and Boot (power.consumed_power_w, per
        pico); 0 W in a row whose layout does not serve."""
        if mode.shape[1] == 0:
            return np.zeros(mode.shape[0])
        load = np.minimum(counts, self.user_capacity) / self.user_capacity
        draw = np.where(
            mode == ACTIVE,
            self.sectors * (self.p0_w + self.delta_p * self.p_max_w * load),
            self.sectors * self.p_sleep_w,
        )
        # added in pico order: np.sum's pairwise order would change the bytes
        return np.where(self.serving, np.add.accumulate(draw, axis=1)[:, -1], 0.0)


@dataclass
class UserTotals:
    """Per-user sums over every slot a group evaluates, across realizations;
    (K, n) per row except active_slots, which all rows share."""

    cap_sum: np.ndarray
    active_slots: np.ndarray
    pico_slots: np.ndarray
    pico_cap_sum: np.ndarray

    @classmethod
    def zeros(cls, k: int, n: int) -> "UserTotals":
        return cls(np.zeros((k, n)), np.zeros(n, dtype=np.int64),
                   np.zeros((k, n), dtype=np.int64), np.zeros((k, n)))

    def add(self, cap: np.ndarray, active: np.ndarray,
            pico_served: np.ndarray) -> None:
        self.cap_sum += cap
        self.active_slots += active
        self.pico_slots += pico_served
        self.pico_cap_sum += np.where(pico_served, cap, 0.0)


class World:
    """One realization of a group's user process, and the pico control of
    every scenario (row) of the group.

    Positions, containment, activity and fading are drawn once per slot
    for the whole group.  Pico control lives in two (K, m) int arrays:
    ``mode[k]`` holds row k's pico codes (control.SLEEP, BOOT, ACTIVE) and
    ``boot_remaining[k]`` their boot countdowns.  Every slot adds into
    ``totals``, which the worlds of one group share.
    """

    def __init__(self, response: Response, topo: Topology, realization: int = 0,
                 totals: Optional[UserTotals] = None):
        scenario = response.scenarios[0]  # the user process is the group's
        self.s = scenario
        self.response = response
        self.topo = topo
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, TAG_WORLD, realization])
        )
        self.static = scenario.slots == 1
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
        self.mode, self.boot_remaining = response.initial_modes(m)
        self.centers = topo.pico_centers()
        self.pico_r = topo.pico_radius()

        C = scenario.channel
        self.w_user = user_bandwidth(C.bandwidth_hz, scenario.users.total)
        self.noise_dbm = noise_power_dbm(self.w_user, C.temperature_k)
        self.eirp_macro = C.macro_tx_dbm + C.macro_antenna_gain_dbi + C.ue_antenna_gain_dbi
        self.eirp_pico = C.pico_tx_dbm + C.pico_antenna_gain_dbi + C.ue_antenna_gain_dbi

        K = len(response.scenarios)
        self.totals = UserTotals.zeros(K, scenario.users.total) if totals is None else totals
        # exposed after each slot, for traces and histograms
        self.last_active: Optional[np.ndarray] = None       # (n,)
        self.last_containing: Optional[np.ndarray] = None   # (n,)
        self.last_pico_served: Optional[np.ndarray] = None  # (K, n)
        self.last_capacity: Optional[np.ndarray] = None     # (K, n)

    # -- slot phases --------------------------------------------------------

    def _containing(self) -> np.ndarray:
        return kernels.containing_disc(
            self.pop.px, self.pop.py,
            self.centers[:, 0], self.centers[:, 1], self.pico_r,
        )

    def _counts(self, containing: np.ndarray, active: np.ndarray) -> np.ndarray:
        covered = active & (containing >= 0)
        return np.bincount(containing[covered], minlength=self.n_picos).astype(
            np.int64
        )

    def _tier_capacities(self, in_disc: np.ndarray, containing: np.ndarray):
        """Both tiers' links for this slot's fading draw: (d_macro, cap_macro)
        for every user and (d_pico, cap_pico) for the users in_disc marks,
        the macro value standing in elsewhere."""
        s = self.s
        C = s.channel
        pop = self.pop
        z = self.rng.standard_normal(pop.n)

        def link(dist, shadow_db, pico_link):
            return kernels.link_capacity(
                dist, shadow_db, pico_link, self.w_user,
                self.eirp_macro, self.eirp_pico, self.noise_dbm,
                C.min_distance_m,
            )

        d_macro = np.hypot(pop.px - self.topo.macro.x, pop.py - self.topo.macro.y)
        cap_macro = link(d_macro, z * C.macro_shadow_sigma_db, False)
        d_pico, cap_pico = d_macro.copy(), cap_macro.copy()
        if in_disc.any():
            j = containing[in_disc]
            d_pico[in_disc] = np.hypot(
                pop.px[in_disc] - self.centers[j, 0], pop.py[in_disc] - self.centers[j, 1]
            )
            cap_pico[in_disc] = link(
                d_pico[in_disc], z[in_disc] * C.pico_shadow_sigma_db, True
            )
        return d_macro, cap_macro, d_pico, cap_pico

    def _evaluate(self, slot: int, active: np.ndarray, containing: np.ndarray,
                  counts: np.ndarray) -> list[SlotMetrics]:
        """Association, link budgets, power and metrics of one slot, one
        SlotMetrics per row."""
        # only an active user inside a disc can be pico-served
        in_disc = active & (containing >= 0)
        d_macro, cap_macro, d_pico, cap_pico = self._tier_capacities(in_disc, containing)
        if self.n_picos:
            # take() keeps the (K, n) arrays C-ordered (mode[:, safe] would
            # not): a row sum over another layout adds in another order
            safe = np.where(containing >= 0, containing, 0)
            pico_served = (self.mode.take(safe, axis=1) == ACTIVE) & in_disc
        else:
            pico_served = np.zeros(self.mode.shape[:1] + in_disc.shape, dtype=bool)
        cap = np.where(pico_served, cap_pico, np.where(active, cap_macro, 0.0))
        total_cap = cap.sum(axis=1)
        n_pico = pico_served.sum(axis=1)
        n_macro = int(active.sum()) - n_pico
        n_on = (self.mode == ACTIVE).sum(axis=1)
        pico_draw = self.response.pico_power(self.mode, counts)

        metrics = []
        for k, s in enumerate(self.response.scenarios):
            served = pico_served[k]
            if s.legacy.enabled:
                L = s.legacy
                macro_power = float(kernels.freespace_tx_power(
                    d_macro[active & ~served], L.macro.alpha, L.macro.beta,
                    L.macro.g, L.macro.k, L.macro.p0_w, L.macro.p_max_w,
                ).sum())
                pico_power = float(kernels.freespace_tx_power(
                    d_pico[served], L.pico.alpha, L.pico.beta,
                    L.pico.g, L.pico.k, L.pico.p0_w, L.pico.p_max_w,
                ).sum()) if n_pico[k] else 0.0
            else:
                macro_power = consumed_power_w(
                    s.power_macro, EnbMode.ACTIVE, int(n_macro[k])
                )
                pico_power = float(pico_draw[k])
            capacity = float(total_cap[k])
            total_power = macro_power + pico_power
            metrics.append(SlotMetrics(
                slot=slot,
                n_active_picos=int(n_on[k]),
                macro_active_users=int(n_macro[k]),
                pico_active_users=int(n_pico[k]),
                capacity_bps=capacity,
                power_w=total_power,
                ee_bits_per_joule=capacity / total_power if total_power > 0 else 0.0,
                pico_capacity_bps=float(cap[k][served].sum()),
                pico_power_w=pico_power,
            ))

        self.totals.add(cap, active, pico_served)
        self.last_active = active
        self.last_containing = containing
        self.last_pico_served = pico_served
        self.last_capacity = cap
        return metrics

    def run_slot(self, slot: int) -> list[SlotMetrics]:
        """Advance the world by one slot; ``slot`` labels the metrics rows.

        A snapshot world (slots = 1) does not move, and each row's picos
        take the stationary modes of Response.step.
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
        self.mode, self.boot_remaining = self.response.step(
            self.mode, self.boot_remaining, counts, self.static
        )
        return self._evaluate(slot, active, containing, counts)


@dataclass
class UserTrace:
    """Every user in every slot of a traced run, as (slots, n) columns;
    row t is slot t, or realization t of a snapshot."""

    x: np.ndarray
    y: np.ndarray
    active: np.ndarray
    serving: np.ndarray  # -2 idle, -1 macro, j pico


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
    user_trace: Optional[UserTrace] = None
    pico_trace: Optional[np.ndarray] = None  # (slots, m) mode codes


def _hist_index(samples: np.ndarray) -> np.ndarray:
    return np.clip((samples // HIST_BIN_WIDTH).astype(np.int64), 0, HIST_BINS - 1)


def rate_histogram(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-bin histogram: 100 bins of 1e4 b/s over [0, 1e6]; values at or
    beyond the top edge land in the last bin."""
    edges = HIST_BIN_WIDTH * np.arange(HIST_BINS + 1)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.zeros(HIST_BINS, dtype=np.int64), edges
    return np.bincount(_hist_index(samples), minlength=HIST_BINS).astype(np.int64), edges


def run_scenarios(
    scenarios: Sequence[Scenario],
    trace_users: bool = False,
    trace_picos: bool = False,
) -> list[RunResult]:
    """Run every scenario; results come back in input order.

    Scenarios with the same process_key are one group: their user process
    is simulated once and each scenario is a row of the group's response.
    """
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault(process_key(s), []).append(i)
    results: list[Optional[RunResult]] = [None] * len(scenarios)
    for members in groups.values():
        rows = _run_group([scenarios[i] for i in members], trace_users, trace_picos)
        for i, result in zip(members, rows):
            results[i] = result
    return results


def run_scenario(
    scenario: Scenario,
    trace_users: bool = False,
    trace_picos: bool = False,
) -> RunResult:
    return run_scenarios([scenario], trace_users, trace_picos)[0]


def _run_group(scenarios: list[Scenario], trace_users: bool,
               trace_picos: bool) -> list[RunResult]:
    s0 = scenarios[0]
    topo = build_geometry(s0)
    response = Response(scenarios)
    K, n, m = len(scenarios), s0.users.total, len(topo.picos)
    snapshot = s0.slots == 1
    rows = s0.realizations if snapshot else s0.slots
    totals = UserTotals.zeros(K, n)
    metrics: list[list[SlotMetrics]] = [[] for _ in range(K)]
    if trace_users:
        xs, ys = np.empty((rows, n)), np.empty((rows, n))
        actives = np.empty((rows, n), dtype=bool)
        serving = np.empty((K, rows, n), dtype=np.int64)
    modes = np.empty((K, rows, m), dtype=np.int64) if trace_picos else None
    # snapshots bin every active user-realization, counted as they come
    hist = np.zeros((K, HIST_BINS), dtype=np.int64)
    row_offset = HIST_BINS * np.arange(K)[:, None]

    def step(world: World, slot: int) -> None:
        for k, metric in enumerate(world.run_slot(slot)):
            metrics[k].append(metric)
        active = world.last_active
        if snapshot:
            idx = _hist_index(world.last_capacity[:, active]) + row_offset
            hist[:] += np.bincount(idx.ravel(), minlength=K * HIST_BINS).reshape(K, -1)
        if trace_users:
            xs[slot], ys[slot], actives[slot] = world.pop.px, world.pop.py, active
            serving[:, slot] = np.where(
                world.last_pico_served, world.last_containing,
                np.where(active, -1, -2),
            )
        if trace_picos:
            modes[:, slot] = world.mode

    if snapshot:
        # one fresh world per realization; the row's slot column is r
        for r in range(s0.realizations):
            world = World(response, topo, realization=r, totals=totals)
            step(world, r)
    else:
        world = World(response, topo, realization=0, totals=totals)
        for slot in range(s0.slots):
            step(world, slot)

    ever_active = totals.active_slots > 0
    mean_rate = np.divide(
        totals.cap_sum, totals.active_slots, out=np.zeros((K, n)), where=ever_active
    )
    pico_mean_rate = np.divide(
        totals.pico_cap_sum, totals.pico_slots, out=np.zeros((K, n)),
        where=totals.pico_slots > 0,
    )
    frac_on_pico = totals.pico_slots / len(metrics[0])
    edges = HIST_BIN_WIDTH * np.arange(HIST_BINS + 1)
    results = []
    for k, s in enumerate(scenarios):
        # time series bin each ever-active user's mean rate
        hist_counts = (
            hist[k] if snapshot else rate_histogram(mean_rate[k][ever_active])[0]
        )
        ees = np.array([m.ee_bits_per_joule for m in metrics[k]])
        caps = np.array([m.capacity_bps for m in metrics[k]])
        pows = np.array([m.power_w for m in metrics[k]])
        acts = np.array([m.n_active_picos for m in metrics[k]])
        results.append(RunResult(
            scenario=s,
            topology=topo,
            slot_metrics=metrics[k],
            ee_mean=float(ees.mean()),
            ee_std=float(ees.std(ddof=1)) if len(ees) > 1 else 0.0,
            capacity_mean=float(caps.mean()),
            power_mean=float(pows.mean()),
            active_picos_mean=float(acts.mean()),
            is_hotspot=world.pop.is_hotspot,
            mean_rate_bps=mean_rate[k],
            frac_slots_on_pico=frac_on_pico[k],
            pico_mean_rate_bps=pico_mean_rate[k],
            active_slot_count=totals.active_slots,
            pico_slot_count=totals.pico_slots[k],
            hist_counts=hist_counts,
            hist_edges=edges,
            user_trace=UserTrace(xs, ys, actives, serving[k]) if trace_users else None,
            pico_trace=None if modes is None else modes[k],
        ))
    return results


# --- CSV emission ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: Path, header: list[str], chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def _write_rows(path: Path, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(_fmt(v) for v in row) + "\n" for row in rows))


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
    """One chunk of lines per slot, formatted from .tolist() columns: %r of
    a Python float is its repr, as _fmt writes it."""
    trace = result.user_trace
    if trace is None:
        raise EngineError("run was executed without trace_users")
    # serving code c is labelled labels[c + 2]
    labels = ["none", "macro", *(f"pico:{j}" for j in range(len(result.topology.picos)))]
    users = range(trace.x.shape[1])
    _write_lines(
        Path(path),
        ["slot", "user_id", "x", "y", "active", "serving_cell"],
        (
            "".join(map("%d,%d,%r,%r,%d,%s\n".__mod__, zip(
                repeat(slot), users, trace.x[slot].tolist(), trace.y[slot].tolist(),
                trace.active[slot].tolist(),
                map(labels.__getitem__, (trace.serving[slot] + 2).tolist()),
            )))
            for slot in range(trace.x.shape[0])
        ),
    )


def write_pico_trace_csv(result: RunResult, path: str | Path) -> None:
    """One chunk of lines per slot, as write_user_trace_csv writes."""
    modes = result.pico_trace
    if modes is None:
        raise EngineError("run was executed without trace_picos")
    labels = [mode.value for mode in MODES]
    picos = range(modes.shape[1])
    _write_lines(
        Path(path),
        ["slot", "pico_id", "mode"],
        (
            "".join(map("%d,%d,%s\n".__mod__, zip(
                repeat(slot), picos, map(labels.__getitem__, codes.tolist()),
            )))
            for slot, codes in enumerate(modes)
        ),
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
