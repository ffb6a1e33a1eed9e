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

from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from . import kernels
from .channel import noise_power_dbm, user_bandwidth
from .config import Scenario
from .control import ACTIVE, MODES, SLEEP, PolicyRows, step_modes
from .mobility import draw_activity_flags, init_population, step_population
from .power import PicoPowerRows, PowerRows
from .topology import Topology, build_coe, build_monet, build_udc

TAG_TOPOLOGY = 0
TAG_WORLD = 1

HIST_BIN_WIDTH = 1e4
HIST_MAX = 1e6
HIST_BINS = int(HIST_MAX / HIST_BIN_WIDTH)

# what run_scenarios can build beyond the slot columns and their means:
# per_user is what run and the time-series presets write besides the slot
# CSV (per-user totals, the rate histogram and the pico-layer capacity of
# the pico view); the others are the user and pico traces
OUTPUTS = frozenset({"per_user", "user_trace", "pico_trace"})


class EngineError(Exception):
    pass


def compute_ee(capacity_bps: np.ndarray, power_w: np.ndarray) -> np.ndarray:
    """Delivered bits per joule of equal-shaped arrays, elementwise (slot
    duration cancels out); 0 where the power is not positive."""
    return np.divide(capacity_bps, power_w, out=np.zeros(power_w.shape),
                     where=power_w > 0)


@dataclass
class SlotColumns:
    """Per-slot metrics as columns: (K,) over a group's rows for one slot,
    as World.run_slot returns them, or (slots,) for one row, as
    RunResult.slot_metrics holds them; entry t is slot t, or realization t
    of a snapshot."""

    n_active_picos: np.ndarray
    macro_active_users: np.ndarray
    pico_active_users: np.ndarray
    capacity_bps: np.ndarray
    power_w: np.ndarray
    ee_bits_per_joule: np.ndarray
    # pico-only slice of the same slots, for the small-cell-view outputs;
    # the capacity only with the per_user output
    pico_power_w: np.ndarray
    pico_capacity_bps: Optional[np.ndarray] = None


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

    The layout kind is folded into the thresholds: a row whose layout does
    not serve (a monet_*_users twin) never wakes its picos.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        self.scenarios = list(scenarios)
        self.serving = np.array([s.serves_from_picos() for s in scenarios])
        policy = PolicyRows.of([s.policy for s in scenarios])
        self.policy = PolicyRows(
            np.where(self.serving[:, None], policy.t_activate, np.inf),
            policy.t_deactivate,
        )
        self.boot_slots = np.array([[s.boot_slots] for s in scenarios])
        self.pico = PicoPowerRows.of([s.power.pico for s in scenarios])
        self.macro = PowerRows.of([s.power.macro for s in scenarios])

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
        the sleep floor in Sleep and Boot; 0 W in a row whose layout does
        not serve."""
        if mode.shape[1] == 0:
            return np.zeros(mode.shape[0])
        draw = np.where(mode == ACTIVE, self.pico.active_draw(counts),
                        self.pico.sleep_draw())
        # added in pico order: np.sum's pairwise order would change the bytes
        return np.where(self.serving, np.add.accumulate(draw, axis=1)[:, -1], 0.0)

    def macro_power(self, n_served: np.ndarray) -> np.ndarray:
        """(K,) draw of each row's macro, which never sleeps, serving
        n_served[k] users."""
        return self.macro.active_draw(n_served[:, None])[:, 0]


class World:
    """One realization of a group's user process, and the pico control of
    every scenario (row) of the group.

    Positions, containment, activity and fading are drawn once per slot
    for the whole group.  Pico control lives in two (K, m) int arrays:
    ``mode[k]`` holds row k's pico codes (control.SLEEP, BOOT, ACTIVE) and
    ``boot_remaining[k]`` their boot countdowns.  ``discs`` is the
    kernels.disc_index of topo's picos, which the worlds of a group share.
    """

    def __init__(self, response: Response, topo: Topology,
                 discs: kernels.DiscIndex, realization: int = 0):
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
            scenario.users,
            self.rng,
            static_hotspot_in_cell=self.static,
        )
        m = topo.cx.size
        self.n_picos = m
        self.mode = np.full((len(response.scenarios), m), SLEEP, dtype=np.int64)
        self.boot_remaining = np.zeros_like(self.mode)
        self.discs = discs

        C = scenario.channel
        self.w_user = user_bandwidth(C.bandwidth_hz, scenario.users.total)
        self.noise_dbm = noise_power_dbm(self.w_user, C.temperature_k)
        self.eirp_macro = C.macro_tx_dbm + C.macro_antenna_gain_dbi + C.ue_antenna_gain_dbi
        self.eirp_pico = C.pico_tx_dbm + C.pico_antenna_gain_dbi + C.ue_antenna_gain_dbi

        # exposed after each slot, for totals, histograms and traces
        self.last_active: Optional[np.ndarray] = None       # (n,)
        self.last_containing: Optional[np.ndarray] = None   # (n,)
        self.last_pico_served: Optional[np.ndarray] = None  # (K, n)
        self.last_capacity: Optional[np.ndarray] = None     # (K, n)

    # -- slot phases --------------------------------------------------------

    def _containing(self) -> np.ndarray:
        return kernels.containing_disc(self.pop.px, self.pop.py, self.discs)

    def _counts(self, containing: np.ndarray, active: np.ndarray) -> np.ndarray:
        covered = active & (containing >= 0)
        return np.bincount(containing[covered], minlength=self.n_picos).astype(
            np.int64
        )

    def _tier_capacities(self, active: np.ndarray, in_disc: np.ndarray,
                         containing: np.ndarray):
        """Both tiers' link capacities for this slot's fading draw: cap_macro
        for the active users and cap_pico for the users in_disc marks, the
        macro value standing in elsewhere.  An idle user's capacity is 0 in
        both: no link is evaluated for it, though it still draws its fading
        normal."""
        C = self.s.channel
        pop, discs, R = self.pop, self.discs, self.topo.macro_radius
        z = self.rng.standard_normal(pop.n)

        def link(users, dx, dy, sigma_db, pico_link):
            return kernels.link_capacity(
                np.hypot(dx, dy), z.take(users) * sigma_db, pico_link, self.w_user,
                self.eirp_macro, self.eirp_pico, self.noise_dbm, C.min_distance_m,
            )

        # index gathers: a boolean mask gathers several times slower
        on = np.flatnonzero(active)
        cap_macro = np.zeros(pop.n)
        cap_macro[on] = link(on, pop.px.take(on) - R, pop.py.take(on) - R,
                             C.macro_shadow_sigma_db, False)
        near = np.flatnonzero(in_disc)
        j = containing.take(near)
        cap_pico = cap_macro.copy()
        cap_pico[near] = link(near, pop.px.take(near) - discs.cx.take(j),
                              pop.py.take(near) - discs.cy.take(j),
                              C.pico_shadow_sigma_db, True)
        return cap_macro, cap_pico

    def _evaluate(self, active: np.ndarray, containing: np.ndarray,
                  counts: np.ndarray) -> SlotColumns:
        """Association, link budgets, power and metrics of one slot, as
        (K,) columns over the rows."""
        # only an active user inside a disc can be pico-served
        in_disc = active & (containing >= 0)
        cap_macro, cap_pico = self._tier_capacities(active, in_disc, containing)
        awake = self.mode == ACTIVE
        if self.n_picos:
            # take() keeps the (K, n) arrays C-ordered (awake[:, safe] would
            # not): a row sum over another layout adds in another order
            safe = np.where(containing >= 0, containing, 0)
            pico_served = awake.take(safe, axis=1) & in_disc
        else:
            pico_served = np.zeros(self.mode.shape[:1] + in_disc.shape, dtype=bool)
        cap = np.where(pico_served, cap_pico, cap_macro)
        capacity = cap.sum(axis=1)
        n_pico = pico_served.sum(axis=1)
        n_macro = int(active.sum()) - n_pico
        pico_power = self.response.pico_power(self.mode, counts)
        power = self.response.macro_power(n_macro) + pico_power

        self.last_active = active
        self.last_containing = containing
        self.last_pico_served = pico_served
        self.last_capacity = cap
        return SlotColumns(
            n_active_picos=awake.sum(axis=1),
            macro_active_users=n_macro,
            pico_active_users=n_pico,
            capacity_bps=capacity,
            power_w=power,
            ee_bits_per_joule=compute_ee(capacity, power),
            pico_power_w=pico_power,
        )

    def run_slot(self, slot: int) -> SlotColumns:
        """Advance the world by one slot (``slot`` drives the work
        schedule); returns the slot's (K,) metric columns.

        A snapshot world (slots = 1) does not move, and each row's picos
        take the stationary modes of Response.step.
        """
        s = self.s
        if not self.static:
            step_population(
                self.pop, slot, self.topo, s.work, s.users, self.rng
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
        return self._evaluate(active, containing, counts)


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
    slot_metrics: SlotColumns
    ee_mean: float
    ee_std: float
    capacity_mean: float
    power_mean: float
    active_picos_mean: float
    # with the per_user output: per-user values, then the rate histogram
    is_hotspot: Optional[np.ndarray] = None
    mean_rate_bps: Optional[np.ndarray] = None       # over its active slots
    frac_slots_on_pico: Optional[np.ndarray] = None
    hist_counts: Optional[np.ndarray] = None
    user_trace: Optional[UserTrace] = None
    pico_trace: Optional[np.ndarray] = None  # (slots, m) mode codes


def hist_counts(rates: np.ndarray) -> np.ndarray:
    """(K, HIST_BINS) histogram of each row of a (K, x) rate array: 100
    bins of 1e4 b/s over [0, 1e6]; rates at or beyond the top edge land in
    the last bin.  Row k's bins are offset by k * HIST_BINS, so one
    bincount fills every row."""
    K = rates.shape[0]
    idx = np.clip((rates // HIST_BIN_WIDTH).astype(np.int64), 0, HIST_BINS - 1)
    idx += HIST_BINS * np.arange(K)[:, None]
    return np.bincount(idx.ravel(), minlength=K * HIST_BINS).reshape(K, HIST_BINS)


def run_scenarios(
    scenarios: Sequence[Scenario],
    outputs: Collection[str] = (),
) -> list[RunResult]:
    """Run every scenario; results come back in input order.

    Every result holds its slot columns and their means; ``outputs`` names
    what else to build, from OUTPUTS.  Scenarios with the same process_key
    are one group: their user process is simulated once and each scenario
    is a row of the group's response.
    """
    outputs = frozenset(outputs)
    if outputs - OUTPUTS:
        raise ValueError(f"unknown outputs {sorted(outputs - OUTPUTS)}; "
                         f"expected some of {sorted(OUTPUTS)}")
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault(process_key(s), []).append(i)
    results: list[Optional[RunResult]] = [None] * len(scenarios)
    for members in groups.values():
        rows = _run_group([scenarios[i] for i in members], outputs)
        for i, result in zip(members, rows):
            results[i] = result
    return results


def run_scenario(scenario: Scenario, outputs: Collection[str] = ()) -> RunResult:
    return run_scenarios([scenario], outputs)[0]


def _run_group(scenarios: list[Scenario], outputs: frozenset) -> list[RunResult]:
    s0 = scenarios[0]
    topo = build_geometry(s0)
    response = Response(scenarios)
    K, n, m = len(scenarios), s0.users.total, topo.cx.size
    snapshot = s0.slots == 1
    rows = s0.realizations if snapshot else s0.slots
    discs = kernels.disc_index(topo.cx, topo.cy, topo.pico_radius)
    columns: list[SlotColumns] = []
    per_user = "per_user" in outputs
    if per_user:
        # per-user sums over every slot and realization; snapshots bin
        # every active user-realization as they come
        cap_sum = np.zeros((K, n))
        active_slots = np.zeros(n, dtype=np.int64)
        pico_slots = np.zeros((K, n), dtype=np.int64)
        hist = np.zeros((K, HIST_BINS), dtype=np.int64)
    trace_users = "user_trace" in outputs
    if trace_users:
        xs, ys = np.empty((rows, n)), np.empty((rows, n))
        actives = np.empty((rows, n), dtype=bool)
        serving = np.empty((K, rows, n), dtype=np.int64)
    modes = np.empty((K, rows, m), dtype=np.int64) if "pico_trace" in outputs else None

    # one fresh world per realization of a snapshot, whose row's slot
    # column is r; one world stepped through every slot of a time series
    if snapshot:
        worlds = map(partial(World, response, topo, discs), range(rows))
    else:
        worlds = repeat(World(response, topo, discs), rows)
    for slot, world in enumerate(worlds):
        slot_columns = world.run_slot(slot)
        columns.append(slot_columns)
        active, cap = world.last_active, world.last_capacity
        if per_user:
            # a compacted sum: zeros in place of the macro-served users
            # would change numpy's pairwise order
            slot_columns.pico_capacity_bps = np.array(
                [row[served].sum() for row, served in zip(cap, world.last_pico_served)]
            )
            cap_sum += cap
            active_slots += active
            pico_slots += world.last_pico_served
            if snapshot:
                hist += hist_counts(cap[:, active])
        if trace_users:
            xs[slot], ys[slot], actives[slot] = world.pop.px, world.pop.py, active
            serving[:, slot] = np.where(
                world.last_pico_served, world.last_containing,
                np.where(active, -1, -2),
            )
        if modes is not None:
            modes[:, slot] = world.mode

    # (K, rows), C-ordered: row k of each is one contiguous (rows,) column
    stacked = {
        f.name: np.stack([getattr(c, f.name) for c in columns], axis=1)
        for f in fields(SlotColumns) if getattr(columns[0], f.name) is not None
    }
    results = []
    for k, s in enumerate(scenarios):
        metrics = SlotColumns(**{name: col[k] for name, col in stacked.items()})
        ees = metrics.ee_bits_per_joule
        results.append(RunResult(
            scenario=s,
            topology=topo,
            slot_metrics=metrics,
            ee_mean=float(ees.mean()),
            ee_std=float(ees.std(ddof=1)) if rows > 1 else 0.0,
            capacity_mean=float(metrics.capacity_bps.mean()),
            power_mean=float(metrics.power_w.mean()),
            active_picos_mean=float(metrics.n_active_picos.mean()),
            user_trace=UserTrace(xs, ys, actives, serving[k]) if trace_users else None,
            pico_trace=None if modes is None else modes[k],
        ))
    if not per_user:
        return results

    ever_active = active_slots > 0
    mean_rate = np.divide(cap_sum, active_slots, out=np.zeros((K, n)), where=ever_active)
    frac_on_pico = pico_slots / rows
    if not snapshot:
        # time series bin each ever-active user's mean rate
        hist = hist_counts(mean_rate[:, ever_active])
    for k, result in enumerate(results):
        result.is_hotspot = world.pop.is_hotspot
        result.mean_rate_bps = mean_rate[k]
        result.frac_slots_on_pico = frac_on_pico[k]
        result.hist_counts = hist[k]
    return results


# --- CSV emission ----------------------------------------------------------


# lines formatted per chunk of rows by the column writers
CHUNK_ROWS = 4096


def _write_lines(path: Path, header: list[str], chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def _write_columns(path: Path, header: list[str], line: str, *columns) -> None:
    """One line ``line % row`` per row of equal-length 1-D arrays, formatted
    a chunk of rows at a time from .tolist(): %r of a Python float is its
    repr, and %d or %s of a Python int its str."""
    rows = columns[0].shape[0]
    _write_lines(path, header, (
        "".join(map(line.__mod__, zip(*(c[i:i + CHUNK_ROWS].tolist() for c in columns))))
        for i in range(0, rows, CHUNK_ROWS)
    ))


def _write_slots(path: str | Path, m: SlotColumns, capacity, power) -> None:
    _write_columns(
        Path(path),
        ["slot", "n_active_picos", "macro_active_users", "pico_active_users",
         "capacity_bps", "power_w", "ee_bits_per_joule"],
        "%d,%d,%d,%d,%r,%r,%r\n",
        np.arange(power.shape[0]), m.n_active_picos, m.macro_active_users,
        m.pico_active_users, capacity, power, compute_ee(capacity, power),
    )


def write_slot_csv(result: RunResult, path: str | Path) -> None:
    """Per-slot metrics; for snapshot ensembles the slot column carries the
    realization index."""
    m = result.slot_metrics
    _write_slots(path, m, m.capacity_bps, m.power_w)


def write_pico_view_csv(result: RunResult, path: str | Path) -> None:
    """Same schema as the per-slot CSV but restricted to the pico layer:
    capacity/power/EE of the small cells alone."""
    m = result.slot_metrics
    if m.pico_capacity_bps is None:
        raise EngineError("run was executed without the per_user output")
    _write_slots(path, m, m.pico_capacity_bps, m.pico_power_w)


def write_users_csv(result: RunResult, path: str | Path) -> None:
    if result.mean_rate_bps is None:
        raise EngineError("run was executed without the per_user output")
    _write_columns(
        Path(path), ["user_id", "kind", "mean_rate_bps", "frac_slots_on_pico"],
        "%d,%s,%r,%r\n",
        np.arange(result.mean_rate_bps.shape[0]),
        np.where(result.is_hotspot, "hotspot", "uniform"),
        result.mean_rate_bps, result.frac_slots_on_pico,
    )


def write_histogram_csv(result: RunResult, path: str | Path) -> None:
    if result.hist_counts is None:
        raise EngineError("run was executed without the per_user output")
    edges = HIST_BIN_WIDTH * np.arange(HIST_BINS + 1)
    _write_columns(
        Path(path), ["bin_left_bps", "bin_right_bps", "count"], "%r,%r,%d\n",
        edges[:-1], edges[1:], result.hist_counts,
    )


def write_sweep_csv(points: Iterable[tuple[float, RunResult]],
                    path: str | Path) -> None:
    """One line per (threshold, result) pair; %s of the threshold writes an
    int or a float as str does."""
    _write_lines(
        Path(path),
        ["threshold", "topology", "ee_mean", "ee_std", "capacity_mean", "power_mean"],
        (
            "%s,%s,%r,%r,%r,%r\n" % (t, r.scenario.topology, r.ee_mean, r.ee_std,
                                      r.capacity_mean, r.power_mean)
            for t, r in points
        ),
    )


def _write_slot_lines(path: Path, header: list[str], slots: int, ids: int,
                      fields) -> None:
    """One chunk of lines per slot, joined from parallel string streams:
    the slot number, formatted once, then ",{i}," for id i, then the
    streams fields(slot) returns, one string per line from each."""
    id_text = [f",{i}," for i in range(ids)]
    _write_lines(path, header, (
        "".join(chain.from_iterable(zip(repeat(str(slot)), id_text, *fields(slot))))
        for slot in range(slots)
    ))


def write_user_trace_csv(result: RunResult, path: str | Path) -> None:
    """Only x and y are formatted per line (repr of the .tolist() floats);
    the active flag and serving label come from a table of line tails."""
    trace = result.user_trace
    if trace is None:
        raise EngineError("run was executed without the user_trace output")
    # serving code c of a user with flag a ends in tails[c + 2 + width * a]
    labels = ["none", "macro", *(f"pico:{j}" for j in range(result.topology.cx.size))]
    width = len(labels)
    tails = [f",{a},{label}\n" for a in (0, 1) for label in labels]

    def fields(slot):
        codes = trace.serving[slot] + 2 + width * trace.active[slot]
        return (map(repr, trace.x[slot].tolist()), repeat(","),
                map(repr, trace.y[slot].tolist()),
                map(tails.__getitem__, codes.tolist()))

    slots, n = trace.x.shape
    _write_slot_lines(Path(path), ["slot", "user_id", "x", "y", "active", "serving_cell"],
                      slots, n, fields)


def write_pico_trace_csv(result: RunResult, path: str | Path) -> None:
    """One chunk of lines per slot, as write_user_trace_csv writes; the
    mode label comes from a table of line tails."""
    modes = result.pico_trace
    if modes is None:
        raise EngineError("run was executed without the pico_trace output")
    tails = [f"{mode}\n" for mode in MODES]
    slots, m = modes.shape
    _write_slot_lines(Path(path), ["slot", "pico_id", "mode"], slots, m,
                      lambda slot: (map(tails.__getitem__, modes[slot].tolist()),))
