"""Slotted simulation engine.

Each slot runs, in order: mobility step, activity draws, per-pico active
counts, pico state-machine transitions, association, link evaluation, power
accounting, metric aggregation.  An active user is served by the pico
whose disc contains it when that pico is Active, otherwise by the macro;
Boot and Sleep picos serve nobody, idle users are served by nobody.

Every scenario is R realizations x S slots, and one loop runs them all:
it drops a chunk of B realizations (a batch of B user populations, every
pico asleep), steps the chunk through its S slots, then drops the next.
Drop b of the chunk at r0 is realization r0 + b, and its slot t is entry
(r0 + b) * S + t of every slot column.  A snapshot (slots = 1) differs
from a time series in its model alone: each drop places its hotspot
users statically inside their assigned pico, never moves them, and takes
its one control step from all-Sleep with no boot, so picos are Active
wherever the activation threshold is met — the stationary view of the
control loop, with no boot transient.  A time series moves its users
through the work schedule with the full Sleep / Boot / Active machinery.

Randomness: a scenario owns one seed.  Layout generation uses the stream
(seed, 0); realization r uses (seed, 1, r), for its drop and then, every
slot and in a fixed order, its mobility draws (none in a snapshot), one
activity uniform per user and one shadowing normal per user — so runs
that share a seed share users, trajectories, and fading regardless of
topology kind, policy, sleep parameters or how drops are chunked.  That
makes paired comparisons (e.g. pico-serving topology vs. its macro-only
twin) common-random-number experiments.

run_scenarios makes that the code path: scenarios with the same
process_key form a group whose user process (positions, containment,
activity, fading and both tiers' link capacities) is simulated once, and
each scenario is one row of the group's (K, B, m) pico control and power.

With per_user, run_scenarios also builds what run and the time-series
presets write besides the slot CSV: per-user totals, the rate histogram
and the pico-layer capacity of the pico view.  Traces are not kept: a
group with a traced row steps one drop at a time, copies each entry's
user positions and serving codes (-2 exactly for an idle user) and pico
states into a block of consecutive entries, up to TRACE_BLOCK_ROW_USERS
user lines, and hands the block to the scenario's TraceSinks when it is
full and at the run's last entry, so a traced run holds one block of
trace, bounded by that constant, whatever its length, and its trace
does not depend on the chunk bound or on the group's other rows.
write_user_trace_csv and write_pico_trace_csv, with their path bound, are
such sinks; they and the other writers put every result file through
write_file, each command's as the side files of one staged block.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .config import PowerParams, Scenario
from .control import ACTIVE, MODES, SLEEP, mode_index, step_modes
from .mobility import draw_activity_flags, init_population, step_population
from .topology import Topology, build_coe, build_monet, build_udc

TAG_TOPOLOGY = 0
TAG_WORLD = 1

BOLTZMANN = 1.380649e-23  # J/K

HIST_BIN_WIDTH = 1e4
HIST_MAX = 1e6
HIST_BINS = int(HIST_MAX / HIST_BIN_WIDTH)

def noise_power_dbm(bandwidth_hz: float, temperature_k: float) -> float:
    """Thermal noise kTW expressed in dBm."""
    return 10.0 * math.log10(BOLTZMANN * temperature_k * bandwidth_hz * 1000.0)


def active_draw(P: PowerParams, n_served):
    """Draw of a station serving n_served users, elementwise when P's
    fields are (K, 1) columns of K rows (Response):
    sectors * (p0 + delta_p * p_max * load)."""
    load = np.minimum(n_served, P.user_capacity) / P.user_capacity
    return P.sectors * (P.p0_w + P.delta_p * P.p_max_w * load)


def compute_ee(capacity_bps: np.ndarray, power_w: np.ndarray) -> np.ndarray:
    """Delivered bits per joule of equal-shaped arrays, elementwise (slot
    duration cancels out); 0 where the power is not positive."""
    return np.divide(capacity_bps, power_w, out=np.zeros(power_w.shape),
                     where=power_w > 0)


@dataclass
class SlotColumns:
    """Per-slot metrics as columns: (K, R * S) over a group's rows, as
    World.run_slot fills them a batch of entries at a time, or the
    (R * S,) view of one row, as RunResult.slot_metrics holds them; entry
    r * S + t is realization r's slot t."""

    n_active_picos: np.ndarray
    macro_active_users: np.ndarray
    pico_active_users: np.ndarray
    capacity_bps: np.ndarray
    power_w: np.ndarray
    ee_bits_per_joule: np.ndarray
    # pico-only slice of the same slots, for the small-cell-view outputs;
    # the capacity only with per_user, which _run_group fills
    pico_power_w: np.ndarray
    pico_capacity_bps: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, K: int, slots: int) -> "SlotColumns":
        """Unfilled (K, slots) columns but pico_capacity_bps: int64 counts,
        float64 the rest."""
        counts = (np.empty((K, slots), dtype=np.int64) for _ in range(3))
        floats = (np.empty((K, slots)) for _ in range(4))
        return cls(*counts, *floats)

    def row(self, k: int) -> "SlotColumns":
        """Row k's (slots,) columns, as views."""
        return SlotColumns(**{name: None if col is None else col[k]
                              for name, col in vars(self).items()})


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
    """The per-scenario half of a group, and the one place where its
    scenarios become row columns: each row's wake and sleep thresholds,
    boot length and pico power parameters as (K, 1, 1) columns, which
    broadcast over a batch's (K, B, m) picos, and its macro power
    parameters as (K, 1) columns, over the batch's (K, B) macros.

    The layout kind is folded into the thresholds: a row whose layout does
    not serve (a monet_*_users twin) never wakes its picos.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        self.serving = np.array([s.serves_from_picos() for s in scenarios])
        self.t_activate = np.where(self.serving[:, None, None],
                                   [[[s.policy.t_activate]] for s in scenarios], np.inf)
        self.t_sleep = np.array([[[s.policy.t_sleep]] for s in scenarios], dtype=float)
        self.boot_slots = np.array([[[s.boot_slots]] for s in scenarios])
        self.pico = self._power_columns([s.power.pico for s in scenarios], (-1, 1, 1))
        self.macro = self._power_columns([s.power.macro for s in scenarios], (-1, 1))

    @staticmethod
    def _power_columns(params: Sequence[PowerParams], shape: tuple) -> PowerParams:
        """K rows' PowerParams (or PicoPowerParams) as one of their class
        whose fields are columns of the given shape, so one active_draw
        draws every row."""
        return type(params[0])(*(np.reshape([getattr(p, f.name) for p in params], shape)
                                 for f in fields(params[0])))

    def pico_power(self, state: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(K, B) summed draw of each row's picos in each of B drops, from
        their (K, B, m) control states and (B, m) counts: load-dependent
        when Active, the sleep floor in Sleep and Boot; 0 W in a row whose
        layout does not serve."""
        draw = np.where(state == ACTIVE, active_draw(self.pico, counts),
                        self.pico.sectors * self.pico.p_sleep_w)
        # added in pico order after a 0.0 column, which is the sum without
        # picos: np.sum's pairwise order would change the bytes, and the
        # draws are >= 0, so starting from 0.0 is exact
        draw = np.concatenate((np.zeros(state.shape[:2] + (1,)), draw), axis=2)
        return np.where(self.serving[:, None], np.add.accumulate(draw, axis=2)[..., -1], 0.0)

    def macro_power(self, n_served: np.ndarray) -> np.ndarray:
        """(K, B) draw of each row's macro, which never sleeps, serving
        n_served[k, b] users in drop b."""
        return active_draw(self.macro, n_served)


# the most (row, user) pairs a chunk steps at once: a chunk of B
# drops of n users holds (K, B * n) served masks and capacities, so B is
# the most drops with K * B * n within this bound, and 1 past it
CHUNK_ROW_USERS = 49_152
# the most user lines a traced group holds before it hands them to its
# sinks: a block of L consecutive entries of n users, L the most entries
# with L * n within this bound, and 1 past it
TRACE_BLOCK_ROW_USERS = 16_384


class World:
    """A group's user process, drawn once per slot for all its rows, and
    the pico control of every scenario (row) of the group.

    The constructor builds what the group shares: layout ``topo``, its
    kernels.disc_index ``discs``, the Response and the link constants.
    ``drop(r0)`` then starts a chunk of B drops, realizations r0 .. r0 +
    B - 1 (B is ``batch``, or what is left of the run), each with its own
    generator and users and every pico asleep; ``pop`` is their users as
    one mobility.UserPopulation of (B * n) users, stacked drop by drop,
    and run_slot steps them all one slot.  ``snapshot`` selects what
    differs in a one-slot scenario: static hotspot placement, no
    movement and no boot.  ``state[k, b]`` holds row k's (m,) pico
    control states in drop b (control.SLEEP, ACTIVE, or the boot slots
    left).
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        s = scenarios[0]  # the user process is the group's
        self.s = s
        self.topo = build_geometry(s)  # first: set-up is timed up to here
        self.response = Response(scenarios)
        self.discs = kernels.disc_index(self.topo.cx, self.topo.cy, self.topo.pico_radius)
        C = s.channel
        # every configured user gets an equal share, active or not
        self.w_user = C.bandwidth_hz / s.users.total
        self.noise_dbm = noise_power_dbm(self.w_user, C.temperature_k)
        self.eirp_macro = C.macro_tx_dbm + C.macro_antenna_gain_dbi + C.ue_antenna_gain_dbi
        self.eirp_pico = C.pico_tx_dbm + C.pico_antenna_gain_dbi + C.ue_antenna_gain_dbi
        # a snapshot drops hotspot users in their picos, never moves or boots
        self.snapshot = s.slots == 1
        self.batch = min(s.realizations,
                         max(1, CHUNK_ROW_USERS // (len(scenarios) * s.users.total)))

    def drop(self, r0: int) -> None:
        """Start realizations r0 .. r0 + B - 1, B = batch or what is left:
        per drop its generator and users, then every pico asleep."""
        s, n, m = self.s, self.s.users.total, self.topo.cx.size
        B = min(self.batch, s.realizations - r0)
        self.rngs = [np.random.default_rng(np.random.SeedSequence([s.seed, TAG_WORLD, r]))
                     for r in range(r0, r0 + B)]
        self.pop = init_population(self.topo, s.work, s.users, self.rngs,
                                   static_hotspot_in_cell=self.snapshot)
        # each slot's activity uniforms and shadowing normals, a row per drop
        self.uniforms, self.normals = np.empty((2, B, n))
        # drop b's pico j is column 1 + j of its block of m + 1 columns, whose
        # column 0 takes every user that is not active in a disc
        self.offset = np.repeat(1 + (m + 1) * np.arange(B), n)
        self.state = np.full((self.response.serving.size, B, m), SLEEP, dtype=np.int64)

    def _tier_capacities(self, active: np.ndarray, in_disc: np.ndarray,
                         containing: np.ndarray):
        """Both tiers' link capacities for this slot's fading draw: cap_macro
        for the active users and cap_pico for the users in_disc marks, the
        macro value standing in elsewhere.  An idle user's capacity is 0 in
        both: no link is evaluated for it, though it still draws its fading
        normal."""
        C = self.s.channel
        discs, R, pop = self.discs, self.topo.macro_radius, self.pop
        z = self.normals.reshape(-1)

        def link(users, dx, dy, sigma_db, pico_link):
            return kernels.link_capacity(
                np.hypot(dx, dy), z.take(users) * sigma_db, pico_link, self.w_user,
                self.eirp_macro, self.eirp_pico, self.noise_dbm, C.min_distance_m,
            )

        # index gathers: a boolean mask gathers several times slower
        on = np.flatnonzero(active)
        cap_macro = np.zeros(active.size)
        cap_macro[on] = link(on, pop.px.take(on) - R, pop.py.take(on) - R,
                             C.macro_shadow_sigma_db, False)
        near = np.flatnonzero(in_disc)
        j = containing.take(near)
        cap_pico = cap_macro.copy()
        cap_pico[near] = link(near, pop.px.take(near) - discs.cx.take(j),
                              pop.py.take(near) - discs.cy.take(j),
                              C.pico_shadow_sigma_db, True)
        return cap_macro, cap_pico

    def run_slot(self, slot: int, rows: range, out: SlotColumns):
        """Advance the chunk by one slot and write its metrics into entries
        rows of out's (K, R * S) columns, drop b into entry rows[b];
        ee_bits_per_joule and pico_capacity_bps are left to the caller.  A
        time series moves its users (``slot`` drives the work schedule).

        Each drop draws from its own generator, in the draw schedule's
        order; then containment, activity, control, links and power are
        evaluated once over the stacked (B * n) users.  Returns them, drop
        by drop: (B * n,) ``active`` flags and ``containing`` pico ids (-1
        outside every disc), and the (K, B * n) ``served`` mask of the
        pico-served users and ``cap`` capacities of each row.
        """
        s, response = self.s, self.response
        if not self.snapshot:
            step_population(self.pop, slot, self.topo, s.work, s.users, self.rngs)
        for rng, uniforms, normals in zip(self.rngs, self.uniforms, self.normals):
            rng.random(out=uniforms)
            rng.standard_normal(out=normals)
        K, B, m = self.state.shape
        containing = kernels.containing_disc(self.pop.px, self.pop.py, self.discs)
        active = draw_activity_flags(
            self.uniforms.reshape(-1), containing, self.pop.my_pico,
            s.users.activity_uniform, s.users.activity_hotspot,
        )
        # only an active user inside a disc counts, and can be pico-served
        in_disc = active & (containing >= 0)
        column = np.where(in_disc, containing, -1) + self.offset
        counts = np.bincount(column, minlength=B * (m + 1)).reshape(B, m + 1)[:, 1:]
        self.state = step_modes(self.state, counts, response.t_activate, response.t_sleep,
                                0 if self.snapshot else response.boot_slots)
        cap_macro, cap_pico = self._tier_capacities(active, in_disc, containing)
        awake = self.state == ACTIVE
        # column 0 of each drop's block, no user's pico, is asleep; take()
        # keeps the (K, B * n) arrays C-ordered (fancy indexing would not): a
        # row sum over another layout adds in another order
        asleep = np.zeros((K, B, 1), dtype=bool)
        served = np.concatenate((asleep, awake), axis=2).reshape(K, -1).take(column, axis=1)
        cap = np.where(served, cap_pico, cap_macro)
        n_pico = (awake * counts).sum(axis=2)
        n_macro = active.reshape(B, -1).sum(axis=1) - n_pico
        pico_power = response.pico_power(self.state, counts)
        cols = slice(rows.start, rows.stop, rows.step)  # a range would index slower
        out.n_active_picos[:, cols] = awake.sum(axis=2)
        out.macro_active_users[:, cols] = n_macro
        out.pico_active_users[:, cols] = n_pico
        # each (row, drop) sums its own contiguous n users, as numpy sums a
        # row alone
        out.capacity_bps[:, cols] = cap.reshape(K, B, -1).sum(axis=2)
        out.power_w[:, cols] = response.macro_power(n_macro) + pico_power
        out.pico_power_w[:, cols] = pico_power
        return active, containing, served, cap


@dataclass(frozen=True)
class TraceSinks:
    """Where one scenario's traces go, a block at a time, as its group
    steps one drop at a time: L consecutive entries e .. e + L - 1 (entry
    r * S + t of the slot columns, L * n within TRACE_BLOCK_ROW_USERS, or
    one entry past it, and fewer in the last block), which may span
    realizations.  ``rows`` is that range, line i of the block being
    entry rows[i].

    ``users(topology, rows, x, y, serving)`` gets the group's layout and
    the block's (L, n) positions and serving codes (-2 idle, -1 macro, j
    pico); ``picos(rows, states)`` gets the row's (L, m) pico control
    states.  The arrays are the engine's own and change as
    it steps: a sink that keeps them copies them.
    ``partial(write_user_trace_csv, path)`` and its pico twin write the
    two trace CSVs.
    """

    users: Optional[Callable] = None
    picos: Optional[Callable] = None


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
    # with per_user: per-user values, then the rate histogram
    is_hotspot: Optional[np.ndarray] = None
    mean_rate_bps: Optional[np.ndarray] = None       # over its active slots
    frac_slots_on_pico: Optional[np.ndarray] = None
    hist_counts: Optional[np.ndarray] = None


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
    per_user: bool = False,
    traces: Sequence[Optional[TraceSinks]] = (),
) -> list[RunResult]:
    """Run every scenario; results come back in input order.

    Every result holds its slot columns and their means; with per_user
    also its per-user values, rate histogram and pico_capacity_bps.
    ``traces[i]``, if given and not None, receives scenario i's traces as
    the run goes.  Scenarios with the same process_key are one group:
    their user process is simulated once and each scenario is a row of
    the group's response.
    """
    traces = list(traces) or [None] * len(scenarios)
    if len(traces) != len(scenarios):
        raise ValueError(f"{len(traces)} traces for {len(scenarios)} scenarios")
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault(process_key(s), []).append(i)
    results: list[Optional[RunResult]] = [None] * len(scenarios)
    for members in groups.values():
        rows = _run_group([scenarios[i] for i in members], per_user,
                          [traces[i] for i in members])
        for i, result in zip(members, rows):
            results[i] = result
    return results


def run_scenario(scenario: Scenario, per_user: bool = False,
                 trace: Optional[TraceSinks] = None) -> RunResult:
    return run_scenarios([scenario], per_user, [trace])[0]


def _run_group(scenarios: list[Scenario], per_user: bool,
               traces: list[Optional[TraceSinks]]) -> list[RunResult]:
    world = World(scenarios)
    K, n = len(scenarios), world.s.users.total
    R, S = world.s.realizations, world.s.slots
    columns = SlotColumns.empty(K, R * S)
    if per_user:
        # per-user sums over every slot and realization, the rate histogram
        # and the pico view's capacity
        cap_sum = np.zeros((K, n))
        active_slots = np.zeros(n, dtype=np.int64)
        pico_slots = np.zeros((K, n), dtype=np.int64)
        hist = np.zeros((K, HIST_BINS), dtype=np.int64)
        columns.pico_capacity_bps = np.empty((K, R * S))
    # the rows whose user or pico trace goes to a sink
    traced_users = [k for k, t in enumerate(traces) if t and t.users]
    traced_picos = [k for k, t in enumerate(traces) if t and t.picos]
    traced = traced_users or traced_picos
    if traced:
        # a traced group steps one drop at a time, so its entries come in
        # order: a block holds L consecutive entries, line e % L entry e
        world.batch = 1
        L = min(R * S, max(1, TRACE_BLOCK_ROW_USERS // n))
        x, y = np.empty((2, L, n))
        serving = np.empty((len(traced_users), L, n), dtype=np.int64)
        states = np.empty((len(traced_picos), L, world.topo.cx.size), dtype=np.int64)

    for r0 in range(0, R, world.batch):
        world.drop(r0)
        B = world.state.shape[1]
        # this chunk's per-user sums, each drop's users apart: 0 plus the
        # first slot's arrays makes (K, B * n) float and int64 arrays
        chunk_cap = chunk_active = chunk_pico = 0
        for slot in range(S):
            # drop b's slot is entry (r0 + b) * S + slot
            rows = range(r0 * S + slot, (r0 + B) * S, S)
            active, containing, served, cap = world.run_slot(slot, rows, columns)
            if per_user:
                chunk_cap += cap
                chunk_active += active
                chunk_pico += served
                # a compacted sum per row: zeros in place of the macro-served
                # users would change numpy's pairwise order
                for b, row in enumerate(rows):
                    drop = slice(b * n, (b + 1) * n)
                    columns.pico_capacity_bps[:, row] = [
                        c[sv].sum() for c, sv in zip(cap[:, drop], served[:, drop])]
            if traced:
                entry = rows.start
                line = entry % L
                if traced_users:
                    x[line], y[line] = world.pop.px, world.pop.py
                    serving[:, line] = np.where(served[traced_users], containing,
                                                np.where(active, -1, -2))
                states[:, line] = world.state[traced_picos, 0]
                if line == L - 1 or entry == R * S - 1:
                    block, end = range(entry - line, entry + 1), line + 1
                    for k, codes in zip(traced_users, serving):
                        traces[k].users(world.topo, block, x[:end], y[:end], codes[:end])
                    for k, modes in zip(traced_picos, states):
                        traces[k].picos(block, modes[:end])
            # free this batch's (K, B * n) arrays before the next builds its own
            del served, cap
        if per_user:
            # bin each realization's ever-active users at their mean rate
            # over its slots, then add its sums to the run's, realization by
            # realization, so the float sums add in one order at any B
            ever_active = chunk_active > 0
            mean_rate = np.divide(chunk_cap, chunk_active, out=np.zeros_like(chunk_cap),
                                  where=ever_active)
            hist += hist_counts(mean_rate[:, ever_active])
            for b in range(B):
                drop = slice(b * n, (b + 1) * n)
                cap_sum += chunk_cap[:, drop]
                active_slots += chunk_active[drop]
                pico_slots += chunk_pico[:, drop]
    columns.ee_bits_per_joule = ees = compute_ee(columns.capacity_bps, columns.power_w)
    # every row's means in RunResult's field order, each one reduction along
    # the entries: a C-ordered row adds in the pairwise order it adds in
    # alone.  ee_std is the spread (ddof 1) of all R * S entries' EE, not a
    # replicate interval over the realizations' means (ROADMAP item 3)
    means = zip(ees.mean(axis=1).tolist(),
                ees.std(axis=1, ddof=1).tolist() if R * S > 1 else [0.0] * K,
                columns.capacity_bps.mean(axis=1).tolist(),
                columns.power_w.mean(axis=1).tolist(),
                columns.n_active_picos.mean(axis=1).tolist())
    users = repeat(())
    if per_user:
        mean_rate = np.divide(cap_sum, active_slots, out=np.zeros((K, n)),
                              where=active_slots > 0)
        # the same is_hotspot in every drop
        users = zip(repeat(world.pop.my_pico[:n] >= 0), mean_rate, pico_slots / (R * S), hist)
    return [RunResult(s, world.topo, columns.row(k), *row_means, *row_users)
            for k, (s, row_means, row_users) in enumerate(zip(scenarios, means, users))]


# --- CSV emission ----------------------------------------------------------


# lines formatted per chunk of rows by the column writers
CHUNK_ROWS = 4096


def write_file(path: str | Path, chunks: Iterable[str], append: bool = False) -> None:
    """Write the strings of chunks to path, UTF-8 with \\n line ends, after
    making its parent directories; with append, add them to its end.  Every
    result file is written here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


@contextlib.contextmanager
def staged(out: str | Path) -> Iterator[Callable[[str], Path]]:
    """Stage one command's files in the directory out: part(name) records
    name in part.names and gives out/name.part.  When the block ends, each
    side file takes its final name; if it raises anything, an exit too,
    the side files go, then the directories of out that the stage made,
    deepest first, and the exception goes on.  No other file is touched."""
    out = Path(out)
    made = [d for d in (out, *out.parents) if not d.exists()]

    def part(name: str) -> Path:
        part.names.append(name)
        return out / f"{name}.part"

    part.names = []
    try:
        yield part
        for name in part.names:
            (out / f"{name}.part").replace(out / name)
    except BaseException:
        for name in part.names:
            (out / f"{name}.part").unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _write_columns(path: str | Path, header: str, line: str, *columns) -> None:
    """The header line, then one line ``line % row`` per row of
    equal-length 1-D arrays, formatted a chunk of rows at a time from
    .tolist(): %r of a Python float is its repr, and %d or %s of a Python
    int its str."""
    rows = columns[0].shape[0]
    write_file(path, chain([header], (
        "".join(map(line.__mod__, zip(*(c[i:i + CHUNK_ROWS].tolist() for c in columns))))
        for i in range(0, rows, CHUNK_ROWS)
    )))


def _write_slots(path: str | Path, m: SlotColumns, capacity, power) -> None:
    _write_columns(
        path,
        "slot,n_active_picos,macro_active_users,pico_active_users,"
        "capacity_bps,power_w,ee_bits_per_joule\n",
        "%d,%d,%d,%d,%r,%r,%r\n",
        np.arange(power.shape[0]), m.n_active_picos, m.macro_active_users,
        m.pico_active_users, capacity, power, compute_ee(capacity, power),
    )


def write_slot_csv(result: RunResult, path: str | Path) -> None:
    """Per-slot metrics; the slot column carries the entry r * S + t of
    realization r's slot t, so a snapshot's is the realization index."""
    m = result.slot_metrics
    _write_slots(path, m, m.capacity_bps, m.power_w)


def write_pico_view_csv(result: RunResult, path: str | Path) -> None:
    """Same schema as the per-slot CSV but restricted to the pico layer:
    capacity/power/EE of the small cells alone."""
    m = result.slot_metrics
    if m.pico_capacity_bps is None:
        raise ValueError("run was executed without per_user")
    _write_slots(path, m, m.pico_capacity_bps, m.pico_power_w)


def write_users_csv(result: RunResult, path: str | Path) -> None:
    """One line per user, joined from parallel string streams: "{id}," from
    a table, its kind, repr of its mean rate (kernels.float_reprs, one call
    per CHUNK_ROWS users), and ",{frac}\\n", formatted
    once per distinct frac_slots_on_pico (told apart by their bits, so
    -0.0 is not 0.0)."""
    if result.mean_rate_bps is None:
        raise ValueError("run was executed without per_user")
    rates, frac = result.mean_rate_bps, result.frac_slots_on_pico
    bits = frac.view(np.int64)
    # one float per distinct bit pattern, by a dict, not np.unique: its
    # first call maps about 0.6 MiB more of numpy into memory
    fracs = {b: f",{v!r}\n" for b, v in dict(zip(bits.tolist(), frac.tolist())).items()}
    ids = _id_fields(rates.shape[0], "{},")
    write_file(path, chain(["user_id,kind,mean_rate_bps,frac_slots_on_pico\n"], (
        "".join(chain.from_iterable(zip(
            ids[i:i + CHUNK_ROWS],
            map(_KINDS.__getitem__, result.is_hotspot[i:i + CHUNK_ROWS].tolist()),
            kernels.float_reprs(rates[i:i + CHUNK_ROWS]),
            map(fracs.__getitem__, bits[i:i + CHUNK_ROWS].tolist()))))
        for i in range(0, rates.shape[0], CHUNK_ROWS)
    )))


def write_histogram_csv(result: RunResult, path: str | Path) -> None:
    if result.hist_counts is None:
        raise ValueError("run was executed without per_user")
    edges = HIST_BIN_WIDTH * np.arange(HIST_BINS + 1)
    _write_columns(
        path, "bin_left_bps,bin_right_bps,count\n", "%r,%r,%d\n",
        edges[:-1], edges[1:], result.hist_counts,
    )


def write_sweep_csv(points: Iterable[tuple[float, RunResult]], path: str | Path,
                    means: Sequence[str] = ("ee_mean", "ee_std", "capacity_mean",
                                            "power_mean")) -> None:
    """One line per (threshold, result) pair: the threshold, the topology
    and repr of each RunResult field named in means; %s of the threshold
    writes an int or a float as str does."""
    line = "%s,%s" + ",%r" * len(means) + "\n"
    write_file(path, chain(
        [",".join(["threshold", "topology", *means]) + "\n"],
        (line % (t, r.scenario.topology, *(getattr(r, f) for f in means))
         for t, r in points),
    ))


# the users.csv kind field of a user whose is_hotspot is False, True
_KINDS = ("uniform,", "hotspot,")


@lru_cache(maxsize=3)
def _id_fields(ids: int, form: str = ",{},") -> tuple[str, ...]:
    """form.format(i) for ids 0 .. ids - 1, built once for all the blocks
    of a run's two traces (",{i}," for n users and m picos) and for its
    users.csv ("{i},")."""
    return tuple(map(form.format, range(ids)))


def _serving_tails(m: int) -> tuple[str, ...]:
    """The m + 2 user-trace line tails ",{active},{serving_cell}\n" of a
    layout of m picos, serving code c's at c + 2: only an idle user (-2)
    is served by nobody."""
    return (",0,none\n", ",1,macro\n", *(f",1,pico:{j}\n" for j in range(m)))


# the pico-trace line tail of each control.MODES index
_MODE_TAILS = tuple(f"{mode}\n" for mode in MODES)


def _write_trace_rows(path: str | Path, header: str, rows: Sequence[int], ids: int,
                      lines: Iterable) -> None:
    """Write the trace rows numbered rows to path: the block whose first
    row is 0 creates the file with its header, and later blocks append.
    One chunk of lines per row, joined from parallel string streams: the
    row number, formatted once, then ",{i}," for each of ids ids, then the
    streams lines gives for the row, ids strings from each."""
    id_text = _id_fields(ids)

    def text(row: int, streams: tuple) -> str:
        # each line's fields in turn, placed by slice assignment: zipping
        # the streams line by line costs about 0.1 µs more per line
        width = 2 + len(streams)
        fields = [str(row)] * (width * ids)
        fields[1::width] = id_text
        for k, stream in enumerate(streams, 2):
            fields[k::width] = stream
        return "".join(fields)

    write_file(path, chain([header] if rows[0] == 0 else [], map(text, rows, lines)),
               append=rows[0] > 0)


# the most coordinates one kernels.float_reprs call of the user trace
# formats, bar a single row's 2n.  A call costs about 0.07 ms fixed: on a
# 2-vCPU host it took 0.09 ms for 125 values where repr took 0.06, and
# 0.20 ms for 1,000 where repr took 0.49.  Larger calls cost memory: in
# ts_traced (n = 1000) a call per row peaked at 38.8 MiB, one per four
# rows at 41.2 and one per 16,384-line block at 47.6
TRACE_FORMAT_VALUES = 1000


def write_user_trace_csv(path: str | Path, topology: Topology, rows: Sequence[int], x, y,
                         serving) -> None:
    """A block of user_trace.csv, as a TraceSinks.users sink with path
    bound.  Only x and y are formatted per line: kernels.float_reprs, the
    repr of each, takes one call per row, or per group of rows of about
    TRACE_FORMAT_VALUES coordinates where n is small; the active flag and
    serving label both follow from the serving code, by a table of line
    tails."""
    tails = _serving_tails(topology.cx.size)
    n = x.shape[1]
    per_call = max(1, TRACE_FORMAT_VALUES // max(1, 2 * n))

    def lines():
        for i in range(0, x.shape[0], per_call):
            # a call's x texts, then its y texts, n per row
            texts = kernels.float_reprs(
                np.concatenate((x[i:i + per_call], y[i:i + per_call]), axis=None))
            ys = len(texts) // 2
            for j, codes in enumerate(serving[i:i + per_call]):
                yield (texts[j * n:(j + 1) * n], repeat(",", n),
                       texts[ys + j * n:ys + (j + 1) * n],
                       map(tails.__getitem__, (codes + 2).tolist()))

    _write_trace_rows(path, "slot,user_id,x,y,active,serving_cell\n", rows, n, lines())


def write_pico_trace_csv(path: str | Path, rows: Sequence[int], states) -> None:
    """A block of pico_trace.csv, as a TraceSinks.picos sink with path
    bound, written as write_user_trace_csv writes; each state's mode label
    comes from a table of line tails."""
    _write_trace_rows(path, "slot,pico_id,mode\n", rows, states.shape[1], (
        (map(_MODE_TAILS.__getitem__, codes.tolist()),) for codes in mode_index(states)
    ))
