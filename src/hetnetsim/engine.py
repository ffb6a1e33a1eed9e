"""Slotted simulation engine.

Each slot runs, in order: mobility step, activity draws, per-pico active
counts, pico state-machine transitions, association, link evaluation, power
accounting, metric aggregation.  An active user is served by the pico
whose disc contains it when that pico is Active, otherwise by the macro;
Boot and Sleep picos serve nobody, idle users are served by nobody.

Every scenario is R realizations x S slots, and one loop runs them all:
it drops a chunk of B realizations (a batch of B user populations, every
pico asleep), steps the chunk through its S slots in blocks of L
consecutive slots, then drops the next.  Drop b of the chunk at r0 is
realization r0 + b, and its slot t is entry (r0 + b) * S + t of every
slot column.  In a block only the sequential parts go slot by slot: each
drop's mobility and draws, and the control step on that slot's counts;
containment, activity, links and power run once over the block's
L * B * n users.  A snapshot (slots = 1) differs
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
presets write besides the slot CSV: per-user totals (added slot by slot,
whatever L), the rate histogram and the pico-layer capacity of the pico
view.  Traces are not kept: a group with a traced row steps one drop at
a time, and its block buffers hold a trace block of consecutive entries,
up to TRACE_BLOCK_ROW_USERS user lines: each block of slots writes its
user positions and pico states there, the serving codes (-2 exactly for
an idle user) go beside them, and a block of slots ends where a trace
block does.  The trace block goes to the scenario's TraceSinks when it
is full and at the run's last entry, so a traced run holds one block of
trace, bounded by that constant, whatever its length, and its trace
does not depend on the chunk or block bounds or on the group's other
rows.
write_user_trace_csv and write_pico_trace_csv, with their path bound, are
such sinks; they and the other writers put every result file through
write_file, each command's as the side files of one staged block.  The
two trace writers and write_users_csv build their lines as bytes in
numpy: each field an array of ASCII rows from a table or from
kernels.int_text and kernels.float_text, joined by _join, with no Python
string made per value.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
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
    World.run_block fills them a block of entries at a time, or the
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
        """(L, K, B) summed draw of each row's picos in each of B drops in
        each of L slots, from their (L, K, B, m) control states and counts
        that broadcast against them: load-dependent when Active, the sleep
        floor in Sleep and Boot; 0 W in a row whose layout does not
        serve."""
        draw = np.where(state == ACTIVE, active_draw(self.pico, counts),
                        self.pico.sectors * self.pico.p_sleep_w)
        # added in pico order after a 0.0 column, which is the sum without
        # picos: np.sum's pairwise order would change the bytes, and the
        # draws are >= 0, so starting from 0.0 is exact
        draw = np.concatenate((np.zeros(state.shape[:-1] + (1,)), draw), axis=-1)
        return np.where(self.serving[:, None], np.add.accumulate(draw, axis=-1)[..., -1], 0.0)

    def macro_power(self, n_served: np.ndarray) -> np.ndarray:
        """(L, K, B) draw of each row's macro, which never sleeps, serving
        n_served[l, k, b] users in drop b at slot l."""
        return active_draw(self.macro, n_served)


# the most (row, user) pairs a chunk of drops holds: a chunk of B drops
# of n users steps them in (K, B * n) served masks and capacities, so B
# is the most drops with K * B * n within this bound, and 1 past it
CHUNK_ROW_USERS = 49_152
# the most (row, user) pairs a block of slots holds: a chunk steps L
# slots at a time in (K, L * B * n) arrays, L the most slots with K * L *
# B * n within this bound, and 1 past it (so a snapshot, or a chunk of
# many drops, steps one slot a block)
BLOCK_ROW_USERS = 8_192
# the most user lines a traced group holds before it hands them to its
# sinks: a block of L consecutive entries of n users, L the most entries
# with L * n within this bound, and 1 past it
TRACE_BLOCK_ROW_USERS = 16_384


class World:
    """A group's user process, drawn once per slot for all its rows, and
    the pico control of every scenario (row) of the group.

    The constructor builds what the group shares: layout ``topo``, its
    kernels.disc_index ``discs``, the Response, the link constants and the
    block buffers.  ``drop(r0)`` then starts a chunk of B drops,
    realizations r0 .. r0 + B - 1 (B is ``batch``, or what is left of the
    run; 1 in a traced group, so that its entries come in order), each
    with its own generator and users and every pico asleep; ``pop`` is
    their users as one mobility.UserPopulation of (B * n) users, stacked
    drop by drop, and run_block steps them a block of up to ``block``
    slots at a time.  ``snapshot`` selects what differs in a one-slot
    scenario: static hotspot placement, no movement and no boot.
    ``state[k, b]`` holds row k's (m,) pico control states in drop b
    (control.SLEEP, ACTIVE, or the boot slots left).

    The block buffers hold ``lines`` slots: ``x``, ``y`` the (lines, B *
    n) user positions and ``states`` the (lines, K, B, m) pico states.
    A block writes its slots to consecutive lines; in a traced group a
    line is an entry's place in its trace block, whose lines the buffers
    keep across blocks and drops.
    """

    def __init__(self, scenarios: Sequence[Scenario], traced: bool = False):
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
        K, n, m = len(scenarios), s.users.total, self.topo.cx.size
        self.batch = 1 if traced else min(s.realizations, max(1, CHUNK_ROW_USERS // (K * n)))
        self.block = min(s.slots, max(1, BLOCK_ROW_USERS // (K * self.batch * n)))
        self.lines = (min(s.realizations * s.slots, max(1, TRACE_BLOCK_ROW_USERS // n))
                      if traced else self.block)
        # flat, so that a smaller last chunk views a prefix of them
        self._x, self._y = np.empty((2, self.lines * self.batch * n))
        self._states = np.empty(self.lines * K * self.batch * m, dtype=np.int64)

    def drop(self, r0: int) -> None:
        """Start realizations r0 .. r0 + B - 1, B = batch or what is left:
        per drop its generator and users, then every pico asleep."""
        s, n, m = self.s, self.s.users.total, self.topo.cx.size
        K, B = self.response.serving.size, min(self.batch, s.realizations - r0)
        self.r0 = r0
        self.rngs = [np.random.default_rng(np.random.SeedSequence([s.seed, TAG_WORLD, r]))
                     for r in range(r0, r0 + B)]
        self.pop = init_population(self.topo, s.work, s.users, self.rngs,
                                   static_hotspot_in_cell=self.snapshot)
        self.x, self.y = (a[:self.lines * B * n].reshape(self.lines, B * n)
                          for a in (self._x, self._y))
        self.states = self._states[:self.lines * K * B * m].reshape(self.lines, K, B, m)
        self.state = np.full((K, B, m), SLEEP, dtype=np.int64)

    def _tier_capacities(self, on: np.ndarray, near: np.ndarray, j: np.ndarray,
                         x: np.ndarray, y: np.ndarray, z: np.ndarray):
        """Both tiers' link capacities of users at x, y with fading
        normals z: cap_macro for the users on and cap_pico for the users
        near, each to its pico j, the macro value standing in elsewhere.
        Where neither is evaluated, as for an idle user, though it still
        draws its fading normal, the capacity is 0 in both."""
        C = self.s.channel
        discs, R = self.discs, self.topo.macro_radius

        def link(users, cx, cy, sigma_db, pico_link):
            # in place, as users may be a block of many slots
            dist, dy = x.take(users), y.take(users)
            dist -= cx
            dy -= cy
            np.hypot(dist, dy, out=dist)
            del dy
            shadow = z.take(users)
            shadow *= sigma_db
            return kernels.link_capacity(dist, shadow, pico_link, self.w_user, self.eirp_macro,
                                         self.eirp_pico, self.noise_dbm, C.min_distance_m)

        cap_macro = np.zeros(x.size)
        cap_macro[on] = link(on, R, R, C.macro_shadow_sigma_db, False)
        cap_pico = cap_macro.copy()
        cap_pico[near] = link(near, discs.cx.take(j), discs.cy.take(j),
                              C.pico_shadow_sigma_db, True)
        return cap_macro, cap_pico

    def run_block(self, slots: range, out: SlotColumns, at: int = 0):
        """Advance the chunk through the consecutive slots (L of them),
        writing slot slots[l]'s positions and pico states to line at + l
        of the block buffers and its metrics into out's (K, R * S)
        columns, drop b's into entry (r0 + b) * S + slots[l];
        ee_bits_per_joule and pico_capacity_bps are left to the caller.
        A time series moves its users (the slot drives the work
        schedule).

        Only what is sequential goes slot by slot: each drop's mobility
        and draws from its own generator, in the draw schedule's order,
        and the control step on that slot's counts.  Containment,
        activity, links and power are evaluated once over the block's (L
        * B * n) users.  Returns them, slot by slot and drop by drop: (L *
        B * n,) ``active`` flags and ``containing`` pico ids (-1 outside
        every disc), and the (K, L * B * n) ``served`` mask of the
        pico-served users and ``cap`` capacities of each row.
        """
        s, response = self.s, self.response
        K, B, m = self.state.shape
        L, n = len(slots), s.users.total
        x, y, states = self.x[at:at + L], self.y[at:at + L], self.states[at:at + L]
        # each slot's activity uniforms and shadowing normals, a row per drop,
        # in two arrays, so that the uniforms are freed once they are used
        uniforms, normals = np.empty((L, B, n)), np.empty((L, B, n))
        for l, slot in enumerate(slots):
            if not self.snapshot:
                step_population(self.pop, slot, self.topo, s.work, s.users, self.rngs)
            for rng, u, z in zip(self.rngs, uniforms[l], normals[l]):
                rng.random(out=u)
                rng.standard_normal(out=z)
            x[l], y[l] = self.pop.px, self.pop.py
        x, y = x.reshape(-1), y.reshape(-1)
        containing = kernels.containing_disc(x, y, self.discs)
        active = draw_activity_flags(
            uniforms.reshape(L, -1), containing.reshape(L, -1), self.pop.my_pico,
            s.users.activity_uniform, s.users.activity_hotspot,
        ).reshape(-1)
        del uniforms
        # only an active user inside a disc counts, and can be pico-served;
        # slot l's drop b's pico j is column (l * B + b) * m + j
        near = np.flatnonzero(active & (containing >= 0))
        j = containing.take(near)
        column = near // n * m + j
        counts = np.bincount(column, minlength=L * B * m).reshape(L, B, m)
        state, boot = self.state, 0 if self.snapshot else response.boot_slots
        for l in range(L):
            state = states[l] = step_modes(state, counts[l], response.t_activate,
                                           response.t_sleep, boot)
        self.state = state
        awake = states == ACTIVE
        # the (K, L * B * n) arrays are C-ordered, as a row sum over another
        # layout adds in another order
        near_served = awake.transpose(1, 0, 2, 3).reshape(K, -1).take(column, axis=1)
        del column
        served = np.zeros((K, L * B * n), dtype=bool)
        served[:, near] = near_served
        # links only where cap reads them: the macro link of an active user
        # that some row does not pico-serve, the pico link of one that some
        # row does; by index, as a boolean mask gathers several times slower
        macro = active.copy()
        macro[near[near_served.all(axis=0)]] = False
        pico = near_served.any(axis=0)
        cap_macro, cap_pico = self._tier_capacities(np.flatnonzero(macro), near[pico], j[pico],
                                                    x, y, normals.reshape(-1))
        del normals
        cap = np.where(served, cap_pico, cap_macro)
        n_pico = (awake * counts[:, None]).sum(axis=3)
        n_macro = active.reshape(L, 1, B, n).sum(axis=3) - n_pico
        pico_power = response.pico_power(states, counts[:, None])
        self.put(out.n_active_picos, slots, awake.sum(axis=3))
        self.put(out.macro_active_users, slots, n_macro)
        self.put(out.pico_active_users, slots, n_pico)
        # each (row, slot, drop) sums its own contiguous n users, as numpy
        # sums a row alone
        self.put(out.capacity_bps, slots, cap.reshape(K, L, B, n).sum(axis=3).swapaxes(0, 1))
        self.put(out.power_w, slots, response.macro_power(n_macro) + pico_power)
        self.put(out.pico_power_w, slots, pico_power)
        return active, containing, served, cap

    def put(self, column: np.ndarray, slots: range, values: np.ndarray) -> None:
        """Write (L, K, B) values, row k's in drop b at slots[l], into the
        chunk's entries of a C-ordered (K, R * S) column."""
        K, B, S = column.shape[0], self.state.shape[1], self.s.slots
        # a view, as the column is C-ordered
        entries = column.reshape(K, -1, S)[:, self.r0:self.r0 + B, slots.start:slots.stop]
        entries[...] = values.transpose(1, 2, 0)


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
    states.  The arrays are views of the engine's block buffers and
    change as it steps: a sink that keeps them copies them.
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
    # the rows whose user or pico trace goes to a sink
    traced_users = [k for k, t in enumerate(traces) if t and t.users]
    traced_picos = [k for k, t in enumerate(traces) if t and t.picos]
    traced = bool(traced_users or traced_picos)
    world = World(scenarios, traced)
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
    # a traced group's block buffers hold its trace block, world.lines
    # consecutive entries, entry e on line e % world.lines; serving holds
    # the user-traced rows' serving codes on the same lines
    serving = np.empty((len(traced_users), world.lines, n), dtype=np.int64)

    for r0 in range(0, R, world.batch):
        world.drop(r0)
        B = world.state.shape[1]
        # this chunk's per-user sums, each drop's users apart: 0 plus the
        # first slot's arrays makes (K, B * n) float and int64 arrays
        chunk_cap = chunk_active = chunk_pico = 0
        t0 = 0
        while t0 < S:
            # a block fills the buffers from line at, up to a trace block's
            # end; entry is its first slot's entry in the chunk's first drop
            entry = r0 * S + t0
            at = entry % world.lines if traced else 0
            slots = range(t0, min(S, t0 + world.block, t0 + world.lines - at))
            L = len(slots)
            active, containing, served, cap = world.run_block(slots, columns, at)
            if per_user:
                # slot by slot, so the float sums add in one order at any L
                for slot_cap in cap.reshape(K, L, -1).swapaxes(0, 1):
                    chunk_cap += slot_cap
                chunk_active += active.reshape(L, -1).sum(axis=0)
                chunk_pico += served.reshape(K, L, -1).sum(axis=1)
                # a compacted sum per row and entry: zeros in place of the
                # macro-served users would change numpy's pairwise order
                world.put(columns.pico_capacity_bps, slots, np.reshape(
                    [c[sv].sum() for c, sv in zip(cap.reshape(-1, n), served.reshape(-1, n))],
                    (K, L, B)).swapaxes(0, 1))
            if traced_users:
                serving[:, at:at + L] = np.where(
                    served[traced_users], containing,
                    np.where(active, -1, -2)).reshape(-1, L, n)
            # free this block's arrays before the sinks format theirs and the
            # next block builds its own
            del active, containing, served, cap
            end, last = at + L, entry + L - 1
            if traced and (end == world.lines or last == R * S - 1):
                block = range(last + 1 - end, last + 1)
                for k, codes in zip(traced_users, serving):
                    traces[k].users(world.topo, block, world.x[:end], world.y[:end],
                                    codes[:end])
                for k in traced_picos:
                    traces[k].picos(block, world.states[:end, k, 0])
            t0 += L
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
    """One line per user, joined by _join from its fields, FORMAT_LINES
    users a call: the id's digits and ",", its kind from a table, repr of
    its mean rate (kernels.float_text) and ",{frac}\\n", from a table of
    each distinct frac_slots_on_pico (told apart by their bits, so -0.0
    is not 0.0)."""
    if result.mean_rate_bps is None:
        raise ValueError("run was executed without per_user")
    rates, frac = result.mean_rate_bps, result.frac_slots_on_pico
    # each user's index among the distinct bit patterns, by a stable
    # argsort, not np.unique: its first call maps about 0.6 MiB more of
    # numpy into memory
    bits = frac.view(np.int64)
    order = np.argsort(bits, kind="stable")
    first = np.ones(bits.shape, bool)
    np.not_equal(bits[order[1:]], bits[order[:-1]], out=first[1:])
    distinct = np.empty(bits.shape, np.intp)
    distinct[order] = np.cumsum(first) - 1
    fracs = kernels.float_text(frac[order[first]])
    ids = np.arange(rates.shape[0])
    write_file(path, chain(["user_id,kind,mean_rate_bps,frac_slots_on_pico\n"], (
        _join(kernels.int_text(ids[i:i + FORMAT_LINES]), _COMMA,
              _KINDS[result.is_hotspot[i:i + FORMAT_LINES].astype(np.intp)],
              kernels.float_text(rates[i:i + FORMAT_LINES]), _COMMA,
              fracs[distinct[i:i + FORMAT_LINES]], _NEWLINE)
        for i in range(0, rates.shape[0], FORMAT_LINES)
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


def _ascii(texts: Sequence[str]) -> np.ndarray:
    """A table of ASCII texts: row i is texts[i]'s bytes, NUL-padded."""
    table = np.array(texts, dtype="S")
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


_COMMA, _NEWLINE = _ascii([","]), _ascii(["\n"])
# the users.csv kind field of a user whose is_hotspot is False, True
_KINDS = _ascii(["uniform,", "hotspot,"])
# the pico-trace line tail of each control.MODES index
_MODE_TAILS = _ascii([f"{mode}\n" for mode in MODES])

# the most lines one _join call assembles, bar a single trace row's.  A
# call costs some 60 numpy operations fixed, and its peak memory grows with
# its lines: the ts_traced user trace (n = 1000) took 22.8, 21.5 and 20.3
# ms to write on a 2-vCPU host at 2,048, 3,072 and 4,096 lines a call,
# while writing a 200-row block of it peaked at 0.53, 0.78 and 1.02 MiB of
# allocations
FORMAT_LINES = 3072


def _join(*fields) -> str:
    """The text of lines given as fields, left to right: each an array
    (..., w) of ASCII bytes, NUL where its text is shorter than w, the
    fields' leading axes broadcast to the lines'.  They are copied side by
    side into one buffer, which they fill, then its bytes are read with
    the NULs dropped; as no text holds a NUL character, that joins the
    fields and the lines exactly."""
    widths = [f.shape[-1] for f in fields]
    buf = np.empty((*np.broadcast_shapes(*(f.shape[:-1] for f in fields)), sum(widths)),
                   np.uint8)
    at = 0
    for f, w in zip(fields, widths):
        buf[..., at:at + w] = f
        at += w
    buf = buf[buf != 0]
    return str(buf, "ascii")


def _write_trace(path: str | Path, header: str, rows: Sequence[int], ids: int,
                 fields: Callable[[int, int], tuple]) -> None:
    """Write the trace rows numbered rows to path: the block whose first
    row is 0 creates the file with its header, and later blocks append.
    Each line of rows a .. b - 1 is the row number, ",{i}," for each of
    ids ids, then the fields that fields(a, b) gives as (b - a, ids, w)
    arrays; a _join call takes the rows of FORMAT_LINES lines, or one."""
    per_call = max(1, FORMAT_LINES // max(1, ids))
    id_text = kernels.int_text(np.arange(ids))
    write_file(path, chain([header] if rows[0] == 0 else [], (
        _join(kernels.int_text(np.asarray(rows[a:a + per_call]))[:, None], _COMMA, id_text,
              _COMMA, *fields(a, a + per_call))
        for a in range(0, len(rows), per_call)
    )), append=rows[0] > 0)


def write_user_trace_csv(path: str | Path, topology: Topology, rows: Sequence[int], x, y,
                         serving) -> None:
    """A block of user_trace.csv, as a TraceSinks.users sink with path
    bound, written by _write_trace: x and y by kernels.float_text, both in
    one call; the active flag and serving label both follow from the
    serving code, by a table of line tails ",0,none\\n", ",1,macro\\n"
    and ",1,pico:{j}\\n", serving code c's at c + 2."""
    tails = _ascii([",0,none\n", ",1,macro\n",
                    *(f",1,pico:{j}\n" for j in range(topology.cx.size))])

    def fields(a, b):
        texts = kernels.float_text(np.concatenate((x[a:b], y[a:b]), axis=None))
        xy = texts.reshape(2, *x[a:b].shape, texts.shape[1])
        return xy[0], _COMMA, xy[1], tails[serving[a:b] + 2]

    _write_trace(path, "slot,user_id,x,y,active,serving_cell\n", rows, x.shape[1], fields)


def write_pico_trace_csv(path: str | Path, rows: Sequence[int], states) -> None:
    """A block of pico_trace.csv, as a TraceSinks.picos sink with path
    bound, written by _write_trace; each state's mode label comes from a
    table of line tails."""
    _write_trace(path, "slot,pico_id,mode\n", rows, states.shape[1],
                 lambda a, b: (_MODE_TAILS[mode_index(states[a:b])],))
