"""Waypoint mobility with hotspot work schedules, plus per-slot activity flags.

Users bounce between uniformly drawn waypoints inside the macro disc at
10–20 m/slot.  Hotspot users additionally carry an assigned pico and a work
start slot: at work start they retarget to a uniform point inside their
pico and, once arrived, keep re-targeting within the pico at a slow 0–2
m/slot until the work interval (375 slots by default) ends, when they head
back to a random point in the macro disc.

The whole population advances through vectorized phases.  Draw schedule
(the determinism contract — identical layouts consume identical draws):

  init:    per drop, from its own generator: hotspot pico ids, hotspot
           work starts, position offsets (one rejection-sampled
           unit-disc batch for all its users), then for moving
           populations destination offsets and speeds.
  step t:  per drop, from its own generator, dest offsets then speeds of
           each retarget group: work starts, work ends, (movement), then
           arrivals in-work and arrivals out-of-work.  Masked groups draw
           in user-index order; an empty one draws nothing.

Rejection sampling happens in *offset* space (unit disc, scaled per user),
so the number of draws consumed never depends on cell positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .config import UsersConfig, WorkSchedule
from .topology import Topology


@dataclass
class UserPopulation:
    """Struct-of-arrays state of the users of one or more drops, end to
    end; within a drop, index = user id.

    my_pico / work_start are -1 for uniform users, so a user is a hotspot
    user exactly when my_pico >= 0.  Hotspot users occupy the tail of each
    drop's index range (ids n_uniform .. n-1).
    """

    px: np.ndarray
    py: np.ndarray
    dest_x: np.ndarray
    dest_y: np.ndarray
    speed: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    my_pico: np.ndarray
    work_start: np.ndarray


def _unit_disc(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points uniform in the closed unit disc, by rejection from the square.

    Draws are consumed two at a time per pending point; consumption depends
    only on (n, rng state), never on where the points will be placed.
    """
    ox = np.empty(n)
    oy = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        # one call per round: the first p draws are cx, the next p cy
        cx, cy = rng.uniform(-1.0, 1.0, (2, pending.size))
        ok = cx * cx + cy * cy <= 1.0
        idx = pending[ok]
        ox[idx] = cx[ok]
        oy[idx] = cy[ok]
        pending = pending[~ok]
    return ox, oy


def _set_velocity(pop: UserPopulation, idx) -> None:
    """Velocity of the users idx selects (an index array, or a slice)."""
    # project speed onto the pos->dest direction; zero-length gap => rest
    gx = pop.dest_x[idx] - pop.px[idx]
    gy = pop.dest_y[idx] - pop.py[idx]
    dist = np.hypot(gx, gy)
    safe = np.where(dist > 0.0, dist, 1.0)
    scale = np.where(dist > 0.0, pop.speed[idx] / safe, 0.0)
    pop.vx[idx] = gx * scale
    pop.vy[idx] = gy * scale


def _retarget(
    pop: UserPopulation,
    idx: np.ndarray,
    center_x,
    center_y,
    radius: float,
    speed_lo: float,
    speed_hi: float,
    rngs: Sequence[np.random.Generator],
) -> None:
    """New uniform destination, in the disc of the given radius around
    the centre of each user of idx (arrays or one scalar), plus a fresh
    speed; idx is in increasing order, and drop b's users, b * n ..
    (b + 1) * n - 1, draw their offsets, then their speeds, from
    rngs[b]."""
    ox, oy, speed = np.empty((3, idx.size))
    ends = np.searchsorted(idx, pop.px.size // len(rngs) * np.arange(len(rngs) + 1))
    for rng, lo, hi in zip(rngs, ends, ends[1:]):
        ox[lo:hi], oy[lo:hi] = _unit_disc(rng, hi - lo)
        speed[lo:hi] = rng.uniform(speed_lo, speed_hi, hi - lo)
    pop.dest_x[idx] = center_x + ox * radius
    pop.dest_y[idx] = center_y + oy * radius
    pop.speed[idx] = speed
    _set_velocity(pop, idx)


def init_population(
    topo: Topology,
    schedule: WorkSchedule,
    users: UsersConfig,
    rngs: Sequence[np.random.Generator],
    static_hotspot_in_cell: bool = False,
) -> UserPopulation:
    """Fresh users of B = len(rngs) drops, stacked drop by drop into one
    population: drop b is users b * n .. (b + 1) * n - 1, n = users.total,
    uniform users first, then users.hotspot hotspot users, all drawn from
    rngs[b] alone.

    Everyone starts at a uniform point in the macro disc with a waypoint
    there too, except that single-snapshot runs place hotspot users
    directly inside their assigned pico (static_hotspot_in_cell).  Speeds
    are read from users.  config.validate_scenario guarantees 0 <= hotspot
    <= total, and a pico to assign hotspot users to.
    """
    n, n_hotspot, R = users.total, users.hotspot, topo.macro_radius
    starts = np.asarray(schedule.start_slots, dtype=np.int64)
    picos, begins, offsets, targets, speeds = [], [], [], [], []
    for rng in rngs:
        if n_hotspot > 0:
            picos.append(rng.integers(0, topo.cx.size, n_hotspot))
            begins.append(starts[rng.integers(0, starts.size, n_hotspot)])
        offsets.append(_unit_disc(rng, n))
        if not static_hotspot_in_cell:
            targets.append(_unit_disc(rng, n))
            speeds.append(rng.uniform(users.speed_min, users.speed_max, n))

    hot = np.tile(np.arange(n) >= n - n_hotspot, len(rngs))
    my_pico = np.full(hot.size, -1, dtype=np.int64)
    work_start = np.full(hot.size, -1, dtype=np.int64)
    ox, oy = np.concatenate(offsets, axis=1)
    px, py = R + ox * R, R + oy * R
    if n_hotspot > 0:
        my_pico[hot] = np.concatenate(picos)
        work_start[hot] = np.concatenate(begins)
        if static_hotspot_in_cell:
            mine = my_pico[hot]
            px[hot] = topo.cx[mine] + ox[hot] * topo.pico_radius
            py[hot] = topo.cy[mine] + oy[hot] * topo.pico_radius
    if static_hotspot_in_cell:
        dest_x, dest_y, speed = px.copy(), py.copy(), np.zeros(hot.size)
    else:
        ox, oy = np.concatenate(targets, axis=1)
        dest_x, dest_y, speed = R + ox * R, R + oy * R, np.concatenate(speeds)
    pop = UserPopulation(px, py, dest_x, dest_y, speed, np.zeros(hot.size),
                         np.zeros(hot.size), my_pico, work_start)
    if not static_hotspot_in_cell:
        _set_velocity(pop, slice(None))
    return pop


def step_population(
    pop: UserPopulation,
    slot: int,
    topo: Topology,
    schedule: WorkSchedule,
    users: UsersConfig,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Advance every user of the B = len(rngs) drops of pop by one slot
    (events, move, arrival retargets), drop b drawing from rngs[b].  Each
    event's users are one index array, built once; an empty one is
    skipped, as it would draw nothing."""
    hot, R, r = pop.my_pico >= 0, topo.macro_radius, topo.pico_radius
    # work-start event: head for the assigned pico at travel speed
    ws = np.flatnonzero(hot & (pop.work_start == slot))
    if ws.size:
        mine = pop.my_pico[ws]
        _retarget(pop, ws, topo.cx[mine], topo.cy[mine], r,
                  users.speed_min, users.speed_max, rngs)
    # work-end event: head back into the macro disc; a uniform user's
    # work_start of -1 would match at slot duration - 1 without the guard
    we = np.flatnonzero(hot & (pop.work_start == slot - schedule.duration))
    if we.size:
        _retarget(pop, we, R, R, R, users.speed_min, users.speed_max, rngs)

    arrived = np.flatnonzero(kernels.advance_positions(
        pop.px, pop.py, pop.dest_x, pop.dest_y, pop.vx, pop.vy, pop.speed
    ))

    # arrived hotspot users within their work interval wander in their pico
    start = pop.work_start[arrived]
    in_work = (pop.my_pico[arrived] >= 0) & (start <= slot) & \
        (slot < start + schedule.duration)
    wander = arrived[in_work]
    if wander.size:
        mine = pop.my_pico[wander]
        _retarget(pop, wander, topo.cx[mine], topo.cy[mine], r,
                  users.work_speed_min, users.work_speed_max, rngs)
    roam = arrived[~in_work]
    if roam.size:
        _retarget(pop, roam, R, R, R, users.speed_min, users.speed_max, rngs)


def draw_activity_flags(
    uniforms: np.ndarray,
    containing: np.ndarray,
    my_pico: np.ndarray,
    p_uniform: float,
    p_hotspot: float,
) -> np.ndarray:
    """Per-slot Bernoulli activity of users, from one uniform per user.

    The boosted probability applies only to a hotspot user currently inside
    the disc of its *own* pico (containing = per-user containing-pico id,
    -1 when uncovered); everyone else draws at the base probability.  The
    caller draws the uniforms, n per population and slot, so the arrays
    may hold several populations end to end.
    """
    # my_pico is -1 for uniform users, so only hotspot users can match
    boosted = (containing >= 0) & (containing == my_pico)
    p = np.where(boosted, p_hotspot, p_uniform)
    return uniforms < p
