"""Waypoint mobility: drops, commuting, wander, activity draws."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from hetnetsim import mobility
from hetnetsim.config import UsersConfig, WorkSchedule
from hetnetsim.mobility import (
    UserPopulation,
    draw_activity_flags,
    init_population,
    step_population,
)
from hetnetsim.topology import build_udc
from oracles import containing_pico

PARAMS = UsersConfig()  # the travel and work speeds
SCHEDULE = WorkSchedule()


def make_world(n=200, hot=80, seed=5, topo_seed=9):
    topo = build_udc(np.random.default_rng(topo_seed))
    rng = np.random.default_rng(seed)
    pop = init_population(topo, SCHEDULE, UsersConfig(total=n, hotspot=hot), [rng])
    return topo, rng, pop


def dist_to_own_pico(pop, topo):
    cx = topo.cx[pop.my_pico.clip(min=0)]
    cy = topo.cy[pop.my_pico.clip(min=0)]
    return np.hypot(pop.px - cx, pop.py - cy)


def test_initial_drop_fills_the_macro_disc():
    topo, _, pop = make_world()
    d = np.hypot(pop.px - 500.0, pop.py - 500.0)
    assert d.max() <= 500.0 + 1e-9
    assert d.min() < 450.0  # not all piled on the rim
    assert pop.px.size == 200


def test_population_layout_uniform_then_hotspot():
    _, _, pop = make_world(n=50, hot=20)
    assert (pop.my_pico[:30] == -1).all()
    assert ((0 <= pop.my_pico[30:]) & (pop.my_pico[30:] < 28)).all()
    assert (pop.work_start[:30] == -1).all()
    assert np.isin(pop.work_start[30:], SCHEDULE.start_slots).all()


def test_initial_speeds_and_velocity_projection():
    _, _, pop = make_world()
    assert (pop.speed >= 10.0).all() and (pop.speed <= 20.0).all()
    gap = np.hypot(pop.dest_x - pop.px, pop.dest_y - pop.py)
    moving = gap > 1e-9
    v = np.hypot(pop.vx, pop.vy)
    np.testing.assert_allclose(v[moving], pop.speed[moving], rtol=1e-12)


def test_same_seed_same_trajectory():
    topo = build_udc(np.random.default_rng(9))
    pops = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        pop = init_population(topo, SCHEDULE, UsersConfig(total=100, hotspot=40), [rng])
        for slot in range(40):
            step_population(pop, slot, topo, SCHEDULE, PARAMS, [rng])
        pops.append(pop)
    np.testing.assert_array_equal(pops[0].px, pops[1].px)
    np.testing.assert_array_equal(pops[0].py, pops[1].py)
    np.testing.assert_array_equal(pops[0].dest_x, pops[1].dest_x)


def test_users_never_leave_the_macro_disc():
    topo, rng, pop = make_world()
    for slot in range(120):
        step_population(pop, slot, topo, SCHEDULE, PARAMS, [rng])
        d = np.hypot(pop.px - 500.0, pop.py - 500.0)
        assert d.max() <= 500.0 + 1e-9


def test_static_drop_puts_hotspot_users_in_their_own_pico():
    topo = build_udc(np.random.default_rng(9))
    rng = np.random.default_rng(5)
    pop = init_population(topo, SCHEDULE, UsersConfig(total=200, hotspot=80),
                          [rng], static_hotspot_in_cell=True)
    hot = pop.my_pico >= 0
    d = dist_to_own_pico(pop, topo)
    assert (d[hot] < 50.0).all()
    for i in np.flatnonzero(hot)[:10]:
        assert containing_pico(topo, pop.px[i], pop.py[i]) == pop.my_pico[i]


def test_workers_reach_their_pico_and_wander_slowly():
    """By 130 slots every cohort-0 worker has commuted in; once inside, the
    wander targets keep them inside (their disc is convex)."""
    topo = build_udc(np.random.default_rng(9))
    rng = np.random.default_rng(5)
    sched = WorkSchedule(start_slots=(0,), duration=375)
    pop = init_population(topo, sched, UsersConfig(total=300, hotspot=120), [rng])
    for slot in range(130):
        step_population(pop, slot, topo, sched, PARAMS, [rng])
    hot = pop.my_pico >= 0
    d = dist_to_own_pico(pop, topo)
    assert (d[hot] < 50.0).all()
    assert (pop.speed[hot] <= 2.0).all()  # wander pace, not travel pace
    # and they stay in through further slots
    for slot in range(130, 170):
        step_population(pop, slot, topo, sched, PARAMS, [rng])
    assert (dist_to_own_pico(pop, topo)[hot] < 50.0).all()


def test_work_end_sends_workers_back_out():
    topo = build_udc(np.random.default_rng(9))
    rng = np.random.default_rng(5)
    sched = WorkSchedule(start_slots=(0,), duration=60)
    pop = init_population(topo, sched, UsersConfig(total=200, hotspot=80), [rng])
    for slot in range(62):
        step_population(pop, slot, topo, sched, PARAMS, [rng])
    hot = pop.my_pico >= 0
    assert (pop.speed[hot] >= 10.0).all()  # back to travel pace
    # eventually the cohort disperses: far fewer than all of them in-cell
    for slot in range(62, 240):
        step_population(pop, slot, topo, sched, PARAMS, [rng])
    frac_in = (dist_to_own_pico(pop, topo)[hot] < 50.0).mean()
    assert frac_in < 0.3


@pytest.mark.parametrize("static", [False, True], ids=["moving", "static"])
@pytest.mark.parametrize("hot", [0, 7])
def test_drops_stack_end_to_end(static, hot):
    """The population of three generators is, field by field, the three
    one-generator populations end to end, and leaves each generator where
    drawing its own drop alone leaves it."""
    topo = build_udc(np.random.default_rng(9))
    users = UsersConfig(total=20, hotspot=hot)

    def rngs():
        return [np.random.default_rng(seed) for seed in (4, 5, 6)]

    stacked_rngs, alone_rngs = rngs(), rngs()
    stacked = init_population(topo, SCHEDULE, users, stacked_rngs, static)
    alone = [init_population(topo, SCHEDULE, users, [rng], static) for rng in alone_rngs]
    for field in dataclasses.fields(UserPopulation):
        np.testing.assert_array_equal(
            getattr(stacked, field.name),
            np.concatenate([getattr(pop, field.name) for pop in alone]), err_msg=field.name)
    for a, b in zip(stacked_rngs, alone_rngs):
        assert a.random() == b.random()


@pytest.mark.parametrize("hot", [0, 7])
def test_drops_step_together_as_each_alone(hot):
    """Three drops stepped together through 120 slots, past work starts,
    arrivals and work ends, are field by field the three drops stepped
    alone, end to end, and leave each generator where stepping its own
    drop alone leaves it."""
    topo = build_udc(np.random.default_rng(9))
    users = UsersConfig(total=20, hotspot=hot)
    sched = WorkSchedule(start_slots=(0, 5), duration=30)

    def rngs():
        return [np.random.default_rng(seed) for seed in (4, 5, 6)]

    stacked_rngs, alone_rngs = rngs(), rngs()
    stacked = init_population(topo, sched, users, stacked_rngs)
    alone = [init_population(topo, sched, users, [rng]) for rng in alone_rngs]
    for slot in range(120):
        step_population(stacked, slot, topo, sched, PARAMS, stacked_rngs)
        for pop, rng in zip(alone, alone_rngs):
            step_population(pop, slot, topo, sched, PARAMS, [rng])
    for field in dataclasses.fields(UserPopulation):
        np.testing.assert_array_equal(
            getattr(stacked, field.name),
            np.concatenate([getattr(pop, field.name) for pop in alone]), err_msg=field.name)
    for a, b in zip(stacked_rngs, alone_rngs):
        assert a.random() == b.random()


def test_empty_event_groups_are_not_retargeted():
    """Over 1000 slots of 1000 users, half of them commuting, every
    retarget gets at least one user: an empty event group is skipped, not
    handed to _retarget, which costs tens of microseconds even when it
    draws nothing.  Most slots have some empty group."""
    topo = build_udc(np.random.default_rng(9))
    rng = np.random.default_rng(5)
    users = UsersConfig(total=1000, hotspot=500)
    pop = init_population(topo, SCHEDULE, users, [rng])
    with mock.patch.object(mobility, "_retarget", wraps=mobility._retarget) as retarget:
        for slot in range(1000):
            step_population(pop, slot, topo, SCHEDULE, PARAMS, [rng])
    sizes = [c.args[1].size for c in retarget.call_args_list]
    assert 1000 < len(sizes) < 4 * 1000
    assert min(sizes) > 0


def one_user(x, y, dest_x, dest_y, speed, vx, vy):
    """A 1-user uniform population in the given motion state."""
    def arr(v):
        return np.array([v], dtype=float)
    return UserPopulation(
        px=arr(x), py=arr(y), dest_x=arr(dest_x), dest_y=arr(dest_y),
        speed=arr(speed), vx=arr(vx), vy=arr(vy),
        my_pico=np.array([-1]), work_start=np.array([-1]),
    )


def test_arrival_snaps_exactly_onto_the_waypoint():
    topo = build_udc(np.random.default_rng(9))
    rng = np.random.default_rng(0)
    pop = one_user(x=500.0, y=500.0, dest_x=501.0, dest_y=500.0,
                   speed=5.0, vx=5.0, vy=0.0)
    step_population(pop, 0, topo, SCHEDULE, PARAMS, [rng])
    assert (pop.px[0], pop.py[0]) == (501.0, 500.0)
    assert 10.0 <= pop.speed[0] <= 20.0  # fresh leg drawn on arrival
    assert np.hypot(pop.dest_x[0] - 500.0, pop.dest_y[0] - 500.0) <= 500.0 + 1e-9


def test_single_user_api_matches_population_semantics():
    """A population of one hotspot user gets a pico and moves."""
    topo = build_udc(np.random.default_rng(9))
    pop = init_population(topo, SCHEDULE, UsersConfig(total=1, hotspot=1),
                          [np.random.default_rng(3)])
    assert 0 <= pop.my_pico[0] < 28
    before = (pop.px[0], pop.py[0])
    step_population(pop, 1_000_000, topo, SCHEDULE, PARAMS,
                    [np.random.default_rng(4)])
    assert (pop.px[0], pop.py[0]) != before


def test_uniform_users_have_no_work_end():
    """Uniform users carry work_start = -1, so work_start + duration ==
    slot alone would retarget them at slot duration - 1; with the hotspot
    guard, static uniform users (none ever arrives) draw nothing there
    and keep their waypoints."""
    topo = build_udc(np.random.default_rng(9))
    users = UsersConfig(total=50, hotspot=0, speed_min=0.0, speed_max=0.0)
    rng = np.random.default_rng(1)
    pop = init_population(topo, SCHEDULE, users, [rng])
    state, dest = rng.bit_generator.state, (pop.dest_x.copy(), pop.dest_y.copy())
    step_population(pop, SCHEDULE.duration - 1, topo, SCHEDULE, users, [rng])
    assert rng.bit_generator.state == state
    np.testing.assert_array_equal(pop.dest_x, dest[0])
    np.testing.assert_array_equal(pop.dest_y, dest[1])


class TestActivityDraws:
    def test_degenerate_probabilities_isolate_the_boost_rule(self):
        topo = build_udc(np.random.default_rng(9))
        rng = np.random.default_rng(5)
        pop = init_population(topo, SCHEDULE, UsersConfig(total=400, hotspot=150),
                              [rng], static_hotspot_in_cell=True)
        containing = np.array([
            c if (c := containing_pico(topo, x, y)) is not None else -1
            for x, y in zip(pop.px, pop.py)
        ])
        flags = draw_activity_flags(rng.random(pop.px.size), containing, pop.my_pico,
                                    p_uniform=0.0, p_hotspot=1.0)
        boosted = (pop.my_pico >= 0) & (containing == pop.my_pico)
        np.testing.assert_array_equal(flags, boosted)
        assert draw_activity_flags(rng.random(pop.px.size), containing, pop.my_pico,
                                   1.0, 1.0).all()
        assert not draw_activity_flags(rng.random(pop.px.size), containing, pop.my_pico,
                                       0.0, 0.0).any()

    def test_base_rate_matches_the_probability(self):
        topo = build_udc(np.random.default_rng(9))
        rng = np.random.default_rng(5)
        pop = init_population(topo, SCHEDULE, UsersConfig(total=4000, hotspot=0), [rng])
        containing = np.full(4000, -1)
        hits = sum(
            draw_activity_flags(rng.random(pop.px.size), containing, pop.my_pico,
                                PARAMS.activity_uniform, PARAMS.activity_hotspot).sum()
            for _ in range(10)
        )
        assert hits / 40000 == pytest.approx(0.4, abs=0.02)

    def test_visiting_someone_elses_pico_earns_no_boost(self):
        topo = build_udc(np.random.default_rng(9))
        rng = np.random.default_rng(5)
        pop = init_population(topo, SCHEDULE, UsersConfig(total=50, hotspot=50), [rng])
        other = (pop.my_pico + 1) % 28
        flags_mean = np.mean([
            draw_activity_flags(rng.random(pop.px.size), other, pop.my_pico, 0.0, 1.0).any()
            for _ in range(20)
        ])
        assert flags_mean == 0.0

