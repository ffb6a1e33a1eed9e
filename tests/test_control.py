"""Wake/sleep controller: policy validation, state table, hysteresis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim.control import (
    InvalidPolicy,
    PicoControlState,
    ThresholdPolicy,
    one_threshold,
    step_state,
    two_threshold,
)
from hetnetsim.power import EnbMode

SLEEP = PicoControlState(EnbMode.SLEEP, 0)
ACTIVE = PicoControlState(EnbMode.ACTIVE, 0)


def run_sequence(policy, counts, state=SLEEP, boot_slots=1):
    trail = [state]
    for c in counts:
        state = step_state(state, c, policy, boot_slots)
        trail.append(state)
    return trail


class TestPolicyValidation:
    def test_equal_thresholds_rejected(self):
        with pytest.raises(InvalidPolicy):
            two_threshold(5, 5)

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(InvalidPolicy):
            ThresholdPolicy(t_activate=5, t_deactivate=6)

    def test_negative_activate_rejected(self):
        with pytest.raises(InvalidPolicy):
            one_threshold(-1)

    def test_zero_and_infinite_activate_allowed(self):
        one_threshold(0)
        ThresholdPolicy(t_activate=math.inf, t_deactivate=4)

    def test_single_threshold_has_no_deactivate(self):
        assert one_threshold(9).t_deactivate is None


class TestStateTable:
    """Spot checks of every transition arc for a 9/4 hysteresis policy."""

    POLICY = two_threshold(9, 4)

    def test_sleep_wakes_at_the_activate_threshold(self):
        assert step_state(SLEEP, 9, self.POLICY).mode is EnbMode.BOOT

    def test_sleep_holds_below_the_activate_threshold(self):
        assert step_state(SLEEP, 8, self.POLICY) == SLEEP

    def test_boot_finishes_regardless_of_count(self):
        booting = step_state(SLEEP, 20, self.POLICY)
        assert booting.mode is EnbMode.BOOT
        assert step_state(booting, 0, self.POLICY).mode is EnbMode.ACTIVE

    def test_active_holds_inside_the_band(self):
        assert step_state(ACTIVE, 5, self.POLICY) == ACTIVE

    def test_active_sleeps_at_the_deactivate_threshold(self):
        assert step_state(ACTIVE, 4, self.POLICY).mode is EnbMode.SLEEP

    def test_longer_boot_counts_down(self):
        s = step_state(SLEEP, 9, self.POLICY, boot_slots=3)
        assert (s.mode, s.boot_remaining) == (EnbMode.BOOT, 3)
        s = step_state(s, 0, self.POLICY, boot_slots=3)
        s = step_state(s, 0, self.POLICY, boot_slots=3)
        assert s.mode is EnbMode.BOOT
        assert step_state(s, 0, self.POLICY, boot_slots=3).mode is EnbMode.ACTIVE

    def test_zero_boot_slots_wakes_immediately(self):
        assert step_state(SLEEP, 9, self.POLICY, boot_slots=0).mode is EnbMode.ACTIVE

    def test_negative_boot_slots_rejected(self):
        with pytest.raises(ValueError):
            step_state(SLEEP, 9, self.POLICY, boot_slots=-1)


def test_single_threshold_sleeps_strictly_below_it():
    p = one_threshold(9)
    assert step_state(ACTIVE, 8, p).mode is EnbMode.SLEEP
    assert step_state(ACTIVE, 9, p) == ACTIVE
    assert step_state(SLEEP, 9, p).mode is EnbMode.BOOT


def test_degenerate_1_0_policy_never_wakes_on_empty_cells():
    p = two_threshold(1, 0)
    state = SLEEP
    for _ in range(50):
        state = step_state(state, 0, p)
    assert state == SLEEP


def test_single_threshold_oscillates_on_alternating_counts():
    """Counts flapping between t and t-1 make a single-threshold policy
    cycle sleep -> boot -> active -> sleep forever."""
    p = one_threshold(9)
    counts = [9, 0, 8] * 6  # wake, (boot slot), immediately lose the count
    trail = [s.mode for s in run_sequence(p, counts)]
    cycles = sum(
        1
        for a, b, c in zip(trail, trail[1:], trail[2:])
        if (a, b, c) == (EnbMode.SLEEP, EnbMode.BOOT, EnbMode.ACTIVE)
    )
    assert cycles >= 5
    assert EnbMode.SLEEP in trail[3:]


def test_hysteresis_gap_absorbs_the_same_flapping():
    p = two_threshold(9, 4)
    counts = [9] + [8, 9] * 20
    trail = [s.mode for s in run_sequence(p, counts)]
    # one wake transient, then pinned active
    assert all(m is EnbMode.ACTIVE for m in trail[3:])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(5, 30),
    st.integers(0, 25),
    st.lists(st.integers(0, 40), min_size=1, max_size=30),
)
def test_sleep_never_jumps_straight_to_active(t_act, gap, counts):
    policy = two_threshold(t_act, max(t_act - 1 - gap, 0)) if gap else one_threshold(t_act)
    prev = SLEEP
    for c in counts:
        cur = step_state(prev, c, policy)
        if prev.mode is EnbMode.SLEEP:
            assert cur.mode is not EnbMode.ACTIVE
        prev = cur


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(0, 27),
    st.data(),
)
def test_no_transitions_strictly_inside_the_band(t_act, t_deact, data):
    if t_deact >= t_act:
        t_deact = t_act - 1
    policy = two_threshold(t_act, t_deact)
    lo, hi = t_deact + 1, t_act - 1
    if lo > hi:
        return  # adjacent thresholds leave no interior band
    counts = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=40))
    for start in (SLEEP, ACTIVE):
        trail = run_sequence(policy, counts, state=start)
        assert all(s.mode is start.mode for s in trail)

