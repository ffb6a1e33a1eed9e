"""Wake/sleep controller: policy validation, state table, hysteresis.

The tests step the program's step_modes; the last one checks it against
the plain-Python transcription of the state table in tests/oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hetnetsim.config import ThresholdPolicy, ValidationError, parse_scenario
from hetnetsim.control import (
    ACTIVE as ACTIVE_STATE,
    MODES,
    SLEEP as SLEEP_STATE,
    mode_index,
    step_modes,
)
from oracles import (
    EnbMode,
    PicoControlState,
    engine_state,
    one_threshold,
    oracle_state,
    step_state,
    two_threshold,
)

SLEEP = PicoControlState(EnbMode.SLEEP, 0)
ACTIVE = PicoControlState(EnbMode.ACTIVE, 0)


def thresholds(policies):
    """The (K, 1) t_activate and t_sleep columns of K policies, as
    engine.Response builds them for rows whose picos serve."""
    return (np.array([[p.t_activate] for p in policies], dtype=float),
            np.array([[p.t_sleep] for p in policies], dtype=float))


def step(state, count, policy, boot_slots=1):
    """step_modes on a single pico: one row of one column."""
    nxt = step_modes(
        np.array([[engine_state(state)]]),
        np.array([count]),
        *thresholds([policy]),
        np.array([[boot_slots]]),
    )
    return oracle_state(int(nxt[0, 0]))


def test_mode_labels_follow_the_codes():
    """MODES[mode_index(state)], the pico-trace label, is the value of the
    oracle's EnbMode for that state, whatever the boot slots left."""
    assert (SLEEP_STATE, ACTIVE_STATE) == (-1, 0)
    states = np.arange(-1, 6)
    labels = [MODES[i] for i in mode_index(states).tolist()]
    assert labels == [oracle_state(k).mode.value for k in states.tolist()]
    assert labels[:3] == ["sleep", "active", "boot"]


def run_sequence(policy, counts, state=SLEEP, boot_slots=1):
    trail = [state]
    for c in counts:
        state = step(state, c, policy, boot_slots)
        trail.append(state)
    return trail


def policy(**fields):
    """The parsed policy of a udc document with these policy fields."""
    return parse_scenario({"topology": "udc", "policy": fields}).policy


def rejected(message, **fields):
    with pytest.raises(ValidationError) as exc:
        policy(**fields)
    assert str(exc.value) == message


class TestPolicyValidation:
    """Policies go through parse_scenario: config.validate_scenario is
    the one check of their thresholds."""

    def test_equal_thresholds_rejected(self):
        rejected("policy.t_deactivate: must be strictly below t_activate "
                 "(got 5.0 >= 5.0)", t_activate=5, t_deactivate=5)

    def test_inverted_thresholds_rejected(self):
        rejected("policy.t_deactivate: must be strictly below t_activate "
                 "(got 6.0 >= 5.0)", t_activate=5, t_deactivate=6)

    def test_negative_activate_rejected(self):
        rejected("policy.t_activate: must be >= 0, got -1.0",
                 t_activate=-1, t_deactivate=None)

    def test_zero_and_infinite_activate_allowed(self):
        assert policy(t_activate=0, t_deactivate=None) == ThresholdPolicy(0.0)
        assert (policy(t_activate=math.inf, t_deactivate=4)
                == ThresholdPolicy(math.inf, 4.0))

    @pytest.mark.parametrize("t, message", [
        (-math.inf, "policy.t_activate: must be >= 0, got -inf"),
        (math.nan, "policy.t_activate: must be finite, got nan"),
    ], ids=["-inf", "nan"])
    def test_minus_infinite_and_nan_activate_rejected(self, t, message):
        rejected(message, t_activate=t, t_deactivate=None)

    def test_minus_infinite_deactivate_allowed(self):
        assert policy(t_activate=5, t_deactivate=-math.inf).t_deactivate == -math.inf

    def test_single_threshold_has_no_deactivate(self):
        assert ThresholdPolicy(t_activate=9).t_deactivate is None


class TestStateTable:
    """Spot checks of every transition arc for a 9/4 hysteresis policy."""

    POLICY = two_threshold(9, 4)

    def test_sleep_wakes_at_the_activate_threshold(self):
        assert step(SLEEP, 9, self.POLICY).mode is EnbMode.BOOT

    def test_sleep_holds_below_the_activate_threshold(self):
        assert step(SLEEP, 8, self.POLICY) == SLEEP

    def test_boot_finishes_regardless_of_count(self):
        booting = step(SLEEP, 20, self.POLICY)
        assert booting.mode is EnbMode.BOOT
        assert step(booting, 0, self.POLICY).mode is EnbMode.ACTIVE

    def test_active_holds_inside_the_band(self):
        assert step(ACTIVE, 5, self.POLICY) == ACTIVE

    def test_active_sleeps_at_the_deactivate_threshold(self):
        assert step(ACTIVE, 4, self.POLICY).mode is EnbMode.SLEEP

    def test_longer_boot_counts_down(self):
        s = step(SLEEP, 9, self.POLICY, boot_slots=3)
        assert (s.mode, s.boot_remaining) == (EnbMode.BOOT, 3)
        s = step(s, 0, self.POLICY, boot_slots=3)
        s = step(s, 0, self.POLICY, boot_slots=3)
        assert s.mode is EnbMode.BOOT
        assert step(s, 0, self.POLICY, boot_slots=3).mode is EnbMode.ACTIVE

    def test_zero_boot_slots_wakes_immediately(self):
        assert step(SLEEP, 9, self.POLICY, boot_slots=0).mode is EnbMode.ACTIVE


def test_single_threshold_sleeps_strictly_below_it():
    p = one_threshold(9)
    assert step(ACTIVE, 8, p).mode is EnbMode.SLEEP
    assert step(ACTIVE, 9, p) == ACTIVE
    assert step(SLEEP, 9, p).mode is EnbMode.BOOT


def test_degenerate_1_0_policy_never_wakes_on_empty_cells():
    p = two_threshold(1, 0)
    state = SLEEP
    for _ in range(50):
        state = step(state, 0, p)
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
        cur = step(prev, c, policy)
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



@st.composite
def policy_rows(draw):
    """K rows of (ThresholdPolicy, boot_slots): one- and two-threshold
    rules, integral, fractional and infinite wake thresholds."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        t_act = draw(st.integers(0, 10).map(float) | st.floats(0.0, 10.0)
                     | st.just(math.inf))
        t_deact = draw(st.none() | st.integers(-1, 10).map(float)
                       | st.floats(-1.0, 10.0) | st.just(-math.inf))
        if t_deact is not None and t_deact >= t_act:
            t_deact = None
        rows.append((ThresholdPolicy(t_act, t_deact), draw(st.integers(0, 3))))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=policy_rows(), data=st.data())
def test_step_modes_equals_the_state_table_oracle(rows, data):
    """(K, m) picos in any reachable state (Sleep, Active, or Boot with 1
    to 3 slots left, as boot_slots <= 3), stepped through a run of shared
    counts, match the oracle element by element after every slot."""
    K = len(rows)
    m = data.draw(st.integers(1, 8))
    state = data.draw(hnp.arrays(np.int64, (K, m), elements=st.integers(-1, 3)))
    t_activate, t_sleep = thresholds([p for p, _ in rows])
    boot_slots = np.array([[b] for _, b in rows])
    for counts in data.draw(st.lists(
            hnp.arrays(np.int64, (m,), elements=st.integers(0, 12)),
            min_size=1, max_size=8)):
        want = [[step_state(oracle_state(int(state[k, j])), int(counts[j]),
                            rows[k][0], rows[k][1])
                 for j in range(m)] for k in range(K)]
        state = step_modes(state, counts, t_activate, t_sleep, boot_slots)
        got = [[oracle_state(int(state[k, j])) for j in range(m)] for k in range(K)]
        assert got == want
