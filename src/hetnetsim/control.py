"""Pico sleep/wake control.

Each pico counts the active users inside its disc every slot and runs a
small state machine:

* Sleep  -> Boot    when count >= t_activate (boot takes boot_slots slots)
* Boot   -> Active  when the boot countdown reaches zero (unconditional)
* Active -> Sleep   when count <= t_deactivate   (two-threshold rule)
                    or count <  t_activate       (one-threshold rule)

A two-threshold policy with t_deactivate = t_activate - 1 is equivalent to
the one-threshold rule for integer counts; distinct thresholds add
hysteresis, which removes on/off flapping when the count sits near the
activation point.

The engine holds every pico's state as one int: SLEEP (-1), ACTIVE (0),
or k > 0 for a pico booting with k slots left, so Boot holds exactly
when the countdown runs.  The policy is a config.ThresholdPolicy.
"""

from __future__ import annotations

import numpy as np

SLEEP, ACTIVE = -1, 0

# the trace label of a state: MODES[mode_index(state)]
MODES = ("sleep", "active", "boot")


def mode_index(state: np.ndarray) -> np.ndarray:
    """Each state's index into MODES; any countdown is boot."""
    return np.sign(state) + 1


def step_modes(
    state: np.ndarray,
    counts: np.ndarray,
    t_activate: np.ndarray,
    t_sleep: np.ndarray,
    boot_slots,
) -> np.ndarray:
    """Every pico's state one slot on, given this slot's user counts.

    state is a (K, B, m) array: row k holds the picos, in each of B drops,
    of a scenario that wakes a pico at count >= t_activate[k], sleeps it
    at count <= t_sleep[k] (its config.ThresholdPolicy.t_sleep) and boots
    it in boot_slots[k] >= 0 slots; all three are (K, 1, 1) columns, or
    boot_slots one int.  counts broadcasts against state: the engine
    passes one (B, m) array, as every row sees the same users.
    A booting pico counts down whatever the count, so a station can never
    pay the boot cost and then go back to sleep unserved within the same
    transient; reaching 0 makes it Active.  A waking pico takes
    boot_slots, so boot_slots = 0 goes straight from Sleep to Active.
    """
    nxt = np.where(state > 0, state - 1, state)
    nxt = np.where((state == ACTIVE) & (counts <= t_sleep), SLEEP, nxt)
    return np.where((state == SLEEP) & (counts >= t_activate), boot_slots, nxt)
