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

The engine holds every pico's mode as an int code (SLEEP, BOOT, ACTIVE)
and advances the (K, B, m) picos of K scenarios in B drops at once with
step_modes, each row under its own policy's (K, 1, 1) threshold columns.  The policy
itself is a config.ThresholdPolicy.
"""

from __future__ import annotations

import numpy as np

# int mode codes of the control arrays; MODES[code] is the mode's trace label
SLEEP, BOOT, ACTIVE = 0, 1, 2
MODES = ("sleep", "boot", "active")


def step_modes(
    mode: np.ndarray,
    boot_remaining: np.ndarray,
    counts: np.ndarray,
    t_activate: np.ndarray,
    t_sleep: np.ndarray,
    boot_slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every pico's mode by one slot given this slot's user counts.

    mode and boot_remaining are (K, B, m) arrays: row k holds the picos,
    in each of B drops, of a scenario that wakes a pico at count >=
    t_activate[k], sleeps it at count <= t_sleep[k] (its
    config.ThresholdPolicy.t_sleep) and boots it in boot_slots[k] >= 0
    slots; all three are (K, 1, 1) columns.  counts broadcasts against
    mode: the engine passes one (B, m) array, as every row sees the same
    users.
    Returns new (mode, boot_remaining) arrays.  Boot always runs to
    completion: the countdown ignores the count, so a station can never pay
    the boot cost and then go back to sleep unserved within the same
    transient.  boot_slots = 0 degenerates to an immediate Sleep -> Active
    transition.
    """
    wake = (mode == SLEEP) & (counts >= t_activate)
    booting = mode == BOOT
    sleep = (mode == ACTIVE) & (counts <= t_sleep)
    remaining = np.where(booting, boot_remaining - 1, boot_remaining)
    booted = booting & (remaining <= 0)
    new_mode = np.where(booted, ACTIVE, mode)
    new_mode = np.where(sleep, SLEEP, new_mode)
    new_mode = np.where(wake, np.where(boot_slots > 0, BOOT, ACTIVE), new_mode)
    remaining = np.where(booted | sleep, 0, remaining)
    remaining = np.where(wake, boot_slots, remaining)
    return new_mode, remaining
