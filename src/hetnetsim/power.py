"""Base-station power consumption model.

An active station burns a fixed part plus a load-proportional part:

    P_active(n) = n_sectors * (p0 + delta_p * p_max * min(n, cap) / cap)

where n is the number of served users and cap the nominal user capacity.
Macro stations never sleep, so their model is the active draw alone
(PowerParams).  Picos move between Sleep, Boot and Active under the
control policy (see control.py); sleeping and booting picos burn the
sleep floor p_sleep per sector (PicoPowerParams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerParams:
    """The active draw of a station that never sleeps: the macro."""

    sectors: int
    p_max_w: float       # max transmit power per sector
    p0_w: float          # fixed per-sector draw while active
    delta_p: float       # slope of the load-dependent part
    user_capacity: int   # load saturates here

    def active_draw(self, n_served):
        """Draw of the station serving n_served users, elementwise when
        the fields are (K, 1) columns of K rows (engine.Response):
        sectors * (p0 + delta_p * p_max * load)."""
        load = np.minimum(n_served, self.user_capacity) / self.user_capacity
        return self.sectors * (self.p0_w + self.delta_p * self.p_max_w * load)


@dataclass(frozen=True)
class PicoPowerParams(PowerParams):
    """A station that also sleeps: the pico."""

    p_sleep_w: float     # per-sector draw in Sleep and Boot


MACRO_POWER = PowerParams(
    sectors=3, p_max_w=40.0, p0_w=260.0, delta_p=4.75, user_capacity=1000,
)

PICO_POWER = PicoPowerParams(
    sectors=1, p_max_w=0.25, p0_w=13.6, delta_p=4.0, user_capacity=50,
    p_sleep_w=8.6,
)
