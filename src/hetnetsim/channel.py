"""Radio constants and the per-user share of the link budget.

ChannelParams holds each tier's transmit power, antenna gains and
shadowing sigma; noise_power_dbm and user_bandwidth give the thermal noise
and the equal bandwidth split that every user's link is evaluated over.
The path loss, shadowing and Shannon capacity of the links themselves are
computed by kernels.link_capacity, one tier's links of a slot per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class ChannelParams:
    """Per-tier radio constants plus system-wide bandwidth and temperature."""

    bandwidth_hz: float = 20e6
    temperature_k: float = 290.0
    macro_tx_dbm: float = 46.0
    macro_antenna_gain_dbi: float = 14.0
    macro_shadow_sigma_db: float = 8.0
    pico_tx_dbm: float = 30.0
    pico_antenna_gain_dbi: float = 5.0
    pico_shadow_sigma_db: float = 10.0
    ue_antenna_gain_dbi: float = 0.0
    min_distance_m: float = 1.0


def noise_power_dbm(bandwidth_hz: float, temperature_k: float) -> float:
    """Thermal noise kTW expressed in dBm."""
    return 10.0 * math.log10(BOLTZMANN * temperature_k * bandwidth_hz * 1000.0)


def user_bandwidth(total_hz: float, n_users: int) -> float:
    """Equal split of the system bandwidth among the configured users."""
    return total_hz / n_users
