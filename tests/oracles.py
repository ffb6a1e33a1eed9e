"""Scalar reference implementations that the tests check the program
against.  Each one is written out from the model's definition, one link,
pico or station at a time; the program computes the same quantities for
whole arrays at once.

The control oracle (step_state) transcribes the state table in
``hetnetsim.control``'s docstring, consumed_power_w the station power
formula in ``hetnetsim.config.PowerParams``'s, and rate_histogram the binning of
``histogram.csv``; none calls a hetnetsim function.  The link-budget
oracles pick the tier with a ``pico`` bool, as kernels.link_capacity does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from hetnetsim.config import ChannelParams, PowerParams, ThresholdPolicy
from hetnetsim.topology import Topology, TopologyError

BOLTZMANN = 1.380649e-23  # J/K

# --- link budget -----------------------------------------------------------


class NonPositiveDistance(ValueError):
    """Link evaluation needs a strictly positive geometric distance."""


@dataclass(frozen=True)
class LinkBudget:
    distance_m: float
    bandwidth_hz: float
    path_loss_db: float
    shadow_db: float
    rx_power_dbm: float
    noise_power_dbm: float
    snr_db: float
    snr_linear: float
    capacity_bps: float


def path_loss_db(
    pico: bool, distance_m: float, min_distance_m: float = 1.0
) -> float:
    """Distance-dependent loss in dB; distance clamped below at min_distance_m.

    Macro tier: 140.7 + 36.7 log10(d_km); pico tier: 128.1 + 37.6 log10(d_km).
    """
    if distance_m <= 0.0:
        raise NonPositiveDistance(f"distance must be > 0, got {distance_m}")
    d_km = max(distance_m, min_distance_m) / 1000.0
    if pico:
        return 128.1 + 37.6 * math.log10(d_km)
    return 140.7 + 36.7 * math.log10(d_km)


def sample_shadow_db(
    pico: bool, rng: np.random.Generator, params: ChannelParams = ChannelParams()
) -> float:
    sigma = params.pico_shadow_sigma_db if pico else params.macro_shadow_sigma_db
    return float(rng.normal(0.0, sigma))


def shannon_capacity_bps(bandwidth_hz: float, snr_linear: float) -> float:
    return bandwidth_hz * math.log2(1.0 + snr_linear)


def evaluate_link(
    pico: bool,
    distance_m: float,
    bandwidth_hz: float,
    shadow_db: float = 0.0,
    params: ChannelParams = ChannelParams(),
) -> LinkBudget:
    """Full budget for one downlink: PL, shadowing, noise, SNR, capacity.

    rx = tx + eNB gain + UE gain - path loss + shadow (all dB/dBm); noise
    is kTW in dBm.  Shadowing is passed in rather than drawn so callers
    control the random stream.
    """
    pl = path_loss_db(pico, distance_m, params.min_distance_m)
    if pico:
        tx, gain = params.pico_tx_dbm, params.pico_antenna_gain_dbi
    else:
        tx, gain = params.macro_tx_dbm, params.macro_antenna_gain_dbi
    rx = tx + gain + params.ue_antenna_gain_dbi - pl + shadow_db
    noise = 10.0 * math.log10(
        BOLTZMANN * params.temperature_k * bandwidth_hz * 1000.0)
    snr_db = rx - noise
    snr = 10.0 ** (snr_db / 10.0)
    return LinkBudget(
        distance_m=distance_m,
        bandwidth_hz=bandwidth_hz,
        path_loss_db=pl,
        shadow_db=shadow_db,
        rx_power_dbm=rx,
        noise_power_dbm=noise,
        snr_db=snr_db,
        snr_linear=snr,
        capacity_bps=shannon_capacity_bps(bandwidth_hz, snr),
    )


# --- containment -----------------------------------------------------------


def contains_point(topo: Topology, j: int, x: float, y: float) -> bool:
    """Whether the open disc of pico j contains (x, y)."""
    return math.hypot(x - topo.cx[j], y - topo.cy[j]) < topo.pico_radius


def containing_pico(topo: Topology, x: float, y: float) -> Optional[int]:
    """Id of the pico whose open disc contains (x, y), or None; where discs
    overlap, the lowest id (scan order) wins."""
    for j in range(topo.cx.size):
        if contains_point(topo, j, x, y):
            return j
    return None


# --- layouts ---------------------------------------------------------------


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def validate_topology(topo: Topology) -> None:
    """Every pico within the macro disc of radius R centred at (R, R),
    less a slack of 1e-9 R, then every pair (i, j), i < j, at least two
    radii r apart, less a slack of 1e-9 (2r); the first failure in that
    order raises TopologyError."""
    R, r = topo.macro_radius, topo.pico_radius
    centres = list(zip(topo.cx.tolist(), topo.cy.tolist()))
    for j, (x, y) in enumerate(centres):
        if _dist(x, y, R, R) + r > R * (1 + 1e-9):
            raise TopologyError(f"pico {j} extends outside the macro disc")
    for i, (ax, ay) in enumerate(centres):
        for j in range(i + 1, len(centres)):
            if _dist(ax, ay, *centres[j]) < 2 * r * (1 - 1e-9):
                raise TopologyError(f"picos {i} and {j} overlap")


def udc_centres(
    rng: np.random.Generator,
    macro_radius: float,
    pico_radius: float,
    n_picos: int,
    max_attempts: int,
) -> list[tuple[float, float]]:
    """The udc placement scan: per pico, draw candidate offsets (one
    uniform pair per attempt, rejected outside the unit disc) until one is
    at least 2r from every centre placed so far; TopologyError when a
    pico's attempts run out.  No area or radius checks."""
    inner = macro_radius - pico_radius
    placed: list[tuple[float, float]] = []
    for i in range(n_picos):
        for _ in range(max_attempts):
            ox = rng.uniform(-1.0, 1.0)
            oy = rng.uniform(-1.0, 1.0)
            if ox * ox + oy * oy > 1.0:
                continue
            cx = macro_radius + ox * inner
            cy = macro_radius + oy * inner
            if all(
                _dist(cx, cy, px, py) >= 2.0 * pico_radius for px, py in placed
            ):
                placed.append((cx, cy))
                break
        else:
            raise TopologyError(
                f"could not place pico {i} after {max_attempts} attempts"
            )
    return placed


# --- rate histogram --------------------------------------------------------


def rate_histogram(rates) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of 100 bins of 1e4 b/s over [0, 1e6], one rate at
    a time; a rate at or beyond the top edge counts in the last bin."""
    counts = np.zeros(100, dtype=np.int64)
    for rate in np.asarray(rates, dtype=np.float64).tolist():
        counts[min(int(rate // 1e4), 99)] += 1
    return counts, 1e4 * np.arange(101)


# --- station power ---------------------------------------------------------


def consumed_power_w(params: PowerParams, mode: EnbMode, n_served: int = 0) -> float:
    """Station draw in watts for one slot at the given mode and load:
    sectors * (p0 + delta_p * p_max * min(n, cap) / cap) when Active,
    sectors * p_sleep in Sleep and Boot, which only a pico has."""
    if n_served < 0:
        raise ValueError(f"n_served must be non-negative, got {n_served}")
    if mode is EnbMode.ACTIVE:
        load = min(n_served, params.user_capacity) / params.user_capacity
        return params.sectors * (params.p0_w + params.delta_p * params.p_max_w * load)
    return params.sectors * params.p_sleep_w


# --- pico control ----------------------------------------------------------


class EnbMode(Enum):
    ACTIVE = "active"
    SLEEP = "sleep"
    BOOT = "boot"


@dataclass(frozen=True)
class PicoControlState:
    mode: EnbMode = EnbMode.SLEEP
    boot_remaining: int = 0


def oracle_state(state: int) -> PicoControlState:
    """The PicoControlState of a hetnetsim.control state: -1 is Sleep, 0
    Active, and k > 0 Boot with k slots left."""
    if state < 0:
        return PicoControlState(EnbMode.SLEEP)
    if state == 0:
        return PicoControlState(EnbMode.ACTIVE)
    return PicoControlState(EnbMode.BOOT, state)


def engine_state(state: PicoControlState) -> int:
    """The hetnetsim.control state of a PicoControlState, the inverse of
    oracle_state; a Boot state must have slots left."""
    if state.mode is EnbMode.BOOT:
        assert state.boot_remaining > 0, state
        return state.boot_remaining
    return -1 if state.mode is EnbMode.SLEEP else 0


def one_threshold(t: float) -> ThresholdPolicy:
    return ThresholdPolicy(t_activate=t, t_deactivate=None)


def two_threshold(t_activate: float, t_deactivate: float) -> ThresholdPolicy:
    return ThresholdPolicy(t_activate=t_activate, t_deactivate=t_deactivate)


def step_state(
    state: PicoControlState,
    count: int,
    policy,
    boot_slots: int = 1,
) -> PicoControlState:
    """One pico's next state, from the table:

    * Sleep  -> Boot    when count >= t_activate, for boot_slots slots
                        (straight to Active when boot_slots = 0)
    * Boot   -> Active  when the countdown reaches zero, whatever the count
    * Active -> Sleep   when count <= t_deactivate, or, with no
                        t_deactivate, when count < t_activate

    Every other state stays as it is.  policy is anything with
    t_activate and t_deactivate attributes.
    """
    if boot_slots < 0:
        raise ValueError(f"boot_slots must be >= 0, got {boot_slots}")
    if state.mode is EnbMode.SLEEP:
        if count < policy.t_activate:
            return state
        if boot_slots == 0:
            return PicoControlState(EnbMode.ACTIVE, 0)
        return PicoControlState(EnbMode.BOOT, boot_slots)
    if state.mode is EnbMode.BOOT:
        remaining = state.boot_remaining - 1
        if remaining <= 0:
            return PicoControlState(EnbMode.ACTIVE, 0)
        return PicoControlState(EnbMode.BOOT, remaining)
    if policy.t_deactivate is None:
        sleep = count < policy.t_activate
    else:
        sleep = count <= policy.t_deactivate
    return PicoControlState(EnbMode.SLEEP, 0) if sleep else state
