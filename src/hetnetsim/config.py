"""Scenario configuration: the schema, YAML parsing, strict validation,
serialization.

This module defines every section of a scenario and imports nothing from
the package.  A scenario document is the Scenario dataclass tree below
written as a nested mapping: each key is a field, each section a nested
dataclass, and every omitted key falls back to the defaults (the standard
experiment: 1000 users, 28 picos of 50 m in a 500 m macro cell, 20 MHz,
two-threshold control at 9/4).  Section values merge field-by-field onto
the defaults, so `policy: {t_activate: 12}` keeps t_deactivate at 4; a
one-threshold policy needs an explicit `t_deactivate: null`.  Unknown keys
anywhere are hard errors, reported with their dotted path.  Numbers must
be finite, save the two policy thresholds: `.inf` is a valid t_activate
(never wake) and `-.inf` a valid t_deactivate (never sleep).  Integers
must fit in 64 bits.  The link-budget keys lie in physical ranges
(CHANNEL_RANGES, MAX_MACRO_RADIUS_M).  validate_scenario holds every rule,
and a Scenario runs it when it is built, parsed or not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml


class ConfigError(Exception):
    pass


class ValidationError(ConfigError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


TOPOLOGY_KINDS = ("monet", "coe", "udc", "monet_coe_users", "monet_udc_users")

# the only numbers that may be infinite: t_activate = .inf never wakes,
# t_deactivate = -.inf never sleeps (validate_scenario rejects the other
# two: -.inf t_activate is below 0, .inf t_deactivate is not below it)
INFINITE_OK = ("policy.t_activate", "policy.t_deactivate")

# the largest layout.n_picos: layout checks grow as the square of the
# count, and build_udc places 10,000 picos in about 1 s
MAX_PICOS = 10_000

# the largest users.total: per-user arrays grow with it in every slot,
# and a 3-slot udc run of 10^6 users peaks at about 210 MiB, while 10^12
# users would ask for terabytes before the first slot
MAX_USERS = 1_000_000

# the largest slots and realizations: the engine preallocates a slot column
# entry for each, and at ~0.6 s per 1000 paper-scale slots 10^6 take ~10 min
MAX_SLOTS = 1_000_000

# the largest layout.max_place_attempts: an unplaceable udc layout spends it all
MAX_PLACE_ATTEMPTS = 1_000_000

# physical ranges, inclusive, of the keys that enter the link budget; far
# past them a link's capacity overflows to inf or rounds to 0 b/s.  The
# pico radius lies below the macro radius.
MAX_MACRO_RADIUS_M = 1e5
CHANNEL_RANGES = {
    "bandwidth_hz": (1e3, 1e11, "Hz"),
    "temperature_k": (1.0, 1e5, "K"),
    "macro_tx_dbm": (-100.0, 100.0, "dBm"),
    "macro_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "macro_shadow_sigma_db": (0.0, 50.0, "dB"),
    "pico_tx_dbm": (-100.0, 100.0, "dBm"),
    "pico_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "pico_shadow_sigma_db": (0.0, 50.0, "dB"),
    "ue_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "min_distance_m": (1e-3, 1e3, "m"),
}


@dataclass(frozen=True)
class LayoutConfig:
    macro_radius_m: float = 500.0
    pico_radius_m: float = 50.0
    n_picos: int = 28
    max_place_attempts: int = 10_000


@dataclass(frozen=True)
class UsersConfig:
    total: int = 1000
    hotspot: int = 0
    activity_uniform: float = 0.4
    activity_hotspot: float = 0.8
    speed_min: float = 10.0
    speed_max: float = 20.0
    work_speed_min: float = 0.0
    work_speed_max: float = 2.0


@dataclass(frozen=True)
class WorkSchedule:
    """Work starts, in slots, and the slots each work interval lasts."""

    start_slots: tuple[int, ...] = (0, 42, 83)
    duration: int = 375


@dataclass(frozen=True)
class ThresholdPolicy:
    """t_deactivate = None selects the one-threshold rule."""

    t_activate: float
    t_deactivate: Optional[float] = None

    @property
    def t_sleep(self) -> float:
        """The count at or below which an Active pico sleeps.  Counts are
        integers, so the one-threshold rule (sleep when count < t_activate)
        is count <= ceil(t_activate) - 1; np.ceil, as math.ceil(inf) raises."""
        if self.t_deactivate is None:
            return np.ceil(self.t_activate) - 1.0
        return self.t_deactivate


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


@dataclass(frozen=True)
class PowerParams:
    """An active station draws sectors * (p0 + delta_p * p_max * min(n, cap)
    / cap) serving n users (engine.active_draw); the macro is never asleep."""

    sectors: int
    p_max_w: float       # max transmit power per sector
    p0_w: float          # fixed per-sector draw while active
    delta_p: float       # slope of the load-dependent part
    user_capacity: int   # load saturates here


@dataclass(frozen=True)
class PicoPowerParams(PowerParams):
    """A station that also sleeps, the pico."""

    p_sleep_w: float     # per-sector draw in Sleep and Boot


MACRO_POWER = PowerParams(sectors=3, p_max_w=40.0, p0_w=260.0, delta_p=4.75,
                          user_capacity=1000)
PICO_POWER = PicoPowerParams(sectors=1, p_max_w=0.25, p0_w=13.6, delta_p=4.0,
                             user_capacity=50, p_sleep_w=8.6)


@dataclass(frozen=True)
class PowerConfig:
    """The macro never sleeps; only the pico has a sleep floor."""

    macro: PowerParams = MACRO_POWER
    pico: PicoPowerParams = PICO_POWER


DEFAULT_POLICY = ThresholdPolicy(t_activate=9.0, t_deactivate=4.0)


@dataclass(frozen=True)
class Scenario:
    """A whole scenario; building one runs validate_scenario, so every
    Scenario holds valid values."""

    topology: str = "monet"
    seed: int = 1
    slots: int = 1
    realizations: int = 1
    boot_slots: int = 1
    layout: LayoutConfig = LayoutConfig()
    users: UsersConfig = UsersConfig()
    work: WorkSchedule = WorkSchedule()
    policy: ThresholdPolicy = DEFAULT_POLICY
    channel: ChannelParams = ChannelParams()
    power: PowerConfig = PowerConfig()

    def __post_init__(self):
        validate_scenario(self)

    def serves_from_picos(self) -> bool:
        """Whether picos actually serve users (vs. only shaping them)."""
        return self.topology in ("coe", "udc")

    def geometry_kind(self) -> str:
        if self.topology == "monet":
            return "monet"
        if self.topology in ("coe", "monet_coe_users"):
            return "coe"
        return "udc"


def _coerce(value: Any, target: Any, path: str) -> Any:
    """Check/convert a YAML scalar (or list) against the field's default."""
    if isinstance(target, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(path, f"expected integer, got {value!r}")
        if not -2**63 <= value < 2**63:
            raise ValidationError(path, f"must fit in 64 bits, got {value!r}")
        return value
    if isinstance(target, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(path, f"expected number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isnan(value) or (math.isinf(value) and path not in INFINITE_OK):
            raise ValidationError(path, f"must be finite, got {value!r}")
        return value
    if isinstance(target, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(path, f"expected list, got {value!r}")
        # items take the type of the default's first item
        return tuple(_coerce(v, target[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(target, str):
        if not isinstance(value, str):
            raise ValidationError(path, f"expected string, got {value!r}")
        return value
    return value


def _build(cls: type, data: Any, path: str, proto: Any) -> Any:
    """Instantiate a frozen config dataclass, merging onto proto, strictly;
    path is the dotted path of data, "" for the whole document."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(path, f"expected mapping, got {data!r}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {name: getattr(proto, name) for name in field_names}
    for key, raw in data.items():
        keypath = f"{path}.{key}" if path else str(key)
        if key not in field_names:
            raise ValidationError(keypath, "unknown key")
        default_val = kwargs[key]
        if dataclasses.is_dataclass(default_val):
            kwargs[key] = _build(type(default_val), raw, keypath, default_val)
        elif raw is None and cls is ThresholdPolicy and key == "t_deactivate":
            kwargs[key] = None
        else:
            kwargs[key] = _coerce(raw, default_val, keypath)
    return cls(**kwargs)


def _document(source: str | dict) -> dict:
    """The raw mapping of a scenario document (YAML text or mapping)."""
    if isinstance(source, str):
        try:
            data = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed scenario document: {exc}") from exc
    else:
        data = source
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(
            f"scenario document must be a mapping, got {type(data).__name__}"
        )
    return data


def read_scenario_document(path: str | Path) -> dict:
    """The raw mapping of a scenario file, before overrides and validation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return _document(text)


def parse_scenario(source: str | dict) -> Scenario:
    """Parse and fully validate a scenario document (YAML text or mapping)."""
    return _build(Scenario, _document(source), "", Scenario())


def validate_scenario(s: Scenario) -> None:
    """Every rule on a scenario's values; the first one broken raises."""
    def err(path: str, msg: str):
        raise ValidationError(path, msg)

    W = s.work
    if not W.start_slots:
        err("work.start_slots", "must hold at least one slot")
    if min(W.start_slots) < 0:
        err("work.start_slots", "must be non-negative")
    if list(W.start_slots) != sorted(set(W.start_slots)):
        err("work.start_slots", "must be strictly increasing")
    if W.duration < 1:
        err("work.duration", "must be at least 1 slot")
    # mobility adds duration to the int64 start slots, so the sum must fit
    if W.start_slots[-1] + W.duration >= 2**63:
        err("work.duration", "must keep the last work end slot below 2**63, "
            f"got {W.start_slots[-1]} + {W.duration}")

    P = s.policy
    # .inf (never wake) passes; -.inf does not
    if not P.t_activate >= 0.0:
        err("policy.t_activate", f"must be >= 0, got {P.t_activate}")
    if P.t_deactivate is not None and P.t_deactivate >= P.t_activate:
        err("policy.t_deactivate", "must be strictly below t_activate "
            f"(got {P.t_deactivate} >= {P.t_activate})")

    if s.topology not in TOPOLOGY_KINDS:
        err("topology", f"must be one of {TOPOLOGY_KINDS}, got {s.topology!r}")
    if s.seed < 0:
        err("seed", "must be a non-negative integer")
    if not 1 <= s.slots <= MAX_SLOTS:
        err("slots", f"must lie in [1, {MAX_SLOTS}]")
    if not 1 <= s.realizations <= MAX_SLOTS:
        err("realizations", f"must lie in [1, {MAX_SLOTS}]")
    if s.slots > 1 and s.realizations > 1:
        err("realizations",
            "multi-slot runs use a single realization (slots > 1 requires realizations = 1)")
    if s.boot_slots < 0:
        err("boot_slots", "must be >= 0")

    L = s.layout
    if not 0 < L.macro_radius_m <= MAX_MACRO_RADIUS_M:
        err("layout.macro_radius_m",
            f"must be in (0, {MAX_MACRO_RADIUS_M:g}] m, got {L.macro_radius_m!r}")
    if L.pico_radius_m <= 0:
        err("layout.pico_radius_m", "must be positive")
    if L.pico_radius_m >= L.macro_radius_m:
        err("layout.pico_radius_m", "must be smaller than macro_radius_m")
    if not 0 <= L.n_picos <= MAX_PICOS:
        err("layout.n_picos", f"must lie in [0, {MAX_PICOS}]")
    if not 1 <= L.max_place_attempts <= MAX_PLACE_ATTEMPTS:
        err("layout.max_place_attempts", f"must lie in [1, {MAX_PLACE_ATTEMPTS}]")

    U = s.users
    if not 1 <= U.total <= MAX_USERS:
        err("users.total", f"must lie in [1, {MAX_USERS}]")
    if not 0 <= U.hotspot <= U.total:
        err("users.hotspot", f"must lie in [0, {U.total}]")
    for name in ("activity_uniform", "activity_hotspot"):
        p = getattr(U, name)
        if not 0.0 <= p <= 1.0:
            err(f"users.{name}", "must be a probability in [0, 1]")
    if not 0.0 <= U.speed_min <= U.speed_max:
        err("users.speed_min", "need 0 <= speed_min <= speed_max")
    if not 0.0 <= U.work_speed_min <= U.work_speed_max:
        err("users.work_speed_min", "need 0 <= work_speed_min <= work_speed_max")
    if U.hotspot > 0:
        if s.topology == "monet":
            err("users.hotspot", "monet has no picos to assign hotspot users to")
        if L.n_picos < 1:
            err("users.hotspot", "need n_picos >= 1 for hotspot users")

    for name, (low, high, unit) in CHANNEL_RANGES.items():
        value = getattr(s.channel, name)
        if not low <= value <= high:
            err(f"channel.{name}", f"must be in [{low:g}, {high:g}] {unit}, got {value!r}")

    for path, P in (("power.macro", s.power.macro), ("power.pico", s.power.pico)):
        if P.sectors < 1:
            err(f"{path}.sectors", "must be >= 1")
        if P.p_max_w <= 0:
            err(f"{path}.p_max_w", "must be positive")
        for name in ("p0_w", "delta_p"):
            if getattr(P, name) < 0:
                err(f"{path}.{name}", "must be >= 0")
        if P.user_capacity < 1:
            err(f"{path}.user_capacity", "must be >= 1")
    if s.power.pico.p_sleep_w < 0:
        err("power.pico.p_sleep_w", "must be >= 0")


def scenario_to_dict(s: Scenario) -> dict:
    doc = dataclasses.asdict(s)
    doc["work"]["start_slots"] = list(s.work.start_slots)
    return doc


def serialize_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply `--set dotted.path=value` assignments onto a raw scenario dict.

    Values parse as YAML scalars (so `--set policy.t_deactivate=null` and
    `--set policy.t_activate=.inf` work).  Validation happens afterwards,
    when the merged dict goes through parse_scenario.
    """
    out = dict(data)
    for item in assignments:
        if "=" not in item:
            raise ValidationError(item, "override must look like key.path=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        parts = key.split(".")
        if not all(parts):
            raise ValidationError(item, "override key has an empty part")
        try:
            value = yaml.safe_load(raw) if raw.strip() else None
        except yaml.YAMLError as exc:
            raise ValidationError(key, f"bad override value {raw!r}: {exc}") from exc
        node = out
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
            elif isinstance(nxt, dict):
                nxt = dict(nxt)
            else:
                raise ValidationError(key, f"cannot descend into non-mapping {part!r}")
            node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out
