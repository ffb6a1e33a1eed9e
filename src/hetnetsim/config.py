"""Scenario configuration: the schema, YAML parsing, strict validation,
serialization.

This module defines every section of a scenario and imports nothing from
the package.  A scenario document is the Scenario dataclass tree below
written as a nested mapping: each key is a field, each section a nested
dataclass, and every omitted key falls back to the defaults (the standard
experiment: 1000 users, 28 picos of 50 m in a 500 m macro cell, 20 MHz,
two-threshold control at 9/4).  Section values merge field-by-field onto
the defaults, so `policy: {t_activate: 12}` keeps t_deactivate at 4; a
one-threshold policy needs an explicit `t_deactivate: null`.  Parsing only
converts YAML (an int in a float field becomes a float, a list a tuple)
and reports the document's structure: malformed YAML, a section that is
not a mapping, an unknown key, each with its dotted path.  Every value is
judged by validate_scenario, which a Scenario runs when it is built,
parsed or not: each field's type is read off its default, integers must
fit in 64 bits, numbers must be finite save the two policy thresholds
(INFINITE_OK), single keys lie in BOUNDS, and then the rules that span
several keys hold.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml


class ConfigError(Exception):
    """A scenario or command line that cannot run.  A message line keeps
    at most ECHO_CHARS characters from either end: the dotted path in
    front and the reason behind a huge echoed value stay."""

    ECHO_CHARS = 100

    def __init__(self, message: str):
        n = self.ECHO_CHARS
        super().__init__("\n".join(
            line if len(line) <= 2 * n else
            f"{line[:n]} ... ({len(line) - 2 * n} characters cut) ... {line[-n:]}"
            for line in message.split("\n")))


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

# the largest slots x realizations: the engine preallocates a slot column
# entry for each, and at ~0.6 s per 1000 paper-scale slots 10^6 take ~10 min
MAX_SLOTS = 1_000_000

# the largest layout.max_place_attempts: an unplaceable udc layout spends it all
MAX_PLACE_ATTEMPTS = 1_000_000

# every bound on a single key, by dotted path: (low, high, unit), ends
# included save in ABOVE_ZERO; high None sets no upper bound.  The keys of
# the link budget lie in physical ranges: far past them a link's capacity
# overflows to inf or rounds to 0 b/s.
BOUNDS = {
    "seed": (0, None, ""),
    "slots": (1, MAX_SLOTS, ""),
    "realizations": (1, MAX_SLOTS, ""),
    "boot_slots": (0, None, ""),
    "layout.macro_radius_m": (0.0, 1e5, "m"),
    "layout.pico_radius_m": (0.0, 1e5, "m"),
    "layout.n_picos": (0, MAX_PICOS, ""),
    "layout.max_place_attempts": (1, MAX_PLACE_ATTEMPTS, ""),
    "users.total": (1, MAX_USERS, ""),
    "users.activity_uniform": (0.0, 1.0, ""),
    "users.activity_hotspot": (0.0, 1.0, ""),
    "work.duration": (1, None, ""),
    "policy.t_activate": (0, None, ""),
    "channel.bandwidth_hz": (1e3, 1e11, "Hz"),
    "channel.temperature_k": (1.0, 1e5, "K"),
    "channel.macro_tx_dbm": (-100.0, 100.0, "dBm"),
    "channel.macro_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "channel.macro_shadow_sigma_db": (0.0, 50.0, "dB"),
    "channel.pico_tx_dbm": (-100.0, 100.0, "dBm"),
    "channel.pico_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "channel.pico_shadow_sigma_db": (0.0, 50.0, "dB"),
    "channel.ue_antenna_gain_dbi": (-50.0, 50.0, "dBi"),
    "channel.min_distance_m": (1e-3, 1e3, "m"),
    "power.macro.sectors": (1, None, ""),
    "power.macro.p_max_w": (0.0, None, "W"),
    "power.macro.p0_w": (0.0, None, "W"),
    "power.macro.delta_p": (0.0, None, ""),
    "power.macro.user_capacity": (1, None, ""),
    "power.pico.sectors": (1, None, ""),
    "power.pico.p_max_w": (0.0, None, "W"),
    "power.pico.p0_w": (0.0, None, "W"),
    "power.pico.delta_p": (0.0, None, ""),
    "power.pico.user_capacity": (1, None, ""),
    "power.pico.p_sleep_w": (0.0, None, "W"),
}
# the keys that must lie above their low end: a radius or transmit power of 0
ABOVE_ZERO = ("layout.macro_radius_m", "layout.pico_radius_m",
              "power.macro.p_max_w", "power.pico.p_max_w")


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


def _build(cls: type, data: Any, path: str, proto: Any) -> Any:
    """Instantiate a frozen config dataclass, merging the mapping data onto
    proto; path is the dotted path of data, "" for the whole document.  It
    only converts YAML values: validate_scenario judges them."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(path, f"expected mapping, got {data!r}")
    kwargs = {f.name: getattr(proto, f.name) for f in dataclasses.fields(cls)}
    for key, raw in data.items():
        keypath = f"{path}.{key}" if path else str(key)
        if key not in kwargs:
            raise ValidationError(keypath, "unknown key")
        default = kwargs[key]
        if dataclasses.is_dataclass(default):
            raw = _build(type(default), raw, keypath, default)
        elif isinstance(default, float) and type(raw) is int and abs(raw) <= sys.float_info.max:
            raw = float(raw)  # an int past the float range is left for the check
        elif isinstance(default, tuple) and isinstance(raw, list):
            raw = tuple(raw)
        kwargs[key] = raw
    return cls(**kwargs)


def _document(source: str | dict) -> dict:
    """The raw mapping of a scenario document (YAML text or mapping)."""
    if isinstance(source, str):
        try:
            data = yaml.safe_load(source)
        # ValueError: an int past Python's limit on digits in a string
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"malformed scenario document: {exc}") from exc
    else:
        data = source
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"scenario document must be a mapping, got {type(data).__name__}")
    return data


def read_scenario_document(path: str | Path) -> dict:
    """The raw mapping of a scenario file, before overrides and validation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return _document(text)


def parse_scenario(source: str | dict) -> Scenario:
    """Parse and fully validate a scenario document (YAML text or mapping)."""
    return _build(Scenario, _document(source), "", DEFAULT_SCENARIO)


def _number(x: int | float) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


# by the type of a field's default: its name in messages and the Python
# types its values take (a bool is never a number here)
_KINDS = {str: ("string", str), tuple: ("tuple", tuple), int: ("integer", int),
          float: ("number", (int, float))}


def _check_field(value: Any, default: Any, path: str) -> None:
    """Check value against the type of default, a field's default, and
    against BOUNDS[path]; a section is checked field by field, unless it
    is the default object itself (defaults are frozen constants)."""
    kind = _KINDS.get(type(default))
    if kind is None:  # a section
        if value is default:
            return
        if not isinstance(value, type(default)):
            raise ValidationError(path, f"expected {type(default).__name__}, got {value!r}")
        for f in dataclasses.fields(default):
            _check_field(getattr(value, f.name), getattr(default, f.name), f"{path}.{f.name}")
        return
    if value is None and path == "policy.t_deactivate":
        return
    name, types = kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(path, f"expected {name}, got {value!r}")
    if isinstance(default, tuple):
        # items take the type of the default's first item
        for i, item in enumerate(value):
            _check_field(item, default[0], f"{path}[{i}]")
    elif isinstance(default, int) and not -2**63 <= value < 2**63:
        raise ValidationError(path, f"must fit in 64 bits, got {value!r}")
    elif isinstance(default, float) and not (
            abs(value) <= sys.float_info.max or path in INFINITE_OK and abs(value) == math.inf):
        # nan, and an int past the float range, fail both comparisons
        raise ValidationError(path, f"must be finite, got {value!r}")
    if path in BOUNDS:
        low, high, unit = BOUNDS[path]
        above = path in ABOVE_ZERO
        if value < low or (above and value == low) or (high is not None and value > high):
            text = (f"in {'(' if above else '['}{_number(low)}, {_number(high)}]"
                    if high is not None else f"{'>' if above else '>='} {_number(low)}")
            raise ValidationError(path, f"must be {text}{' ' * bool(unit)}{unit}, got {value!r}")


def validate_scenario(s: Scenario) -> None:
    """Every rule on a scenario's values; the first one broken raises.
    Each field is checked on its own first, in schema order, then the
    rules that span several keys."""
    for f in dataclasses.fields(Scenario):
        _check_field(getattr(s, f.name), f.default, f.name)

    W = s.work
    if not W.start_slots:
        raise ValidationError("work.start_slots", "must hold at least one slot")
    if min(W.start_slots) < 0:
        raise ValidationError("work.start_slots", "must be non-negative")
    if list(W.start_slots) != sorted(set(W.start_slots)):
        raise ValidationError("work.start_slots", "must be strictly increasing")
    # mobility adds duration to the int64 start slots, so the sum must fit
    if W.start_slots[-1] + W.duration >= 2**63:
        raise ValidationError("work.duration", "must keep the last work end slot below "
                              f"2**63, got {W.start_slots[-1]} + {W.duration}")

    P = s.policy
    if P.t_deactivate is not None and P.t_deactivate >= P.t_activate:
        raise ValidationError("policy.t_deactivate", "must be strictly below t_activate "
                              f"(got {P.t_deactivate} >= {P.t_activate})")

    if s.topology not in TOPOLOGY_KINDS:
        raise ValidationError("topology", f"must be one of {TOPOLOGY_KINDS}, got {s.topology!r}")
    if s.slots * s.realizations > MAX_SLOTS:
        raise ValidationError("realizations", f"slots x realizations must be at most "
                              f"{MAX_SLOTS}, got {s.slots} x {s.realizations}")

    L, U = s.layout, s.users
    if L.pico_radius_m >= L.macro_radius_m:
        raise ValidationError("layout.pico_radius_m", "must be smaller than macro_radius_m")
    if not 0 <= U.hotspot <= U.total:
        raise ValidationError("users.hotspot", f"must be in [0, {U.total}], got {U.hotspot}")
    if not 0.0 <= U.speed_min <= U.speed_max:
        raise ValidationError("users.speed_min", "need 0 <= speed_min <= speed_max")
    if not 0.0 <= U.work_speed_min <= U.work_speed_max:
        raise ValidationError("users.work_speed_min", "need 0 <= work_speed_min <= work_speed_max")
    if U.hotspot > 0:
        if s.topology == "monet":
            raise ValidationError("users.hotspot", "monet has no picos to assign hotspot users to")
        if L.n_picos < 1:
            raise ValidationError("users.hotspot", "need n_picos >= 1 for hotspot users")


DEFAULT_SCENARIO = Scenario()


def scenario_to_dict(s: Scenario) -> dict:
    doc = dataclasses.asdict(s)
    doc["work"]["start_slots"] = list(s.work.start_slots)
    return doc


def serialize_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def set_path(data: dict, key: str, value: Any) -> dict:
    """A copy of the raw scenario dict data with the dotted key set to
    value; the mappings on the key's path are copied, so data is not
    changed.  Validation happens afterwards, in parse_scenario."""
    parts = key.split(".")
    if not all(parts):
        raise ValidationError(repr(key), "dotted key has an empty part")
    out = node = dict(data)
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


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply `--set dotted.path=value` assignments onto a raw scenario dict.

    Values parse as YAML scalars (so `--set policy.t_deactivate=null` and
    `--set policy.t_activate=.inf` work).  Validation happens afterwards,
    when the merged dict goes through parse_scenario.
    """
    for item in assignments:
        if "=" not in item:
            raise ValidationError(item, "override must look like key.path=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            value = yaml.safe_load(raw) if raw.strip() else None
        # ValueError: an int past Python's limit on digits in a string
        except (yaml.YAMLError, ValueError) as exc:
            raise ValidationError(key, f"bad override value {raw!r}: {exc}") from exc
        data = set_path(data, key, value)
    return data
