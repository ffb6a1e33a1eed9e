"""Scenario configuration: YAML parsing, strict validation, serialization.

A scenario document is a nested mapping whose keys mirror the dataclass
fields below; every omitted key falls back to the defaults (the standard
experiment: 1000 users, 28 picos of 50 m in a 500 m macro cell, 20 MHz,
two-threshold control at 9/4).  Section values merge field-by-field onto
the defaults, so `policy: {t_activate: 12}` keeps t_deactivate at 4; a
one-threshold policy needs an explicit `t_deactivate: null`.  Unknown keys
anywhere are hard errors, reported with their dotted path.  `.inf` is a
valid t_activate (never wake).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .channel import ChannelParams, FreeSpaceParams, FREESPACE_MACRO, FREESPACE_PICO
from .control import InvalidPolicy, ThresholdPolicy
from .mobility import MobilityError, MobilityParams, WorkSchedule
from .power import MACRO_POWER, PICO_POWER, PowerParams


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


TOPOLOGY_KINDS = ("monet", "coe", "udc", "monet_coe_users", "monet_udc_users")


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
class LegacyConfig:
    """Adaptive transmit-power accounting (older model); off by default."""

    enabled: bool = False
    macro: FreeSpaceParams = FREESPACE_MACRO
    pico: FreeSpaceParams = FREESPACE_PICO


DEFAULT_POLICY = ThresholdPolicy(t_activate=9.0, t_deactivate=4.0)


@dataclass(frozen=True)
class Scenario:
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
    power_macro: PowerParams = MACRO_POWER
    power_pico: PowerParams = PICO_POWER
    legacy: LegacyConfig = LegacyConfig()

    def mobility_params(self) -> MobilityParams:
        return MobilityParams(
            speed_min=self.users.speed_min,
            speed_max=self.users.speed_max,
            work_speed_min=self.users.work_speed_min,
            work_speed_max=self.users.work_speed_max,
        )

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
    if isinstance(target, bool):
        if not isinstance(value, bool):
            raise ValidationError(path, f"expected boolean, got {value!r}")
        return value
    if isinstance(target, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(path, f"expected integer, got {value!r}")
        return value
    if isinstance(target, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(path, f"expected number, got {value!r}")
        return float(value)
    if isinstance(target, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(path, f"expected list, got {value!r}")
        return tuple(value)
    if isinstance(target, str):
        if not isinstance(value, str):
            raise ValidationError(path, f"expected string, got {value!r}")
        return value
    return value


def _build(cls: type, data: Any, path: str, proto: Any) -> Any:
    """Instantiate a frozen config dataclass, merging onto proto, strictly."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(path, f"expected mapping, got {data!r}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {name: getattr(proto, name) for name in field_names}
    for key, raw in data.items():
        if key not in field_names:
            raise ValidationError(f"{path}.{key}", "unknown key")
        keypath = f"{path}.{key}"
        default_val = kwargs[key]
        if dataclasses.is_dataclass(default_val):
            kwargs[key] = _build(type(default_val), raw, keypath, default_val)
        elif raw is None and cls is ThresholdPolicy and key == "t_deactivate":
            kwargs[key] = None
        elif default_val is None:  # Optional numeric slot (t_deactivate)
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ValidationError(keypath, f"expected number, got {raw!r}")
            kwargs[key] = float(raw)
        else:
            kwargs[key] = _coerce(raw, default_val, keypath)
    try:
        return cls(**kwargs)
    except (InvalidPolicy, MobilityError, ValueError, TypeError) as exc:
        raise ValidationError(path, str(exc)) from exc


_SECTION_PROTOS = {
    "layout": LayoutConfig(),
    "users": UsersConfig(),
    "work": WorkSchedule(),
    "policy": DEFAULT_POLICY,
    "channel": ChannelParams(),
    "legacy": LegacyConfig(),
}


def _document(source: str | dict) -> dict:
    """The raw mapping of a scenario document (YAML text or mapping)."""
    if isinstance(source, str):
        try:
            data = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise ParseError(f"malformed scenario document: {exc}") from exc
    else:
        data = source
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ParseError(
            f"scenario document must be a mapping, got {type(data).__name__}"
        )
    return data


def read_scenario_document(path: str | Path) -> dict:
    """The raw mapping of a scenario file, before overrides and validation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    return _document(text)


def parse_scenario(source: str | dict) -> Scenario:
    """Parse and fully validate a scenario document (YAML text or mapping)."""
    data = _document(source)
    known_top = {
        "topology", "seed", "slots", "realizations", "boot_slots",
        "layout", "users", "work", "policy", "channel", "power", "legacy",
    }
    for key in data:
        if key not in known_top:
            raise ValidationError(key, "unknown key")

    proto = Scenario()
    kwargs: dict[str, Any] = {}
    for key in ("topology", "seed", "slots", "realizations", "boot_slots"):
        if key in data:
            kwargs[key] = _coerce(data[key], getattr(proto, key), key)
    for key, section_proto in _SECTION_PROTOS.items():
        if key in data:
            kwargs[key] = _build(type(section_proto), data[key], key, section_proto)
    if "power" in data:
        pdata = data["power"]
        if pdata is None:
            pdata = {}
        if not isinstance(pdata, dict):
            raise ValidationError("power", f"expected mapping, got {pdata!r}")
        for key in pdata:
            if key not in ("macro", "pico"):
                raise ValidationError(f"power.{key}", "unknown key")
        if "macro" in pdata:
            kwargs["power_macro"] = _build(
                PowerParams, pdata["macro"], "power.macro", MACRO_POWER
            )
        if "pico" in pdata:
            kwargs["power_pico"] = _build(
                PowerParams, pdata["pico"], "power.pico", PICO_POWER
            )
    scenario = Scenario(**kwargs)
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    def err(path: str, msg: str):
        raise ValidationError(path, msg)

    if s.topology not in TOPOLOGY_KINDS:
        err("topology", f"must be one of {TOPOLOGY_KINDS}, got {s.topology!r}")
    if s.seed < 0:
        err("seed", "must be a non-negative integer")
    if s.slots < 1:
        err("slots", "must be >= 1")
    if s.realizations < 1:
        err("realizations", "must be >= 1")
    if s.slots > 1 and s.realizations > 1:
        err("realizations",
            "multi-slot runs use a single realization (slots > 1 requires realizations = 1)")
    if s.boot_slots < 0:
        err("boot_slots", "must be >= 0")

    L = s.layout
    if L.macro_radius_m <= 0 or L.pico_radius_m <= 0:
        err("layout", "radii must be positive")
    if L.pico_radius_m >= L.macro_radius_m:
        err("layout.pico_radius_m", "must be smaller than macro_radius_m")
    if L.n_picos < 0:
        err("layout.n_picos", "must be >= 0")
    if L.max_place_attempts < 1:
        err("layout.max_place_attempts", "must be >= 1")

    U = s.users
    if U.total < 1:
        err("users.total", "must be >= 1")
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

    C = s.channel
    if C.bandwidth_hz <= 0:
        err("channel.bandwidth_hz", "must be positive")
    if C.temperature_k <= 0:
        err("channel.temperature_k", "must be positive")
    if C.min_distance_m <= 0:
        err("channel.min_distance_m", "must be positive")
    if C.macro_shadow_sigma_db < 0 or C.pico_shadow_sigma_db < 0:
        err("channel", "shadow sigmas must be >= 0")

    for path, P in (("power.macro", s.power_macro), ("power.pico", s.power_pico)):
        if P.sectors < 1:
            err(f"{path}.sectors", "must be >= 1")
        if P.p_max_w <= 0:
            err(f"{path}.p_max_w", "must be positive")
        if P.p0_w < 0 or P.p_sleep_w < 0:
            err(path, "p0_w and p_sleep_w must be >= 0")
        if P.user_capacity < 1:
            err(f"{path}.user_capacity", "must be >= 1")

    for path, F in (("legacy.macro", s.legacy.macro), ("legacy.pico", s.legacy.pico)):
        if F.alpha <= 0 or F.beta <= 0:
            err(path, "alpha and beta must be positive")
        if F.g <= 0 or F.k <= 0:
            err(path, "g and k must be positive")
        if F.p0_w <= 0 or F.p_max_w <= 0:
            err(path, "p0_w and p_max_w must be positive")


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "topology": s.topology,
        "seed": s.seed,
        "slots": s.slots,
        "realizations": s.realizations,
        "boot_slots": s.boot_slots,
        "layout": dataclasses.asdict(s.layout),
        "users": dataclasses.asdict(s.users),
        "work": {"start_slots": list(s.work.start_slots), "duration": s.work.duration},
        "policy": dataclasses.asdict(s.policy),
        "channel": dataclasses.asdict(s.channel),
        "power": {
            "macro": dataclasses.asdict(s.power_macro),
            "pico": dataclasses.asdict(s.power_pico),
        },
        "legacy": dataclasses.asdict(s.legacy),
    }


def serialize_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def load_scenario_file(path: str | Path) -> Scenario:
    return parse_scenario(read_scenario_document(path))


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
        if not key:
            raise ValidationError(item, "override has an empty key")
        try:
            value = yaml.safe_load(raw) if raw.strip() else None
        except yaml.YAMLError as exc:
            raise ParseError(f"bad override value {raw!r}: {exc}") from exc
        parts = key.split(".")
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
