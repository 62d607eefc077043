"""Shared domain model: sensor samples, alerts, actuator commands, configuration.

All timestamps are integer milliseconds on a virtual clock, so every run of the
same input is reproducible without wall-clock sleeps.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from functools import partial
from operator import itemgetter
from pathlib import Path

SMS_MAX_CHARS = 160
PHONE_PATTERN = re.compile(r"\+?[0-9]{7,15}")  # use with fullmatch

# MiCS-5524 detection ranges: ethanol is only readable between 10 and 500 ppm,
# LPG-class gases only from about 1000 ppm upward.
ETHANOL_SENSOR_MAX_PPM = 500.0


class ContractViolation(ValueError):
    """An argument or state violated a documented precondition or invariant."""


class ValidationError(ValueError):
    """Configuration rejected; carries every violation, not just the first."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{name}: {reason}" for name, reason in violations))


class ConfigError(ValueError):
    """A config file could not be parsed."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class VirtualClock:
    """Monotonic millisecond clock advanced explicitly by the harness."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    def now_ms(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ContractViolation("clock cannot move backwards")
        self._now += ms

    def advance_to(self, t_ms: int) -> None:
        # clamped, not strict: SMS drain may have pushed the clock past the
        # next event timestamp while waiting out modem timeouts
        self._now = max(self._now, t_ms)


class AlertKind(str, Enum):
    COLLISION = "collision"
    VEHICLE_PROXIMITY = "vehicle_proximity"
    ROAD_HAZARD = "road_hazard"
    ALCOHOL_LOCKOUT = "alcohol_lockout"
    GAS_LEAK = "gas_leak"
    OVERSPEED = "overspeed"
    CRASH = "crash"
    OVERTAKE_UNSAFE = "overtake_unsafe"
    THEFT = "theft"
    BEACON = "beacon"
    UNDERVOLTAGE = "undervoltage"


class Severity(IntEnum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def label(self) -> str:
        return self.name.lower()


_SEVERITY_TABLE = {
    AlertKind.CRASH: Severity.HIGH,
    AlertKind.COLLISION: Severity.HIGH,
    AlertKind.THEFT: Severity.HIGH,
    AlertKind.ALCOHOL_LOCKOUT: Severity.HIGH,
    AlertKind.GAS_LEAK: Severity.HIGH,
    AlertKind.OVERSPEED: Severity.MEDIUM,
    AlertKind.VEHICLE_PROXIMITY: Severity.MEDIUM,
    AlertKind.OVERTAKE_UNSAFE: Severity.MEDIUM,
    AlertKind.ROAD_HAZARD: Severity.LOW,
    AlertKind.BEACON: Severity.LOW,
    AlertKind.UNDERVOLTAGE: Severity.LOW,
}


def severity_of(kind: AlertKind) -> Severity:
    """Fixed kind-to-severity mapping; see README for the rationale."""
    return _SEVERITY_TABLE[kind]


def _finite(x: float) -> bool:
    """A non-bool int or float that is neither nan nor infinite."""
    if type(x) is float:
        return x - x == 0.0  # nan and +-inf give nan
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


class _RuleChecked:
    """Base of the records whose constructor tests every field against its row in _rows."""

    __slots__ = ()

    def __post_init__(self):
        for name, kind, _, lo, hi, text in self._rows:
            value = getattr(self, name)
            if kind is not float:
                ok = isinstance(value, kind)
            elif type(value) is float:  # the finite bounds reject nan and +-inf
                ok = lo <= value <= hi
            else:  # _finite rejects a bool and a non-number, and bounds the rest above
                ok = _finite(value) and (value >= lo if hi == _MAX else lo <= value <= hi)
            if not ok:
                raise ContractViolation(text.format(name, value))


@dataclass(frozen=True, slots=True)
class GeoPoint(_RuleChecked):
    lat_deg: float
    lon_deg: float


@dataclass(frozen=True, slots=True)
class LidarRange(_RuleChecked):
    range_m: float


@dataclass(frozen=True, slots=True)
class MagField(_RuleChecked):
    """Ambient magnetic field magnitude in microtesla."""

    b_ut: float


@dataclass(frozen=True, slots=True)
class PirMotion(_RuleChecked):
    detected: bool


@dataclass(frozen=True, slots=True)
class GasReading(_RuleChecked):
    ethanol_ppm: float
    co_ppm: float
    lpg_ppm: float


@dataclass(frozen=True, slots=True)
class Tilt(_RuleChecked):
    angle_deg: float


@dataclass(frozen=True, slots=True)
class GpsFix(_RuleChecked):
    point: GeoPoint
    speed_kph: float
    valid: bool


@dataclass(frozen=True, slots=True)
class Ignition(_RuleChecked):
    on: bool


@dataclass(frozen=True, slots=True)
class Auth(_RuleChecked):
    authorized: bool


@dataclass(frozen=True, slots=True)
class SupplyVoltage(_RuleChecked):
    volts: float


Payload = (LidarRange | MagField | PirMotion | GasReading | Tilt | GpsFix
           | Ignition | Auth | SupplyVoltage)


def check_t_ms(t_ms: int) -> None:
    """Reject a virtual-clock time that is not an exact non-negative int (no subclass)."""
    if not (type(t_ms) is int and t_ms >= 0):
        raise ContractViolation(f"t_ms must be a non-negative int: {t_ms!r}")


@dataclass(frozen=True, slots=True)
class SensorEvent:
    t_ms: int
    payload: Payload

    def __post_init__(self):
        check_t_ms(self.t_ms)


@dataclass(frozen=True, slots=True)
class Alert:
    t_ms: int
    kind: AlertKind
    severity: Severity
    message: str

    def __post_init__(self):
        check_t_ms(self.t_ms)
        if type(self.kind) is not AlertKind:
            raise ContractViolation(f"kind must be an AlertKind: {self.kind!r}")
        if type(self.severity) is not Severity:
            raise ContractViolation(f"severity must be a Severity: {self.severity!r}")
        if type(self.message) is not str:
            raise ContractViolation(f"message must be a str: {self.message!r}")


def truncate_sms(body: str) -> str:
    """Clip oversize message bodies to the 160-char SMS budget, marking the cut."""
    if len(body) <= SMS_MAX_CHARS:
        return body
    return body[: SMS_MAX_CHARS - 3] + "..."


@dataclass(frozen=True, slots=True)
class Buzzer(_RuleChecked):
    on: bool


@dataclass(frozen=True, slots=True)
class IgnitionInhibit(_RuleChecked):
    on: bool


@dataclass(frozen=True, slots=True)
class SolenoidLock(_RuleChecked):
    engaged: bool


@dataclass(frozen=True, slots=True)
class SmsSend:
    to: str
    body: str

    def __post_init__(self):
        if type(self.to) is not str or PHONE_PATTERN.fullmatch(self.to) is None:
            raise ContractViolation(f"bad phone number: {self.to!r}")
        if type(self.body) is not str:
            raise ContractViolation(f"body must be a str: {self.body!r}")
        # normalizing here, rather than validating, keeps every construction
        # path inside the length budget
        object.__setattr__(self, "body", truncate_sms(self.body))


Action = Buzzer | IgnitionInhibit | SolenoidLock | SmsSend


@dataclass(frozen=True, slots=True)
class ActuatorCommand:
    t_ms: int
    action: Action

    def __post_init__(self):
        check_t_ms(self.t_ms)
        if type(self.action) not in Action.__args__:
            raise ContractViolation(f"action must be a Buzzer, IgnitionInhibit, SolenoidLock "
                                    f"or SmsSend: {self.action!r}")


# Each rule-checked field's contract, written once: (exact type, the other
# exact type taken, lowest, highest, error text), both ends inclusive. The
# constructors take an int or float subclass too (never a bool) and test a
# non-negative field, whose highest is _MAX, from below only; a non-number
# field by isinstance. The direct decoder takes only the exact types; its
# lo <= x <= hi rejects nan, +-inf and an int too large for a float.
_MAX = sys.float_info.max
_NON_NEGATIVE = (float, int, 0.0, _MAX, "{} must be >= 0: {!r}")
_BOOL = (bool, bool, False, True, "{} must be a bool")
_RANGE = "{} out of range: {!r}"
_FIELD_RULES = {
    "range_m": _NON_NEGATIVE, "b_ut": _NON_NEGATIVE, "detected": _BOOL,
    "ethanol_ppm": _NON_NEGATIVE, "co_ppm": _NON_NEGATIVE, "lpg_ppm": _NON_NEGATIVE,
    "angle_deg": (float, int, 0.0, 180.0, _RANGE),
    "lat_deg": (float, int, -90.0, 90.0, _RANGE), "lon_deg": (float, int, -180.0, 180.0, _RANGE),
    "point": (GeoPoint, GeoPoint, None, None, "{} must be a GeoPoint"),
    "speed_kph": _NON_NEGATIVE, "valid": _BOOL,
    "on": _BOOL, "authorized": _BOOL, "volts": _NON_NEGATIVE, "engaged": _BOOL,
}
# each rule-checked class's fields with their rows, in declaration order
for _cls in (GeoPoint, *Payload.__args__, Buzzer, IgnitionInhibit, SolenoidLock):
    _cls._rows = tuple((name, *_FIELD_RULES[name]) for name in _cls.__match_args__)


# --- sensor event serialization -------------------------------------------

_SENSOR_TAGS: dict[str, type] = {
    "lidar": LidarRange,
    "mag": MagField,
    "pir": PirMotion,
    "gas": GasReading,
    "tilt": Tilt,
    "gps": GpsFix,
    "ignition": Ignition,
    "auth": Auth,
    "supply": SupplyVoltage,
}
_TAG_OF_TYPE = {cls: tag for tag, cls in _SENSOR_TAGS.items()}


def event_to_record(ev: SensorEvent) -> dict:
    """Flatten an event to the line-record shape used by scenario files."""
    rec: dict = {"t_ms": ev.t_ms, "sensor": _TAG_OF_TYPE[type(ev.payload)]}
    if isinstance(ev.payload, GpsFix):
        rec["lat_deg"] = ev.payload.point.lat_deg
        rec["lon_deg"] = ev.payload.point.lon_deg
        rec["speed_kph"] = ev.payload.speed_kph
        rec["valid"] = ev.payload.valid
    else:
        for f in fields(ev.payload):
            rec[f.name] = getattr(ev.payload, f.name)
    return rec


def _gps_from_fields(lat_deg: float, lon_deg: float, speed_kph: float, valid: bool) -> GpsFix:
    return GpsFix(GeoPoint(lat_deg, lon_deg), speed_kph, valid)


def _decoder(cls: type) -> tuple:
    """(constructor, record fields in constructor order, exact record key set,
    getter of the field values: a tuple for several fields, else the one value)."""
    if cls is GpsFix:
        build, names = _gps_from_fields, ("lat_deg", "lon_deg", "speed_kph", "valid")
    else:
        build, names = cls, tuple(f.name for f in fields(cls))
    return build, names, frozenset(names) | {"t_ms", "sensor"}, itemgetter(*names)


_DECODERS = {tag: _decoder(cls) for tag, cls in _SENSOR_TAGS.items()}

# A direct constructor makes each object the way a frozen dataclass __init__
# does, object.__new__ then object.__setattr__ per field in declaration order,
# and skips __post_init__. The records are slotted, so each field goes
# straight into its slot and the object is one allocation.
_new = object.__new__
_set = object.__setattr__


def _bare(cls: type, *values):
    """cls(*values) for a frozen dataclass, without __post_init__: only for
    values that already meet its contract."""
    obj = _new(cls)
    for name, value in zip(cls.__match_args__, values):
        _set(obj, name, value)
    return obj


def _bare_gps_from_fields(lat_deg: float, lon_deg: float, speed_kph: float,
                          valid: bool) -> GpsFix:
    point = _new(GeoPoint)
    _set(point, "lat_deg", lat_deg)
    _set(point, "lon_deg", lon_deg)
    fix = _new(GpsFix)
    _set(fix, "point", point)
    _set(fix, "speed_kph", speed_kph)
    _set(fix, "valid", valid)
    return fix


def _direct(build, names: tuple, keys: frozenset, values) -> Callable[[dict], SensorEvent | None]:
    """The direct constructor of one tag: the event of a dict record whose key
    set is `keys`, whose t_ms is an exact non-negative int and whose every
    field meets its _FIELD_RULES entry; None for any other record."""
    if len(names) == 1:  # all but gas and gps, so nearly every record: no loops
        (name,) = names
        kind, also, lo, hi, _ = _FIELD_RULES[name]

        def direct(rec: dict) -> SensorEvent | None:
            # a missing key reads None, which no rule accepts, so three keys
            # that pass are exactly "sensor", "t_ms" and `name`
            t_ms, value = rec.get("t_ms"), rec.get(name)
            if not (len(rec) == 3 and type(t_ms) is int and t_ms >= 0
                    and (type(value) is kind or type(value) is also) and lo <= value <= hi):
                return None
            payload = _new(build)
            _set(payload, name, value)
            event = _new(SensorEvent)
            _set(event, "t_ms", t_ms)
            _set(event, "payload", payload)
            return event
        return direct

    rules = tuple(_FIELD_RULES[n] for n in names)
    make = _bare_gps_from_fields if build is _gps_from_fields else partial(_bare, build)

    def direct(rec: dict) -> SensorEvent | None:
        if rec.keys() != keys:
            return None
        t_ms, field_values = rec["t_ms"], values(rec)
        if not (type(t_ms) is int and t_ms >= 0):
            return None
        for value, (kind, also, lo, hi, _) in zip(field_values, rules):
            if not ((type(value) is kind or type(value) is also) and lo <= value <= hi):
                return None
        event = _new(SensorEvent)
        _set(event, "t_ms", t_ms)
        _set(event, "payload", make(*field_values))
        return event
    return direct


_DIRECT = {tag: _direct(*decoder) for tag, decoder in _DECODERS.items()}


def event_from_record(rec: dict) -> SensorEvent:
    """Inverse of event_to_record; raises ContractViolation on bad shapes.

    A well-formed record is built by its tag's direct constructor. Any other
    record goes through _checked_event, so every error text comes from the
    checked constructors."""
    if type(rec) is dict:
        tag = rec.get("sensor")
        direct = _DIRECT.get(tag) if type(tag) is str else None
        if direct is not None:
            event = direct(rec)
            if event is not None:
                return event
    return _checked_event(rec)


def _checked_event(rec: dict) -> SensorEvent:
    """event_from_record through the checked constructors, for any record."""
    if not isinstance(rec, dict):
        raise ContractViolation("record must be an object")
    tag = rec.get("sensor")
    # the str check keeps an unhashable tag (a JSON list) out of the lookup
    decoder = _DECODERS.get(tag) if isinstance(tag, str) else None
    if decoder is None:
        raise ContractViolation(f"unknown sensor tag: {tag!r}")
    build, names, keys, values = decoder
    if rec.keys() != keys:
        missing = [name for name in names if name not in rec]
        if missing:
            raise ContractViolation(f"missing fields: {', '.join(missing)}")
        unexpected = sorted(rec.keys() - keys)
        if unexpected:
            raise ContractViolation(f"unexpected fields: {', '.join(unexpected)}")
    payload = build(*values(rec)) if len(names) > 1 else build(values(rec))
    return SensorEvent(rec.get("t_ms"), payload)


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ControllerConfig:
    ttc_warn_s: float = 2.0
    mag_deviation_ut: float = 5.0
    mag_persist_samples: int = 3
    mag_calib_samples: int = 20
    pir_speed_gate_kph: float = 10.0
    ethanol_lockout_ppm: float = 150.0
    lpg_leak_ppm: float = 1000.0
    speed_limit_kph: float = 80.0
    speed_hysteresis_kph: float = 5.0
    crash_tilt_deg: float = 60.0
    crash_hold_ms: int = 3000
    crash_speed_max_kph: float = 5.0
    geofence_radius_m: float = 15.0
    beacon_period_ms: int = 3_600_000
    preride_window_ms: int = 2000
    sms_cooldown_ms: int = 30_000
    undervoltage_v: float = 20.0
    owner_number: str = "+639171234567"
    police_number: str = "+639171117117"


DEFAULT_CONFIG = ControllerConfig()

# One kind per field, read from the declaration above: int and float fields
# are numeric limits, and every str field is a phone number.
_FIELD_KINDS: dict[str, type] = {f.name: type(f.default) for f in fields(ControllerConfig)}
_KIND_TEXT = {int: "an integer", float: "a number", str: "a string"}
# the fields of each kind in name order, the order validate_config reports them in
_FLOAT_FIELDS, _INT_FIELDS, _STR_FIELDS = (
    tuple(sorted(name for name, k in _FIELD_KINDS.items() if k is kind))
    for kind in (float, int, str))


def validate_config(cfg: ControllerConfig) -> list[tuple[str, str]]:
    """Return every violated constraint as (field, reason); empty means valid."""
    bad: list[tuple[str, str]] = []
    for name in _FLOAT_FIELDS:
        v = getattr(cfg, name)
        if not _finite(v):
            bad.append((name, "must be a finite number"))
        elif v <= 0:
            bad.append((name, "must be > 0"))
    for name in _INT_FIELDS:
        v = getattr(cfg, name)
        if not isinstance(v, int) or isinstance(v, bool):
            bad.append((name, "must be an integer"))
        elif name == "beacon_period_ms":
            if v < 60_000:
                bad.append((name, "must be >= 60000"))
        elif v <= 0:
            bad.append((name, "must be > 0"))
    if _finite(cfg.ethanol_lockout_ppm) and cfg.ethanol_lockout_ppm > ETHANOL_SENSOR_MAX_PPM:
        bad.append(("ethanol_lockout_ppm", "exceeds sensor range 500 ppm"))
    if _finite(cfg.crash_tilt_deg) and cfg.crash_tilt_deg > 180.0:
        bad.append(("crash_tilt_deg", "must be <= 180"))
    for name in _STR_FIELDS:
        v = getattr(cfg, name)
        if not isinstance(v, str) or PHONE_PATTERN.fullmatch(v) is None:
            bad.append((name, "must match +?[0-9]{7,15}"))
    return bad


def require_valid_config(cfg: ControllerConfig) -> ControllerConfig:
    violations = validate_config(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def apply_overrides(cfg: ControllerConfig, overrides: dict) -> ControllerConfig:
    """Overlay a key-value mapping onto cfg; unknown keys are a hard error."""
    coerced: dict = {}
    for key, value in overrides.items():
        kind = _FIELD_KINDS.get(key)
        if kind is None:
            raise ValidationError([(key, "unknown config key")])
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValidationError([(key, f"must be {_KIND_TEXT[kind]}")])
        try:
            coerced[key] = kind(value)
        except OverflowError:  # an int too large for a float
            raise ValidationError([(key, "must be a finite number")]) from None
    # cfg is frozen, so with nothing to overlay it is its own result
    return dataclasses.replace(cfg, **coerced) if coerced else cfg


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines ('#' starts a comment) into an override map."""
    overrides: dict = {}
    # only LF ends a line, as in scenario files: splitlines() would also break
    # a comment at U+2028 and the like; strip() below drops a stray CR
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _FIELD_KINDS.get(key)
        if kind is None:
            raise ConfigError(line_no, f"unknown key {key!r}")
        try:
            overrides[key] = kind(value)
        except ValueError:
            raise ConfigError(line_no, f"{key} must be {_KIND_TEXT[kind]}, got {value!r}") from None
    return overrides


def load_config_file(path: str | Path) -> ControllerConfig:
    """Read a key=value config file and return defaults overlaid with it."""
    text = Path(path).read_text(encoding="utf-8")
    return apply_overrides(DEFAULT_CONFIG, parse_config_text(text))
