"""Shared domain model: sensor samples, alerts, actuator commands, configuration.

All timestamps are integer milliseconds on a virtual clock, so every run of the
same input is reproducible without wall-clock sleeps.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from operator import itemgetter, lt
from pathlib import Path

SMS_MAX_CHARS = 160
PHONE_PATTERN = re.compile(r"\+?[0-9]{7,15}")  # use with fullmatch


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


def _must_be_one_of(name: str, union) -> str:
    """'name must be a A, B or C' for the classes of union, in declared order."""
    *head, last = (cls.__name__ for cls in union.__args__)
    return f"{name} must be a {', '.join(head)} or {last}"


_PAYLOAD_TYPES = frozenset(Payload.__args__)
_PAYLOAD_TEXT = _must_be_one_of("payload", Payload)


@dataclass(frozen=True, slots=True)
class SensorEvent:
    t_ms: int
    payload: Payload

    def __post_init__(self):
        check_t_ms(self.t_ms)
        # exact: step dispatches on type(payload), so a subclass has no handler
        if type(self.payload) not in _PAYLOAD_TYPES:
            raise ContractViolation(f"{_PAYLOAD_TEXT}: {self.payload!r}")


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
_ACTION_TEXT = _must_be_one_of("action", Action)


@dataclass(frozen=True, slots=True)
class ActuatorCommand:
    t_ms: int
    action: Action

    def __post_init__(self):
        check_t_ms(self.t_ms)
        if type(self.action) not in Action.__args__:
            raise ContractViolation(f"{_ACTION_TEXT}: {self.action!r}")


# Each rule-checked field's contract, written once: (exact type, the other
# exact type taken, lowest, highest, error text), both ends inclusive. The
# constructors take an int or float subclass too (never a bool) and test a
# non-negative field, whose highest is _MAX, from below only; a non-number
# field by isinstance. The direct decoders take only the exact types; their
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


def _slot_setters(cls: type) -> tuple:
    """The __set__ of each field's slot descriptor, in declaration order.

    Each stores its field the way object.__setattr__ does in a frozen
    dataclass __init__, without looking the slot up by name on every call."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


# The direct decoders make the payload and the event the way a frozen
# dataclass __init__ does, object.__new__ then one store per field, but
# through the slot setters bound here and without __post_init__: every field
# has passed its rule's exact types and bounds from _FIELD_RULES. A field
# added to a class joins its rows below, or stops an unpacking here at import,
# so no direct build leaves a slot empty.
_new = object.__new__
_set_t_ms, _set_payload = _slot_setters(SensorEvent)
_set_lat_deg, _set_lon_deg = _slot_setters(GeoPoint)
_set_point, _set_speed_kph, _set_valid = _slot_setters(GpsFix)


def _rows(cls: type, *names: str) -> tuple:
    """(field, its slot setter, exact types and bounds) of each named field of cls."""
    setters = dict(zip(cls.__match_args__, _slot_setters(cls)))
    return tuple((name, setters[name], *_FIELD_RULES[name][:4]) for name in names)


# a one-field tag's row: (payload class, field, setter, exact types and bounds)
_ONE_FIELD = {tag: (cls, *row) for tag, cls in _SENSOR_TAGS.items()
              if len(cls.__match_args__) == 1 for row in _rows(cls, *cls.__match_args__)}
_GAS_ROWS = _rows(GasReading, *GasReading.__match_args__)
_POINT_ROWS = _rows(GeoPoint, *GeoPoint.__match_args__)
_FIX_ROWS = _rows(GpsFix, "speed_kph", "valid")  # and the point from _POINT_ROWS


def _filled(cls: type, rows: tuple, rec: dict):
    """A cls with each row's field from rec, or None once a value breaks its rule."""
    obj = _new(cls)
    for name, set_field, kind, also, lo, hi in rows:
        value = rec.get(name)
        if not ((type(value) is kind or type(value) is also) and lo <= value <= hi):
            return None
        set_field(obj, value)
    return obj


def event_from_record(rec: dict) -> SensorEvent:
    """Inverse of event_to_record; raises ContractViolation on bad shapes.

    A well-formed record is built directly. Any other record goes through
    _checked_event, so every error text comes from the checked constructors.
    In each direct path a missing key reads None, which no rule accepts, so a
    record of the right length whose values pass has exactly its tag's keys."""
    if type(rec) is dict:
        tag = rec.get("sensor")
        row = _ONE_FIELD.get(tag) if type(tag) is str else None
        if row is not None:
            cls, name, set_value, kind, also, lo, hi = row
            t_ms, value = rec.get("t_ms"), rec.get(name)
            if (len(rec) == 3 and type(t_ms) is int and t_ms >= 0
                    and (type(value) is kind or type(value) is also) and lo <= value <= hi):
                payload = _new(cls)
                set_value(payload, value)
                event = _new(SensorEvent)
                _set_t_ms(event, t_ms)
                _set_payload(event, payload)
                return event
        elif tag == "gps":
            t_ms = rec.get("t_ms")
            if (len(rec) == 6 and type(t_ms) is int and t_ms >= 0
                    and (point := _filled(GeoPoint, _POINT_ROWS, rec)) is not None
                    and (payload := _filled(GpsFix, _FIX_ROWS, rec)) is not None):
                _set_point(payload, point)
                event = _new(SensorEvent)
                _set_t_ms(event, t_ms)
                _set_payload(event, payload)
                return event
        elif tag == "gas":
            t_ms = rec.get("t_ms")
            if (len(rec) == 5 and type(t_ms) is int and t_ms >= 0
                    and (payload := _filled(GasReading, _GAS_ROWS, rec)) is not None):
                event = _new(SensorEvent)
                _set_t_ms(event, t_ms)
                _set_payload(event, payload)
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

# One rule per config field, as declared: its kind (the default's type), a
# test for a value of that kind, the bounds lo < value <= hi (None: none), the
# texts for a value not of the kind, at or below lo and above hi, and the rank
# of its kind in validate_config's report. A field with no row of its own
# takes its kind's: a finite int or float, an int, a phone number.
_Rule = namedtuple("_Rule", "kind is_kind lo hi kind_text lo_text hi_text rank")
_FLOAT = _Rule(float, _finite, 0.0, math.inf, "must be a finite number", "must be > 0", None, 0)
_INT = _Rule(int, lambda v: isinstance(v, int) and not isinstance(v, bool), 0, math.inf,
             "must be an integer", "must be > 0", None, 1)
_PHONE = _Rule(str, lambda v: isinstance(v, str) and PHONE_PATTERN.fullmatch(v) is not None,
               None, None, "must match +?[0-9]{7,15}", None, None, 3)
_CONFIG_RULES = {f.name: {float: _FLOAT, int: _INT, str: _PHONE}[type(f.default)]
                 for f in fields(ControllerConfig)} | {
    # MiCS-5524 detection ranges: ethanol is only readable between 10 and 500 ppm,
    # LPG-class gases only from about 1000 ppm upward.
    "ethanol_lockout_ppm": _FLOAT._replace(hi=500.0, hi_text="exceeds sensor range 500 ppm"),
    "crash_tilt_deg": _FLOAT._replace(hi=180.0, hi_text="must be <= 180"),
    "beacon_period_ms": _INT._replace(lo=59_999, lo_text="must be >= 60000"),
}
# (field, other field, predicate on their values, text), checked if both pass their rows
_CROSS_RULES = (("speed_hysteresis_kph", "speed_limit_kph", lt, "must be < speed_limit_kph"),
                ("sms_cooldown_ms", "beacon_period_ms", lt, "must be < beacon_period_ms"))
_KIND_TEXT = {int: "an integer", float: "a number", str: "a string"}


def validate_config(cfg: ControllerConfig) -> list[tuple[str, str]]:
    """Return every violated constraint as (field, reason); empty means valid."""
    bad = []  # (report key, field, reason)
    for name, r in _CONFIG_RULES.items():
        v = getattr(cfg, name)
        if not r.is_kind(v):
            bad.append(((r.rank, name), name, r.kind_text))
        elif r.lo is not None and not r.lo < v <= r.hi:
            # above hi ranks between the ints and the phones, kept as declared
            bad.append(((r.rank, name), name, r.lo_text) if v <= r.lo else ((2,), name, r.hi_text))
    failed = {name for _, name, _ in bad}
    bad += (((4,), a, text) for a, b, holds, text in _CROSS_RULES
            if a not in failed and b not in failed and not holds(getattr(cfg, a), getattr(cfg, b)))
    # the float fields by name, then the ints, the highs, the phones and the cross rules
    return [(name, why) for _, name, why in sorted(bad, key=itemgetter(0))]


def require_valid_config(cfg: ControllerConfig) -> ControllerConfig:
    violations = validate_config(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def apply_overrides(cfg: ControllerConfig, overrides: dict) -> ControllerConfig:
    """Overlay a key-value mapping onto cfg; unknown keys are a hard error."""
    coerced: dict = {}
    for key, value in overrides.items():
        if key not in _CONFIG_RULES:
            raise ValidationError([(key, "unknown config key")])
        kind = _CONFIG_RULES[key].kind
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValidationError([(key, f"must be {_KIND_TEXT[kind]}")])
        try:
            coerced[key] = kind(value)
        except OverflowError:  # an int too large for a float
            raise ValidationError([(key, "must be a finite number")]) from None
    # cfg is frozen, so with nothing to overlay it is its own result
    return dataclasses.replace(cfg, **coerced) if coerced else cfg


_ASCII_WHITESPACE = " \t\n\r\v\f"


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines ('#' starts a comment) into an override map."""
    if text.startswith("\ufeff"):
        raise ConfigError(1, "unexpected UTF-8 byte-order mark")
    overrides: dict = {}
    # only LF ends a line, as in scenario files: splitlines() would also break
    # a comment at U+2028 and the like. Only ASCII whitespace is stripped
    # (a stray CR included): str.strip() would also drop U+3000 or U+00A0
    # between a key and its '='
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_ASCII_WHITESPACE)
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip(_ASCII_WHITESPACE)
        value = value.strip(_ASCII_WHITESPACE)
        if key not in _CONFIG_RULES:
            raise ConfigError(line_no, f"unknown key {key!r}")
        kind = _CONFIG_RULES[key].kind
        try:
            # int() and float() also read "_" separators and non-ASCII digits
            if kind is not str and (not value.isascii() or "_" in value):
                raise ValueError(value)
            overrides[key] = kind(value)
        except ValueError:
            raise ConfigError(line_no, f"{key} must be {_KIND_TEXT[kind]}, got {value!r}") from None
    return overrides


def load_config_file(path: str | Path) -> ControllerConfig:
    """Read a key=value config file and return defaults overlaid with it."""
    text = Path(path).read_text(encoding="utf-8")
    return apply_overrides(DEFAULT_CONFIG, parse_config_text(text))
