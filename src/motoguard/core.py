"""Shared domain model: sensor samples, alerts, actuator commands, configuration.

All timestamps are integer milliseconds on a virtual clock, so every run of the
same input is reproducible without wall-clock sleeps.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from enum import Enum, IntEnum
from operator import eq, itemgetter, lt
from pathlib import Path
from reprlib import recursive_repr

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
        # clamped, not strict: bringing the clock up to a time it has already
        # reached leaves it where it is
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
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


# a field default made fresh for each record by calling make(), as
# dataclasses.field(default_factory=make) does
factory = namedtuple("factory", "make")
_FACTORY = object()  # the default of a field whose default comes from a factory
_new = object.__new__


def _stores(values: list) -> str:
    """Source lines storing each value through the setter of its position."""
    return "".join(f"\n _s{i}(self, {value})" for i, value in enumerate(values))


def _record_functions(cls: type, defaults: dict) -> tuple:
    """The three functions of cls that one exec makes, each with its fields in
    order: __init__, whose parameters keep the fields' defaults, stores every
    field through the setter table and then runs __post_init__ where cls has
    one; _unchecked(*fields) makes a cls the same way but without
    __post_init__; and _values() gives the fields as a tuple."""
    names = cls.__match_args__
    env = {"_FACTORY": _FACTORY, "_new": _new, "_cls": cls}
    params, values = list(names), list(names)
    for i, name in enumerate(names):
        env[f"_s{i}"] = cls._setters[i]
        if name in defaults:
            default = env[f"_d{i}"] = defaults[name]
            if type(default) is factory:
                env[f"_d{i}"], env[f"_f{i}"] = _FACTORY, default.make
                values[i] = f"_f{i}() if {name} is _FACTORY else {name}"
            params[i] += f"=_d{i}"
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {', '.join(params)}):{_stores(values)}{post}\n"
         f"def _unchecked({', '.join(names)}):\n self = _new(_cls){_stores(names)}\n return self\n"
         f"def _values(self):\n return ({''.join(f'self.{name}, ' for name in names)})", env)
    functions = env["__init__"], env["_unchecked"], env["_values"]
    for function in functions:
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
    return functions


class _RecordType(type):
    """Turns the annotated fields of a Record subclass's body into its
    __slots__ and __match_args__, and gives the class its setter table,
    _setters (each field slot's __set__, in order), and the functions
    _record_functions makes."""

    def __new__(mcls, name: str, bases: tuple, ns: dict):
        names = tuple(ns.get("__annotations__", ()))
        if not names:  # Record itself, or a subclass that adds no field
            return super().__new__(mcls, name, bases, ns)
        defaults = {field: ns.pop(field) for field in names if field in ns}
        ns.update(__slots__=names, __match_args__=names)
        cls = super().__new__(mcls, name, bases, ns)
        cls._setters = tuple(vars(cls)[field].__set__ for field in names)
        cls.__init__, unchecked, cls._values = _record_functions(cls, defaults)
        cls._unchecked = staticmethod(unchecked)
        return cls


# dataclasses compare two records' fields as tuples before Python 3.13, in
# which an identical nan equals itself, and from 3.13 on a record equals
# itself and any other compares its fields one by one
_fields_equal = ((lambda a, b: a is b or all(map(eq, a._values(), b._values())))
                 if sys.version_info >= (3, 13) else lambda a, b: a._values() == b._values())


class Record(metaclass=_RecordType):
    """Base of the frozen records: each behaves as @dataclass(frozen=True,
    slots=True) would make it, with its methods written once here. Only
    __init__, _unchecked and _values are made per class, by one exec.

    A subclass declares its fields as annotations, with a default or a
    factory(make) where it has one; _RecordType makes the rest. Every field
    is stored through the class's setter table: by __init__, by __setstate__
    (copy and pickle), and by _unchecked and the scenario decoder's direct
    decoders, which store values that already pass the class's rules. The
    frozen error is the one dataclasses raises, imported only when it is raised."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return list(self._values())

    def __setstate__(self, state) -> None:
        for set_field, value in zip(self._setters, state):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _fields_equal(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with changes, made through __init__ as dataclasses.replace does:
        each field by position, changed or kept, and any other name by keyword."""
        fields = tuple(map(changes.pop, self.__match_args__, self._values()))
        return self.__class__(*fields, **changes)


class MutableRecord(Record):
    """Base of the mutable records: each behaves as @dataclass(slots=True)
    would make it, with a weakref slot. Its fields can be set and deleted,
    and, as it defines __eq__, it is unhashable."""

    __slots__ = ("__weakref__",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class _RuleChecked(Record):
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


class GeoPoint(_RuleChecked):
    lat_deg: float
    lon_deg: float


class LidarRange(_RuleChecked):
    range_m: float


class MagField(_RuleChecked):
    """Ambient magnetic field magnitude in microtesla."""

    b_ut: float


class PirMotion(_RuleChecked):
    detected: bool


class GasReading(_RuleChecked):
    ethanol_ppm: float
    co_ppm: float
    lpg_ppm: float


class Tilt(_RuleChecked):
    angle_deg: float


class GpsFix(_RuleChecked):
    point: GeoPoint
    speed_kph: float
    valid: bool


class Ignition(_RuleChecked):
    on: bool


class Auth(_RuleChecked):
    authorized: bool


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


class SensorEvent(Record):
    t_ms: int
    payload: Payload

    def __post_init__(self):
        check_t_ms(self.t_ms)
        # exact: step dispatches on type(payload), so a subclass has no handler
        if type(self.payload) not in _PAYLOAD_TYPES:
            raise ContractViolation(f"{_PAYLOAD_TEXT}: {self.payload!r}")


class Alert(Record):
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


class Buzzer(_RuleChecked):
    on: bool


class IgnitionInhibit(_RuleChecked):
    on: bool


class SolenoidLock(_RuleChecked):
    engaged: bool


def check_sms_body(body: str) -> None:
    """Reject a body a text-mode send cannot carry: a character outside ASCII,
    or Ctrl-Z (0x1A), which ends the body, or ESC (0x1B), which cancels the
    send. After a Ctrl-Z the modem reads the rest of the body as AT commands."""
    if not body.isascii():
        raise ContractViolation("body must be ASCII")
    if "\x1a" in body or "\x1b" in body:
        raise ContractViolation("body must not hold Ctrl-Z (0x1A) or ESC (0x1B)")


class SmsSend(Record):
    to: str
    body: str

    def __post_init__(self):
        if type(self.to) is not str or PHONE_PATTERN.fullmatch(self.to) is None:
            raise ContractViolation(f"bad phone number: {self.to!r}")
        if type(self.body) is not str:
            raise ContractViolation(f"body must be a str: {self.body!r}")
        check_sms_body(self.body)  # so that route never queues what the client refuses
        # normalizing here, rather than validating, keeps every construction
        # path inside the length budget
        object.__setattr__(self, "body", truncate_sms(self.body))


Action = Buzzer | IgnitionInhibit | SolenoidLock | SmsSend
_ACTION_TEXT = _must_be_one_of("action", Action)


class ActuatorCommand(Record):
    t_ms: int
    action: Action

    def __post_init__(self):
        check_t_ms(self.t_ms)
        if type(self.action) not in Action.__args__:
            raise ContractViolation(f"{_ACTION_TEXT}: {self.action!r}")


# Each rule-checked field's contract, written once: (exact type, the other
# exact type taken, lowest, highest, error text), both ends inclusive; a flag
# or a nested record has no bounds. The constructors take an int or float
# subclass too (never a bool) and test a non-negative field, whose highest is
# _MAX, from below only; a non-number field by isinstance. The direct
# decoders, made from these rules, take only the exact types; their
# lo <= x <= hi rejects nan, +-inf and an int too large for a float.
_MAX = sys.float_info.max
_NON_NEGATIVE = (float, int, 0.0, _MAX, "{} must be >= 0: {!r}")
_BOOL = (bool, bool, None, None, "{} must be a bool")
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
# each rule-checked class's fields in declaration order, each with its rule:
# what __post_init__ tests, and what the direct decoders are made from
for _cls in (GeoPoint, *Payload.__args__, Buzzer, IgnitionInhibit, SolenoidLock):
    _cls._rows = tuple((name, *_FIELD_RULES[name]) for name in _cls.__match_args__)
del _cls


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
        for name in ev.payload.__match_args__:
            rec[name] = getattr(ev.payload, name)
    return rec


def _gps_from_fields(lat_deg: float, lon_deg: float, speed_kph: float, valid: bool) -> GpsFix:
    return GpsFix(GeoPoint(lat_deg, lon_deg), speed_kph, valid)


def _decoder(cls: type) -> tuple:
    """(direct decoder, constructor, record fields in constructor order, exact
    record key set, getter of the field values: a tuple for several fields,
    else the one value).

    One exec makes the direct decoder from cls's rows. It reads t_ms and each
    field with rec.get, a nested record's fields (a fix's point) in its place,
    and tests the key count and each field's exact types and bounds. If all
    pass, it stores the values through the setter tables into new objects,
    the event last, without __post_init__; otherwise it returns None. A
    missing key reads None, which no rule accepts, so a record of the right
    length whose values pass has exactly its tag's keys."""
    env, names, tests, stores = {"_new": _new}, [], [], []

    def store(cls: type, var: str) -> None:  # var = a new cls, each field from its local
        env[cls.__name__] = cls
        env.update((f"_{cls.__name__}{i}", s) for i, s in enumerate(cls._setters))
        stores.append(f"{var} = _new({cls.__name__})")
        stores.extend(f"_{cls.__name__}{i}({var}, {name})"
                      for i, name in enumerate(cls.__match_args__))

    def emit(cls: type, var: str) -> None:  # the tests and stores that make var a cls
        for name, kind, also, lo, hi, _ in cls._rows:
            if issubclass(kind, _RuleChecked):
                emit(kind, name)
                continue
            names.append(name)
            env[kind.__name__], env[also.__name__] = kind, also
            tests.append(f"(type({name}) is {kind.__name__} or type({name}) is {also.__name__})")
            if lo is not None:  # a float's repr reads back as the same float
                tests.append(f"{lo!r} <= {name} <= {hi!r}")
        store(cls, var)

    emit(cls, "payload")
    store(SensorEvent, "event")
    reads = ", ".join(f'rec.get("{name}")' for name in ("t_ms", *names))
    exec(f"def _decode_{cls.__name__}(rec):\n t_ms, {', '.join(names)}, = {reads}\n"
         f" if (len(rec) == {len(names) + 2} and type(t_ms) is int and t_ms >= 0\n"
         f"   and {' and '.join(tests)}):\n  {'; '.join(stores)}\n  return event", env)
    direct, names = env[f"_decode_{cls.__name__}"], tuple(names)
    build = _gps_from_fields if cls is GpsFix else cls
    return direct, build, names, frozenset(names) | {"t_ms", "sensor"}, itemgetter(*names)


# each tag's one row, for the direct and the checked decoder
_DECODERS = {tag: _decoder(cls) for tag, cls in _SENSOR_TAGS.items()}


def event_from_record(rec: dict) -> SensorEvent:
    """Inverse of event_to_record; raises ContractViolation on bad shapes.

    A well-formed record is built by its tag's direct decoder. Any other
    record goes through _checked_event, so every error text comes from the
    checked constructors."""
    if type(rec) is dict:
        tag = rec.get("sensor")
        row = _DECODERS.get(tag) if type(tag) is str else None
        if row is not None and (event := row[0](rec)) is not None:
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
    _, build, names, keys, values = decoder
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

class ControllerConfig(Record):
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
_CONFIG_RULES = {name: {float: _FLOAT, int: _INT, str: _PHONE}[type(default)]
                 for name, default in zip(ControllerConfig.__match_args__,
                                          DEFAULT_CONFIG._values())} | {
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


# proven once here, so a replay whose merged config is DEFAULT_CONFIG itself
# skips the check (harness.run)
require_valid_config(DEFAULT_CONFIG)


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
    return cfg._replace(**coerced) if coerced else cfg


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
