"""Brute-force reference implementations the tests compare the package with.

Each detector oracle recomputes the expected trigger positions from the
whole trace at once, with no incremental state, so a disagreement points at
the package's state machines rather than at a shared bug. The matcher,
decoding and log serializer oracles are the plain, slower forms of the
package's fast paths, and the replay oracle is the loop that copies the
controller state at every step.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import attrgetter, itemgetter, xor

from motoguard.controller import ControllerState, Mode, drain_sms, step
from motoguard.core import (DEFAULT_CONFIG, PHONE_PATTERN,
                            ActuatorCommand, Alert, AlertKind, Auth, Buzzer, ContractViolation,
                            ControllerConfig, GasReading, GeoPoint, GpsFix, Ignition,
                            IgnitionInhibit, LidarRange, MagField, PirMotion, SensorEvent,
                            SmsSend, SolenoidLock, SupplyVoltage, Tilt, ValidationError,
                            VirtualClock, apply_overrides, event_from_record, _finite,
                            require_valid_config)
from motoguard.detectors import haversine_m
from motoguard.gsm import FakeModem, ModemClient
from motoguard.harness import EventLog, LogRecord, ModeChange, Scenario, SchemaError
from motoguard.nmea import (MAX_SENTENCE_CHARS, ChecksumMismatch, MalformedNumber,
                            MissingField, ParseError, RmcData, UnsupportedSentence,
                            knots_to_kph)


def crash_trigger_times(samples: list[tuple[int, float, float]],
                        cfg: ControllerConfig) -> list[int]:
    """Expected crash trigger timestamps for (t_ms, tilt_deg, speed_kph) samples.

    One trigger per maximal run of samples satisfying both gates, at the first
    sample whose age within the run reaches the hold time.
    """
    gate = [tilt >= cfg.crash_tilt_deg and speed <= cfg.crash_speed_max_kph
            for _, tilt, speed in samples]
    out: list[int] = []
    i = 0
    while i < len(samples):
        if not gate[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(samples) and gate[j + 1]:
            j += 1
        start_t = samples[i][0]
        for k in range(i, j + 1):
            if samples[k][0] - start_t >= cfg.crash_hold_ms:
                out.append(samples[k][0])
                break
        i = j + 1
    return out


def crash_any_window(samples: list[tuple[int, float, float]],
                     cfg: ControllerConfig) -> bool:
    """All-pairs check: does any fully-gated window span the hold time?"""
    gate = [tilt >= cfg.crash_tilt_deg and speed <= cfg.crash_speed_max_kph
            for _, tilt, speed in samples]
    for i in range(len(samples)):
        for j in range(i, len(samples)):
            if samples[j][0] - samples[i][0] >= cfg.crash_hold_ms \
                    and all(gate[i:j + 1]):
                return True
    return False


def overspeed_trigger_indices(speeds: list[float], cfg: ControllerConfig) -> list[int]:
    """Expected overspeed trigger positions for a speed trace."""
    out: list[int] = []
    above = False
    for idx, speed in enumerate(speeds):
        if above:
            if speed < cfg.speed_limit_kph - cfg.speed_hysteresis_kph:
                above = False
        elif speed > cfg.speed_limit_kph:
            above = True
            out.append(idx)
    return out


def mag_trigger_indices(samples: list[float], cfg: ControllerConfig) -> list[int]:
    """Expected proximity trigger positions for a field-magnitude trace."""
    if len(samples) < cfg.mag_calib_samples:
        return []
    baseline = sum(samples[:cfg.mag_calib_samples]) / cfg.mag_calib_samples
    out: list[int] = []
    streak = 0
    for idx in range(cfg.mag_calib_samples, len(samples)):
        if abs(samples[idx] - baseline) > cfg.mag_deviation_ut:
            streak += 1
            if streak == cfg.mag_persist_samples:
                out.append(idx)
        else:
            streak = 0
    return out


def breath_fails(ethanol_ppms: list[float], cfg: ControllerConfig) -> bool:
    """Expected outcome of the pre-ride breath rule: fail on the worst sample."""
    return any(ppm >= cfg.ethanol_lockout_ppm for ppm in ethanol_ppms)


def leak_fails(lpg_ppms: list[float], cfg: ControllerConfig) -> bool:
    """Expected outcome of the pre-ride leak rule: fail on the worst sample."""
    return any(ppm >= cfg.lpg_leak_ppm for ppm in lpg_ppms)


def theft_trigger_times(fixes: list[tuple[int, GpsFix, bool]],
                        cfg: ControllerConfig) -> list[tuple[AlertKind, int]]:
    """Expected (kind, t_ms) theft and beacon triggers for (t_ms, fix, ignition_on)
    samples of a rider who is never authorised, in time order.

    Invalid fixes are dropped first. The first remaining fix with the ignition
    off arms at its point and time t0. One THEFT fires at the first later fix
    farther than the radius from the armed point. Beacons fall due on whole
    periods from t0, at most one per fix, so the number sent by the i-th fix
    after arming is min(i, min over j <= i of (q_j + i - j)), where q_j is the
    count of whole periods from t0 to the j-th fix; a beacon fires wherever
    that number grows. A THEFT comes before a BEACON of the same fix.
    """
    valid = [sample for sample in fixes if sample[1].valid]
    arm = next((i for i, (_, _, ignition_on) in enumerate(valid) if not ignition_on), None)
    if arm is None:
        return []
    t0, home = valid[arm][0], valid[arm][1].point
    after = [(t, fix) for t, fix, _ in valid[arm + 1:]]
    breach = next((i for i, (_, fix) in enumerate(after, start=1)
                   if haversine_m(home, fix.point) > cfg.geofence_radius_m), None)
    periods = [(t - t0) // cfg.beacon_period_ms for t, _ in after]
    sent = [min([i] + [periods[j - 1] + i - j for j in range(1, i + 1)])
            for i in range(len(after) + 1)]
    out: list[tuple[AlertKind, int]] = []
    for i, (t, _) in enumerate(after, start=1):
        if i == breach:
            out.append((AlertKind.THEFT, t))
        if sent[i] > sent[i - 1]:
            out.append((AlertKind.BEACON, t))
    return out


def greedy_match(alerts: list, expected: list) -> tuple[tuple[int, int, int, int], list, list]:
    """Expected ((tp, tn, fp, fn), strays, missed) of the windowed label matcher.

    The quadratic reference: for each alert in input order, scan every
    positive window of its kind in (start, end, input position) order and
    take the first unmatched one that contains the alert.
    """
    positives = [lab for lab in expected if not lab.negative]
    order = sorted(range(len(positives)),
                   key=lambda i: (positives[i].start_ms, positives[i].end_ms, i))
    matched: set[int] = set()
    strays = []
    for alert in alerts:
        hit = next((i for i in order
                    if i not in matched and positives[i].kind is alert.kind
                    and positives[i].start_ms <= alert.t_ms <= positives[i].end_ms), None)
        if hit is None:
            strays.append(alert)
        else:
            matched.add(hit)
    missed = [lab for i, lab in enumerate(positives) if i not in matched]
    seen = {a.kind for a in alerts}
    tn = sum(1 for lab in expected if lab.negative and lab.kind not in seen)
    return (len(matched), tn, len(strays), len(missed)), strays, missed


def finite_reference(x) -> bool:
    """The original ``core._finite``: a non-bool int or float that is neither
    nan nor infinite. ``math.isfinite`` raises OverflowError on an int too
    large for a float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# --- configuration validation, as it was before the rule table: one
# hand-written loop per kind and three special cases, reporting floats by
# name, ints by name, the ethanol and tilt upper bounds, then phone numbers

ETHANOL_SENSOR_MAX_PPM = 500.0  # the sensor's range, once a core constant
_FIELD_KINDS: dict[str, type] = {name: type(getattr(DEFAULT_CONFIG, name))
                                 for name in ControllerConfig.__match_args__}
_FLOAT_FIELDS, _INT_FIELDS, _STR_FIELDS = (
    tuple(sorted(name for name, k in _FIELD_KINDS.items() if k is kind))
    for kind in (float, int, str))


def validate_config_reference(cfg: ControllerConfig) -> list[tuple[str, str]]:
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


def json_lines_reference(text: str) -> list:
    """Expected events of a scenario text, by json.loads per line.

    Raises SchemaError(line, reason) for the first line that is not JSON or
    whose record is not an event, with the reason loads_scenario gives.
    The first JSON line is the header; it is not checked, so callers give a
    valid one.
    """
    header = None
    events = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip(" \t\r"):  # JSON whitespace, less LF
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(line_no, f"invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise SchemaError(line_no, f"invalid JSON: {exc}") from None
        if header is None:
            header = obj
            continue
        try:
            events.append(event_from_record(obj))
        except ContractViolation as exc:
            raise SchemaError(line_no, str(exc)) from None
    return events


# --- the record decoder, as it was before the direct constructors: every record
# goes through the checked payload and SensorEvent constructors

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


def _gps_from_fields(lat_deg: float, lon_deg: float, speed_kph: float, valid: bool) -> GpsFix:
    return GpsFix(GeoPoint(lat_deg, lon_deg), speed_kph, valid)


def _decoder(cls: type) -> tuple:
    """(constructor, record fields in constructor order, exact record key set,
    getter of the field values: a tuple for several fields, else the one value)."""
    if cls is GpsFix:
        build, names = _gps_from_fields, ("lat_deg", "lon_deg", "speed_kph", "valid")
    else:
        build, names = cls, cls.__match_args__
    return build, names, frozenset(names) | {"t_ms", "sensor"}, itemgetter(*names)


_DECODERS = {tag: _decoder(cls) for tag, cls in _SENSOR_TAGS.items()}


def event_from_record_reference(rec: dict) -> SensorEvent:
    """Inverse of event_to_record; raises ContractViolation on bad shapes."""
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


# --- the payload constructors, as they were before the field-rule table: one
# hand-written __post_init__ per class. Each copy keeps its class's fields and
# check, so the same arguments must give the same fields or the same error.
# GpsFixReference tests its point against the package's GeoPoint.

@dataclass(frozen=True, slots=True)
class GeoPointReference:
    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not (_finite(self.lat_deg) and -90.0 <= self.lat_deg <= 90.0):
            raise ContractViolation(f"lat_deg out of range: {self.lat_deg!r}")
        if not (_finite(self.lon_deg) and -180.0 <= self.lon_deg <= 180.0):
            raise ContractViolation(f"lon_deg out of range: {self.lon_deg!r}")


@dataclass(frozen=True, slots=True)
class LidarRangeReference:
    range_m: float

    def __post_init__(self):
        if not (_finite(self.range_m) and self.range_m >= 0.0):
            raise ContractViolation(f"range_m must be >= 0: {self.range_m!r}")


@dataclass(frozen=True, slots=True)
class MagFieldReference:
    """Ambient magnetic field magnitude in microtesla."""

    b_ut: float

    def __post_init__(self):
        if not (_finite(self.b_ut) and self.b_ut >= 0.0):
            raise ContractViolation(f"b_ut must be >= 0: {self.b_ut!r}")


@dataclass(frozen=True, slots=True)
class PirMotionReference:
    detected: bool

    def __post_init__(self):
        if not isinstance(self.detected, bool):
            raise ContractViolation("detected must be a bool")


@dataclass(frozen=True, slots=True)
class GasReadingReference:
    ethanol_ppm: float
    co_ppm: float
    lpg_ppm: float

    def __post_init__(self):
        for name in ("ethanol_ppm", "co_ppm", "lpg_ppm"):
            v = getattr(self, name)
            if not (_finite(v) and v >= 0.0):
                raise ContractViolation(f"{name} must be >= 0: {v!r}")


@dataclass(frozen=True, slots=True)
class TiltReference:
    angle_deg: float

    def __post_init__(self):
        if not (_finite(self.angle_deg) and 0.0 <= self.angle_deg <= 180.0):
            raise ContractViolation(f"angle_deg out of range: {self.angle_deg!r}")


@dataclass(frozen=True, slots=True)
class GpsFixReference:
    point: GeoPoint
    speed_kph: float
    valid: bool

    def __post_init__(self):
        if not isinstance(self.point, GeoPoint):
            raise ContractViolation("point must be a GeoPoint")
        if not (_finite(self.speed_kph) and self.speed_kph >= 0.0):
            raise ContractViolation(f"speed_kph must be >= 0: {self.speed_kph!r}")
        if not isinstance(self.valid, bool):
            raise ContractViolation("valid must be a bool")


@dataclass(frozen=True, slots=True)
class IgnitionReference:
    on: bool

    def __post_init__(self):
        if not isinstance(self.on, bool):
            raise ContractViolation("on must be a bool")


@dataclass(frozen=True, slots=True)
class AuthReference:
    authorized: bool

    def __post_init__(self):
        if not isinstance(self.authorized, bool):
            raise ContractViolation("authorized must be a bool")


@dataclass(frozen=True, slots=True)
class SupplyVoltageReference:
    volts: float

    def __post_init__(self):
        if not (_finite(self.volts) and self.volts >= 0.0):
            raise ContractViolation(f"volts must be >= 0: {self.volts!r}")


CHECKED_PAYLOAD_REFERENCES = {
    GeoPoint: GeoPointReference,
    LidarRange: LidarRangeReference,
    MagField: MagFieldReference,
    PirMotion: PirMotionReference,
    GasReading: GasReadingReference,
    Tilt: TiltReference,
    GpsFix: GpsFixReference,
    Ignition: IgnitionReference,
    Auth: AuthReference,
    SupplyVoltage: SupplyVoltageReference,
}


# --- the replay loop, as it was before it advanced its own state: the public,
# pure step copies the controller state at every event. Stepping each event of
# a timestamp group alone finds the group's mode changes by comparing the mode
# between events, without reading the changes the controller records.

def run_reference(sc: Scenario, cfg: ControllerConfig = DEFAULT_CONFIG) -> EventLog:
    """Replay a scenario against a fresh controller and compliant fake modem."""
    try:
        merged = require_valid_config(apply_overrides(cfg, sc.config))
    except ValidationError as exc:
        # a bad key the header sets is the scenario's fault; any other is cfg's
        raise ValidationError([(f"{sc.name}: {name}" if name in sc.config else name, reason)
                               for name, reason in exc.violations]) from exc
    clock = VirtualClock()
    modem = FakeModem(clock)
    client = ModemClient(modem)
    client.modem_init()
    state = ControllerState()
    log = EventLog([ModeChange(0, Mode.PARKED)])
    for t_ms, group in groupby(sc.events, key=attrgetter("t_ms")):
        clock.advance_to(t_ms)
        alerts, commands, changes = [], [], []
        for event in group:
            before = state.mode
            try:
                state, event_alerts, event_commands = step(merged, state, t_ms, [event])
            except ContractViolation as exc:
                raise ContractViolation(f"{sc.name}: at t={t_ms}: {exc}") from exc
            alerts += event_alerts
            commands += event_commands
            if state.mode is not before:
                changes.append(ModeChange(t_ms, state.mode))
        log.records.extend(alerts + commands + changes)
        state.router, _, _ = drain_sms(state.router, client)
    return log


# --- the event log serializer, as it was before the per-shape templates: every
# record goes through a dict and json.dumps

_ACTION_TAGS = {Buzzer: "buzzer", IgnitionInhibit: "ignition_inhibit",
                SolenoidLock: "solenoid_lock", SmsSend: "sms_send"}


def _record_to_obj(rec: LogRecord) -> dict:
    if isinstance(rec, Alert):
        return {"t_ms": rec.t_ms, "type": "alert", "kind": rec.kind.value,
                "severity": rec.severity.label, "message": rec.message}
    if isinstance(rec, ActuatorCommand):
        return {"t_ms": rec.t_ms, "type": "command",
                "action": _ACTION_TAGS[type(rec.action)],
                **{name: getattr(rec.action, name) for name in rec.action.__match_args__}}
    return {"t_ms": rec.t_ms, "type": "mode", "mode": rec.mode.value}


def log_to_jsonl_reference(log: EventLog) -> str:
    """Canonical one-record-per-line rendering; byte-stable across runs."""
    return "\n".join(json.dumps(_record_to_obj(r)) for r in log.records) + "\n"


# --- the field-by-field RMC parser, as it was before the one-pattern accept path

_SUPPORTED_TYPES = ("GPRMC", "GNRMC")

_UTC_RE = re.compile(r"^\d{6}(\.\d+)?$")
_LAT_RE = re.compile(r"^\d{4}(\.\d+)?$")
_LON_RE = re.compile(r"^\d{5}(\.\d+)?$")
_NUM_RE = re.compile(r"^\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{6}$")


def checksum(body: str) -> str:
    """XOR of the characters between '$' and '*', as two uppercase hex digits.

    The body must be printable ASCII and may not itself contain '$' or '*'.
    """
    # printable ASCII is exactly 0x20..0x7E; the per-character scan only runs
    # to name the first offending character
    if not (body.isascii() and body.isprintable()) or "$" in body or "*" in body:
        for ch in body:
            code = ord(ch)
            if code < 0x20 or code > 0x7E or ch in "$*":
                raise ParseError(f"invalid body character: {ch!r}")
    return format(reduce(xor, body.encode("ascii"), 0), "02X")


def _coord(text: str, hemi: str, *, is_lat: bool) -> float:
    name = "lat" if is_lat else "lon"
    pattern = _LAT_RE if is_lat else _LON_RE
    if not pattern.match(text):
        raise MalformedNumber(name, text)
    split = 2 if is_lat else 3
    degrees = int(text[:split])
    minutes = float(text[split:])
    if minutes >= 60.0:
        raise MalformedNumber(name, text)
    value = degrees + minutes / 60.0
    limit = 90.0 if is_lat else 180.0
    if value > limit:
        raise MalformedNumber(name, text)
    positive, negative = ("N", "S") if is_lat else ("E", "W")
    if hemi == negative:
        return -value
    if hemi != positive:
        raise MalformedNumber(f"{name}_hemisphere", hemi)
    return value


def parse_rmc_reference(line: str) -> RmcData:
    """Parse one RMC sentence; any rejection raises a ParseError subclass."""
    sentence = line.rstrip("\r\n")
    if len(sentence) > MAX_SENTENCE_CHARS:
        raise ParseError(f"sentence exceeds {MAX_SENTENCE_CHARS} characters")
    if not sentence.startswith("$"):
        raise ParseError("sentence must start with '$'")
    star = sentence.rfind("*")
    if star == -1:
        raise ParseError("missing checksum delimiter '*'")
    found = sentence[star + 1:]
    if len(found) != 2:
        raise ParseError(f"checksum must be two hex digits: {found!r}")
    body = sentence[1:star]
    expected = checksum(body)
    # comparison is on the exact text, so lowercase hex is rejected too
    if found != expected:
        raise ChecksumMismatch(expected, found)

    parts = body.split(",")
    if parts[0] not in _SUPPORTED_TYPES:
        raise UnsupportedSentence(parts[0])
    if len(parts) < 10:
        raise MissingField(len(parts))
    for index in range(1, 10):
        if parts[index] == "":
            raise MissingField(index)

    utc_time, status = parts[1], parts[2]
    if not _UTC_RE.match(utc_time):
        raise MalformedNumber("utc_time", utc_time)
    if status not in ("A", "V"):
        raise MalformedNumber("status", status)
    lat = _coord(parts[3], parts[4], is_lat=True)
    lon = _coord(parts[5], parts[6], is_lat=False)
    if not _NUM_RE.match(parts[7]):
        raise MalformedNumber("speed_knots", parts[7])
    speed_knots = float(parts[7])
    if not _NUM_RE.match(parts[8]):
        raise MalformedNumber("course_deg", parts[8])
    course_deg = float(parts[8])
    if course_deg >= 360.0:
        raise MalformedNumber("course_deg", parts[8])
    if not _DATE_RE.match(parts[9]):
        raise MalformedNumber("date", parts[9])

    return RmcData(utc_time=utc_time, status=status, point=GeoPoint(lat, lon),
                   speed_knots=speed_knots, course_deg=course_deg, date=parts[9])


def to_gps_fix_reference(rmc: RmcData) -> GpsFix:
    """Convert parsed RMC data into a GpsFix, always through the checked constructor."""
    return GpsFix(point=rmc.point, speed_kph=knots_to_kph(rmc.speed_knots),
                  valid=rmc.status == "A")
