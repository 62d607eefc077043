from __future__ import annotations

import json
import math
import re
import sys
import tracemalloc
from enum import IntEnum
from operator import lt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from motoguard import core
from motoguard.core import (ActuatorCommand, Alert, AlertKind, Auth, Buzzer, ConfigError,
                            ContractViolation, ControllerConfig, DEFAULT_CONFIG, GasReading,
                            GeoPoint, GpsFix, Ignition, LidarRange, MagField, PirMotion,
                            SensorEvent, Severity, SmsSend, SupplyVoltage, Tilt,
                            ValidationError, VirtualClock, apply_overrides, event_from_record,
                            event_to_record, _finite, parse_config_text, severity_of,
                            truncate_sms, validate_config)
from motoguard.gsm import FakeModem, ModemClient
from motoguard.harness import loads_scenario
from oracles import (CHECKED_PAYLOAD_REFERENCES, event_from_record_reference,
                     finite_reference, validate_config_reference)


def test_severity_table_matches_design() -> None:
    high = [AlertKind.CRASH, AlertKind.COLLISION, AlertKind.THEFT,
            AlertKind.ALCOHOL_LOCKOUT, AlertKind.GAS_LEAK]
    medium = [AlertKind.OVERSPEED, AlertKind.VEHICLE_PROXIMITY, AlertKind.OVERTAKE_UNSAFE]
    low = [AlertKind.ROAD_HAZARD, AlertKind.BEACON]
    for kind in high:
        assert severity_of(kind) is Severity.HIGH
    for kind in medium:
        assert severity_of(kind) is Severity.MEDIUM
    for kind in low:
        assert severity_of(kind) is Severity.LOW
    assert severity_of(AlertKind.UNDERVOLTAGE) is Severity.LOW


@pytest.mark.parametrize("kind", list(AlertKind))
def test_severity_total_over_every_kind(kind: AlertKind) -> None:
    assert severity_of(kind) in (Severity.LOW, Severity.MEDIUM, Severity.HIGH)


def test_truncate_sms() -> None:
    assert truncate_sms("hello") == "hello"
    exact = "x" * 160
    assert truncate_sms(exact) == exact
    long = "y" * 200
    cut = truncate_sms(long)
    assert len(cut) == 160
    assert cut == "y" * 157 + "..."


def test_sms_send_normalizes_body_and_validates_number() -> None:
    cmd = SmsSend(to="+639171234567", body="z" * 300)
    assert len(cmd.body) == 160
    with pytest.raises(ContractViolation):
        SmsSend(to="12ab", body="hi")
    with pytest.raises(ContractViolation):
        SmsSend(to="123456", body="too few digits")
    SmsSend(to="1234567", body="seven digits ok")
    with pytest.raises(ContractViolation):
        SmsSend(to="+639171234567\n", body="a trailing newline is not a digit")


@pytest.mark.parametrize("body,reason", [
    ("caf\xe9", "body must be ASCII"),
    ('hi\x1aAT+CMGS="+639999999999"\rpwned', "body must not hold Ctrl-Z (0x1A) or ESC (0x1B)"),
    ("cancel\x1b", "body must not hold Ctrl-Z (0x1A) or ESC (0x1B)"),
    ("z" * 159 + "\x1a", "body must not hold Ctrl-Z (0x1A) or ESC (0x1B)"),
])
def test_sms_send_refuses_every_body_the_modem_client_refuses(body: str, reason: str) -> None:
    with pytest.raises(ContractViolation) as err:
        SmsSend(to="+639171234567", body=body)
    assert str(err.value) == reason
    client = ModemClient(FakeModem())
    client.modem_init()
    with pytest.raises(ContractViolation) as err:
        client.send_sms("+639171234567", body)
    assert str(err.value) == reason


@pytest.mark.parametrize("bad", [
    lambda: LidarRange(-0.5),
    lambda: MagField(-1.0),
    lambda: Tilt(200.0),
    lambda: Tilt(-5.0),
    lambda: GeoPoint(91.0, 0.0),
    lambda: GeoPoint(0.0, 181.0),
    lambda: GeoPoint(float("nan"), 0.0),
    lambda: GasReading(-1.0, 0.0, 0.0),
    lambda: SupplyVoltage(-0.1),
    lambda: GpsFix(GeoPoint(0.0, 0.0), -3.0, True),
    lambda: SensorEvent(-1, Ignition(True)),
    lambda: Alert(True, AlertKind.CRASH, Severity.HIGH, "x"),
    lambda: ActuatorCommand(True, Buzzer(on=True)),
])
def test_constructors_reject_out_of_range(bad) -> None:
    with pytest.raises(ContractViolation):
        bad()


def test_event_record_round_trip_examples() -> None:
    events = [
        SensorEvent(0, Auth(True)),
        SensorEvent(10, Ignition(False)),
        SensorEvent(20, LidarRange(12.5)),
        SensorEvent(30, MagField(48.25)),
        SensorEvent(40, PirMotion(True)),
        SensorEvent(50, GasReading(12.0, 1.5, 300.0)),
        SensorEvent(60, Tilt(61.5)),
        SensorEvent(70, GpsFix(GeoPoint(14.5995, 120.9842), 32.5, True)),
        SensorEvent(80, SupplyVoltage(23.9)),
    ]
    for ev in events:
        rec = event_to_record(ev)
        assert event_from_record(json.loads(json.dumps(rec))) == ev


def test_event_record_rejects_unknown_tag_and_fields() -> None:
    with pytest.raises(ContractViolation):
        event_from_record({"t_ms": 0, "sensor": "sonar", "range_m": 1.0})
    with pytest.raises(ContractViolation):
        event_from_record({"t_ms": 0, "sensor": "lidar"})
    with pytest.raises(ContractViolation):
        event_from_record({"t_ms": 0, "sensor": "lidar", "range_m": 1.0, "bogus": 2})


def rec(sensor, **fields) -> dict:
    return {"t_ms": 0, "sensor": sensor, **fields}


GPS = {"lat_deg": 14.5, "lon_deg": 121.0, "speed_kph": 30.0, "valid": True}


@pytest.mark.parametrize("record,message", [
    ([], "record must be an object"),
    ("lidar", "record must be an object"),
    (rec("sonar", range_m=1.0), "unknown sensor tag: 'sonar'"),
    ({"t_ms": 0, "range_m": 1.0}, "unknown sensor tag: None"),
    (rec(["lidar"], range_m=1.0), "unknown sensor tag: ['lidar']"),
    (rec(7), "unknown sensor tag: 7"),
    (rec("gps"), "missing fields: lat_deg, lon_deg, speed_kph, valid"),
    (rec("gps", valid=True, lat_deg=1.0), "missing fields: lon_deg, speed_kph"),
    (rec("gas", co_ppm=1.0, zeta=1), "missing fields: ethanol_ppm, lpg_ppm"),
    (rec("lidar", range_m=1.0, zeta=1, alpha=2, point=3), "unexpected fields: alpha, point, zeta"),
    (rec("gps", **GPS, point=[1, 2]), "unexpected fields: point"),
    ({"sensor": "lidar", "range_m": 1.0}, "t_ms must be a non-negative int: None"),
    (dict(rec("pir", detected=True), t_ms=-1), "t_ms must be a non-negative int: -1"),
    (dict(rec("pir", detected=True), t_ms=True), "t_ms must be a non-negative int: True"),
    (dict(rec("pir", detected=True), t_ms=1.5), "t_ms must be a non-negative int: 1.5"),
    (dict(rec("lidar", range_m=-1.0), t_ms=-1), "range_m must be >= 0: -1.0"),
    (rec("lidar", range_m=float("inf")), "range_m must be >= 0: inf"),
    (rec("lidar", range_m=float("nan")), "range_m must be >= 0: nan"),
    (rec("lidar", range_m={"a": 1}), "range_m must be >= 0: {'a': 1}"),
    (rec("lidar", range_m=True), "range_m must be >= 0: True"),
    (rec("mag", b_ut=-0.5), "b_ut must be >= 0: -0.5"),
    (rec("mag", b_ut="40"), "b_ut must be >= 0: '40'"),
    (rec("pir", detected=1), "detected must be a bool"),
    (rec("gas", ethanol_ppm=0.0, co_ppm=float("nan"), lpg_ppm=-1.0), "co_ppm must be >= 0: nan"),
    (rec("gas", ethanol_ppm=True, co_ppm=0.0, lpg_ppm=0.0), "ethanol_ppm must be >= 0: True"),
    (rec("gas", ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=float("-inf")),
     "lpg_ppm must be >= 0: -inf"),
    (rec("tilt", angle_deg=180.5), "angle_deg out of range: 180.5"),
    (rec("tilt", angle_deg=None), "angle_deg out of range: None"),
    (rec("gps", **dict(GPS, lat_deg=91.0, lon_deg=181.0)), "lat_deg out of range: 91.0"),
    (rec("gps", **dict(GPS, lon_deg=float("inf"))), "lon_deg out of range: inf"),
    (rec("gps", **dict(GPS, speed_kph=-3)), "speed_kph must be >= 0: -3"),
    (rec("gps", **dict(GPS, valid="yes")), "valid must be a bool"),
    (rec("ignition", on=None), "on must be a bool"),
    (rec("auth", authorized=0), "authorized must be a bool"),
    (rec("supply", volts={"a": 1}), "volts must be >= 0: {'a': 1}"),
    (rec("supply", volts=float("nan")), "volts must be >= 0: nan"),
    # a string value tells repr() from str() in every formatted message
    (dict(rec("pir", detected=True), t_ms="3"), "t_ms must be a non-negative int: '3'"),
    (rec("lidar", range_m="1"), "range_m must be >= 0: '1'"),
    (rec("gas", ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm="5"), "lpg_ppm must be >= 0: '5'"),
    (rec("tilt", angle_deg="90"), "angle_deg out of range: '90'"),
    (rec("gps", **dict(GPS, lat_deg="1")), "lat_deg out of range: '1'"),
    (rec("gps", **dict(GPS, lon_deg="2")), "lon_deg out of range: '2'"),
    (rec("gps", **dict(GPS, speed_kph="3")), "speed_kph must be >= 0: '3'"),
    (rec("supply", volts="24"), "volts must be >= 0: '24'"),
])
def test_event_record_errors_are_exact(record, message: str) -> None:
    with pytest.raises(ContractViolation) as err:
        event_from_record(record)
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: GpsFix((14.5, 121.0), 30.0, True), "point must be a GeoPoint"),
    (lambda: SmsSend(to="12ab", body="hi"), "bad phone number: '12ab'"),
    (lambda: Alert(-1, AlertKind.CRASH, Severity.HIGH, "x"),
     "t_ms must be a non-negative int: -1"),
])
def test_constructor_errors_are_exact(build, message: str) -> None:
    with pytest.raises(ContractViolation) as err:
        build()
    assert str(err.value) == message


class _Float(float):
    pass


class _Level(IntEnum):
    TWO = 2


FINITE_CASES = {
    "zero": (0.0, True), "negative_zero": (-0.0, True), "float": (1.5, True),
    "subnormal": (5e-324, True), "most_negative_float": (-1.7976931348623157e308, True),
    "nan": (float("nan"), False), "inf": (float("inf"), False),
    "negative_inf": (float("-inf"), False), "float_subclass": (_Float(2.5), True),
    "float_subclass_nan": (_Float("nan"), False), "float_subclass_inf": (_Float("inf"), False),
    "int": (0, True), "negative_int": (-7, True), "int_1e308": (10**308, True),
    "int_enum": (_Level.TWO, True), "true": (True, False), "false": (False, False),
    "none": (None, False), "str": ("1.0", False), "list": ([1.0], False),
}


@pytest.mark.parametrize("value,want", FINITE_CASES.values(), ids=FINITE_CASES.keys())
def test_finite_agrees_with_the_reference(value, want: bool) -> None:
    assert _finite(value) is want
    assert finite_reference(value) is want


def test_finite_is_false_for_an_int_too_large_for_a_float() -> None:
    huge = 10**400
    with pytest.raises(OverflowError):
        finite_reference(huge)
    assert _finite(huge) is False
    assert _finite(-huge) is False


@given(st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
       st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
       st.booleans(), st.integers(min_value=0, max_value=10**9))
def test_gps_record_round_trip_is_exact(lat, lon, speed, valid, t) -> None:
    ev = SensorEvent(t, GpsFix(GeoPoint(lat, lon), speed, valid))
    back = event_from_record(json.loads(json.dumps(event_to_record(ev))))
    assert back == ev


# --- direct decode: well-formed records skip the checked constructors --------

MAX = sys.float_info.max

WELL_FORMED = {
    "lidar": rec("lidar", range_m=12.5),
    "mag": rec("mag", b_ut=48.25),
    "pir": rec("pir", detected=True),
    "gas": rec("gas", ethanol_ppm=12.0, co_ppm=1.5, lpg_ppm=300.0),
    "tilt": rec("tilt", angle_deg=61.5),
    "gps": rec("gps", **GPS),
    "ignition": rec("ignition", on=False),
    "auth": rec("auth", authorized=True),
    "supply": rec("supply", volts=23.9),
    # the edges each rule still accepts
    "lidar_negative_zero": dict(rec("lidar", range_m=-0.0), t_ms=10**12),
    "mag_largest_float": rec("mag", b_ut=MAX),
    "supply_subnormal": rec("supply", volts=5e-324),
    "gas_zero_and_max": rec("gas", ethanol_ppm=0.0, co_ppm=MAX, lpg_ppm=-0.0),
    "tilt_zero": rec("tilt", angle_deg=0.0),
    "tilt_180": rec("tilt", angle_deg=180.0),
    "gps_north_east": rec("gps", **dict(GPS, lat_deg=90.0, lon_deg=180.0)),
    "gps_south_west": rec("gps", **dict(GPS, lat_deg=-90.0, lon_deg=-180.0, valid=False)),
    # integer values, which JSON writers that drop ".0" produce
    "lidar_int": rec("lidar", range_m=12),
    "mag_int_zero": rec("mag", b_ut=0),
    "gas_ints": rec("gas", ethanol_ppm=12, co_ppm=0, lpg_ppm=300.5),
    "tilt_int_180": rec("tilt", angle_deg=180),
    "gps_ints": rec("gps", lat_deg=-90, lon_deg=180, speed_kph=30, valid=True),
    "supply_largest_float_as_int": rec("supply", volts=int(MAX)),
}


TAGS = ("lidar", "mag", "pir", "gas", "tilt", "gps", "ignition", "auth", "supply")
RECORD_FIELDS = {tag: tuple(WELL_FORMED[tag])[2:] for tag in TAGS}  # after t_ms, sensor


def _tracked_checked_path(monkeypatch) -> list:
    """Route _checked_event through a wrapper; the list it returns fills with
    every record that reaches it."""
    reached, checked = [], core._checked_event

    def tracked(record):
        reached.append(record)
        return checked(record)
    monkeypatch.setattr(core, "_checked_event", tracked)
    return reached


@pytest.mark.parametrize("record", WELL_FORMED.values(), ids=WELL_FORMED.keys())
def test_well_formed_records_skip_the_checked_path(record: dict, monkeypatch) -> None:
    want = event_from_record_reference(record)
    reached = _tracked_checked_path(monkeypatch)
    assert repr(event_from_record(record)) == repr(want)
    assert reached == []


@pytest.mark.parametrize("record", WELL_FORMED.values(), ids=WELL_FORMED.keys())
def test_well_formed_records_skip_the_rule_loop(record: dict, monkeypatch) -> None:
    # every payload, a gps record's GeoPoint and the event are built directly
    want = repr(event_from_record_reference(record))

    def rule_loop(obj):
        raise AssertionError(f"__post_init__ reached for {type(obj).__name__}")
    monkeypatch.setattr(core._RuleChecked, "__post_init__", rule_loop)
    monkeypatch.setattr(SensorEvent, "__post_init__", rule_loop)
    assert repr(event_from_record(record)) == want


def test_corpus_records_skip_the_checked_path(corpus_dir: Path, monkeypatch) -> None:
    texts = [path.read_text(encoding="utf-8") for path in sorted(corpus_dir.glob("*.jsonl"))]
    want = [repr(loads_scenario(text).events) for text in texts]
    tags = {event_to_record(event)["sensor"] for text in texts
            for event in loads_scenario(text).events}
    reached = _tracked_checked_path(monkeypatch)
    assert [repr(loads_scenario(text).events) for text in texts] == want
    # every corpus record is well formed, and the corpus holds every tag
    assert reached == []
    assert tags == set(TAGS)


def _decode_outcome(decode, record) -> tuple:
    try:
        event = decode(record)
    except Exception as exc:  # the exception type and text are part of the contract
        return type(exc), str(exc)
    # repr shows -0.0 and an IntEnum t_ms; the types show an int or a float subclass
    return repr(event), [type(v) for v in event_to_record(event).values()]


class _NoLe(float):
    """A float subclass whose <= raises: the checked path never calls it on a
    non-negative field, so a fast path that took the subclass would show."""

    def __le__(self, other):
        raise TypeError("no <=")


# every bound of a field rule, and the floats just either side of it
BOUNDS = [-180.0, -90.0, 0.0, 90.0, 180.0, MAX]
EDGE_VALUES = [*BOUNDS, *(math.nextafter(b, d) for b in BOUNDS for d in (-math.inf, math.inf)),
               -0.0, 5e-324, -MAX, float("nan"), float("inf"), float("-inf"), 0, 7, -1, 10**400,
               True, False, _Float(1.5), _Float("nan"), _NoLe(2.5), _Level.TWO, None, "1.0",
               [1.0]]
field_values = st.one_of(st.floats(), st.floats(-200.0, 200.0), st.sampled_from(EDGE_VALUES),
                         st.integers(-5, 200), st.booleans())
t_values = st.one_of(st.integers(-5, 10**13),
                     st.sampled_from([True, False, _Level.TWO, 1.0, None, "5", 2**64, -2**64]))


@st.composite
def sensor_records(draw) -> object:
    """A record of any tag, mostly of the right shape, sometimes with a key
    missing or extra, an unknown or non-str tag, or not a dict at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], "lidar", None, 7, ["sensor", "lidar"]]))
    tag = draw(st.sampled_from(TAGS))
    record = {"t_ms": draw(t_values), "sensor": tag}
    record.update((name, draw(field_values)) for name in RECORD_FIELDS[tag])
    if draw(st.integers(0, 7)) == 0:
        del record[draw(st.sampled_from(sorted(record)))]
    if draw(st.integers(0, 7)) == 0:
        record[draw(st.sampled_from(["zeta", "point", "range_m", "valid"]))] = 1.0
    if draw(st.integers(0, 15)) == 0:
        record["sensor"] = draw(st.sampled_from([["lidar"], {"a": 1}, 7, None, "sonar", "Lidar"]))
    return record


@settings(max_examples=1000)
@given(sensor_records())
@example(rec("lidar", range_m=float("nan")))
@example(rec("mag", b_ut=float("inf")))
@example(rec("gas", ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=float("-inf")))
@example(rec("supply", volts=-0.0))
@example(rec("gps", **dict(GPS, lat_deg=90.0, lon_deg=-180.0)))
@example(rec("gps", **dict(GPS, lat_deg=-90.0, lon_deg=180.0)))
@example(rec("gps", **dict(GPS, lat_deg=90.00000000000001)))
@example(rec("gps", **dict(GPS, lat_deg=-90.00000000000001)))
@example(rec("gps", **dict(GPS, lon_deg=180.00000000000003)))
@example(rec("gps", **dict(GPS, lon_deg=-180.00000000000003)))
@example(rec("tilt", angle_deg=0.0))
@example(rec("tilt", angle_deg=180.0))
@example(rec("tilt", angle_deg=-0.0))
@example(rec("tilt", angle_deg=180.00000000000003))
@example(rec("lidar", range_m=3))
@example(rec("gps", **dict(GPS, speed_kph=30)))
@example(rec("lidar", range_m=0))
@example(rec("lidar", range_m=-1))
@example(rec("mag", b_ut=10**400))
@example(rec("supply", volts=int(MAX)))
@example(rec("supply", volts=int(MAX) + 1))
@example(rec("gas", ethanol_ppm=1, co_ppm=0, lpg_ppm=-1))
@example(rec("tilt", angle_deg=180))
@example(rec("tilt", angle_deg=181))
@example(rec("gps", **dict(GPS, lat_deg=-90, lon_deg=180)))
@example(rec("gps", **dict(GPS, lat_deg=91)))
@example(rec("gps", **dict(GPS, lon_deg=-181)))
@example(rec("lidar", range_m=_Level.TWO))
@example(rec("lidar", range_m=True))
@example(rec("pir", detected=1))
@example(rec("mag", b_ut=_Float(2.5)))
@example(rec("lidar", range_m=_NoLe(2.5)))
@example(rec("tilt", angle_deg=_Float("nan")))
@example(dict(rec("pir", detected=True), t_ms=True))
@example(dict(rec("pir", detected=True), t_ms=_Level.TWO))
@example(dict(rec("lidar", range_m=1.0), t_ms=-1))
@example(dict(rec("lidar", range_m=1.0), t_ms=1.0))
@example({"sensor": "lidar", "range_m": 1.0})
@example(rec("gas", ethanol_ppm=0.0, co_ppm=0.0))
@example(rec("lidar", range_m=1.0, zeta=2))
@example(rec("gps", **GPS, point=[1, 2]))
@example([("t_ms", 0), ("sensor", "lidar"), ("range_m", 1.0)])
@example(rec(["lidar"], range_m=1.0))
@example(rec(7))
# three keys, one of them wrong or missing, which the direct decoder must turn away
@example({"sensor": "lidar", "range_m": 1.0, "x": 0})
@example({"t_ms": 0, "sensor": "lidar", "range": 1.0})
@example({"t_ms": 0, "range_m": 1.0, "x": "lidar"})
@example({"t_ms": 0, "sensor": "auth", "on": True})
@example({"t_ms": 0, "sensor": "pir", "detected": None})
@example({"t_ms": 0, "sensor": "gas", "ethanol_ppm": 1.0})
# the edges of the gas and gps direct decoders
@example(rec("gps", **dict(GPS, lat_deg=14, lon_deg=-121)))
@example(rec("gps", **dict(GPS, speed_kph=int(MAX) + 1)))
@example(rec("gps", **dict(GPS, valid=1)))
@example(rec("gps", **dict(GPS, lat_deg=_Float(14.5))))
@example(rec("gps", **dict(GPS, lon_deg=float("nan"))))
@example(rec("gas", ethanol_ppm=int(MAX) + 1, co_ppm=0.0, lpg_ppm=0.0))
@example(rec("gas", ethanol_ppm=1.0, co_ppm=_Float(2.0), lpg_ppm=3.0))
@example(rec("gas", ethanol_ppm=1.0, co_ppm=2.0, lpg_ppm=True))
@example(dict(rec("gps", **GPS), t_ms=-1))
@example(dict(rec("gas", ethanol_ppm=1.0, co_ppm=2.0, lpg_ppm=3.0), t_ms=True))
# the right length with a key wrong or missing
@example({"t_ms": 0, "sensor": "gps", "lat_deg": 1.0, "lon_deg": 1.0, "speed_kph": 1.0,
          "x": True})
@example({"sensor": "gps", "lat_deg": 1.0, "lon_deg": 1.0, "speed_kph": 1.0, "valid": True,
          "x": 0})
@example({"t_ms": 0, "sensor": "gas", "ethanol_ppm": 1.0, "co_ppm": 1.0, "lpg": 1.0})
@example(rec("gas", ethanol_ppm=1.0, co_ppm=2.0, lpg_ppm=3.0, zeta=0))
@example(rec("gps", **GPS, zeta=0))
def test_event_from_record_agrees_with_the_checked_decoder(record) -> None:
    assert _decode_outcome(event_from_record, record) == \
        _decode_outcome(event_from_record_reference, record)


def _edge_values(rule: tuple) -> dict:
    """The values at and just past each end of a field's rule, and the values
    of another type that a rule must weigh, by case name."""
    kind, _, lo, hi, _ = rule
    wrong = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    if kind is bool:
        return {"false": False, "true": True, "int_0": 0, "int_1": 1, **wrong}
    return {"lo": lo, "hi": hi, "below_lo": math.nextafter(lo, -math.inf),
            "above_hi": math.nextafter(hi, math.inf), "int_lo": int(lo), "int_hi": int(hi),
            "int_past_max": int(MAX) + 1, "float_subclass": _Float(hi), "bool": True, **wrong}


# every field of every tag, each edge set into a well-formed record of the tag
FIELD_EDGES = {f"{tag}-{name}-{case}": dict(WELL_FORMED[tag], **{name: value})
               for tag in TAGS for name in RECORD_FIELDS[tag]
               for case, value in _edge_values(core._FIELD_RULES[name]).items()}
# the cases of an exact type within the rule's bounds, which are decoded directly
IN_BOUNDS = ("-lo", "-hi", "-int_lo", "-int_hi", "-false", "-true")


@pytest.mark.parametrize("case", FIELD_EDGES)
def test_every_field_edge_decodes_as_the_checked_decoder(case: str, monkeypatch) -> None:
    record = FIELD_EDGES[case]
    want = _decode_outcome(event_from_record_reference, record)
    reached = _tracked_checked_path(monkeypatch)
    assert _decode_outcome(event_from_record, record) == want
    assert (reached == []) is case.endswith(IN_BOUNDS)


class _Count(int):
    pass


def _build_outcome(build, values: tuple) -> tuple:
    """What a constructor made of values: each stored field's type and repr,
    or the type and text of its error."""
    try:
        obj = build(*values)
    except Exception as exc:  # the exception type and text are part of the contract
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in (getattr(obj, name) for name in obj.__match_args__)]


payload_values = st.one_of(field_values, st.sampled_from(
    [_Count(0), _Count(7), _Count(-1), _Count(181), "abc", "", GeoPoint(14.5, 121.0)]))


@pytest.mark.parametrize("cls", CHECKED_PAYLOAD_REFERENCES, ids=lambda cls: cls.__name__)
@settings(max_examples=200)
@given(st.tuples(st.one_of(st.just(GeoPoint(14.5, 121.0)), payload_values),
                 payload_values, payload_values))
@example((-0.0, -0.0, -0.0))
@example((0, 0, False))
@example((_Level.TWO, _Level.TWO, True))
@example((_Count(3), _Count(180), _Count(2)))
@example((_Float(2.5), _Float("nan"), _Float("-inf")))
@example((_NoLe(2.5), _NoLe(2.5), _NoLe(2.5)))
@example((GeoPoint(14.5, 121.0), _NoLe(2.5), True))
@example((10**400, -10**400, 1))
@example((float("inf"), float("-inf"), float("nan")))
@example((True, False, True))
@example(("1.0", None, "yes"))
@example((GeoPoint(-90.0, 180.0), 0, False))
@example((90, -180, 180))
def test_payload_constructors_agree_with_the_hand_written_checks(cls: type, values: tuple) -> None:
    values = values[:len(cls.__match_args__)]
    assert _build_outcome(cls, values) == _build_outcome(CHECKED_PAYLOAD_REFERENCES[cls], values)


def _traced_bytes(decode, records: list) -> int:
    """Memory the decoded events hold, by tracemalloc, once the decode is done."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = [decode(record) for record in records]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(events) == len(records)
    return held


@pytest.mark.parametrize("tag", ["lidar", "pir", "tilt", "auth"])
def test_direct_events_hold_the_memory_of_constructed_ones(tag: str) -> None:
    # the payload and event records are slotted, so a direct event and a
    # constructed one are the same objects; this catches a direct constructor
    # that builds anything larger
    n = 2000
    records = [dict(WELL_FORMED[tag], t_ms=i) for i in range(n)]
    for decode in (event_from_record, event_from_record_reference):
        _traced_bytes(decode, records[:10])  # first calls fill the interpreter's caches
    direct = _traced_bytes(event_from_record, records)
    constructed = _traced_bytes(event_from_record_reference, records)
    assert abs(direct - constructed) <= 4 * n


def test_default_config_is_valid() -> None:
    assert validate_config(DEFAULT_CONFIG) == []


def test_validate_config_lists_every_violation() -> None:
    cfg = ControllerConfig(ttc_warn_s=0.0, ethanol_lockout_ppm=600.0,
                           beacon_period_ms=59_999, owner_number="nope")
    bad = dict(validate_config(cfg))
    assert bad["ttc_warn_s"] == "must be > 0"
    assert bad["ethanol_lockout_ppm"] == "exceeds sensor range 500 ppm"
    assert bad["beacon_period_ms"] == "must be >= 60000"
    assert bad["owner_number"] == "must match +?[0-9]{7,15}"
    assert len(bad) == 4


def test_validate_config_edge_values() -> None:
    assert validate_config(ControllerConfig(ethanol_lockout_ppm=500.0)) == []
    assert validate_config(ControllerConfig(beacon_period_ms=60_000)) == []
    assert ("crash_tilt_deg", "must be <= 180") in validate_config(
        ControllerConfig(crash_tilt_deg=190.0))
    assert validate_config(ControllerConfig(owner_number="+639171234567\n")) == [
        ("owner_number", "must match +?[0-9]{7,15}")]


def test_validate_config_accepts_the_tilt_limit_itself() -> None:
    assert validate_config(ControllerConfig(crash_tilt_deg=180.0)) == []


def test_validate_config_reports_every_text_in_order() -> None:
    # one violation per field, every field text at least once; the order is
    # floats by name, ints by name, the ethanol and tilt upper bounds (in
    # declaration order, not by name), the phone numbers, then the rules
    # between fields
    cfg = ControllerConfig(
        ttc_warn_s=math.nan, mag_deviation_ut=0.0, mag_persist_samples=True,
        mag_calib_samples=0, pir_speed_gate_kph="fast", ethanol_lockout_ppm=500.1,
        lpg_leak_ppm=-1.0, speed_limit_kph=80.0, speed_hysteresis_kph=80.0,
        crash_tilt_deg=180.5, crash_hold_ms=2.5, crash_speed_max_kph=math.inf,
        geofence_radius_m=10**400, beacon_period_ms=59_999, preride_window_ms=-1,
        sms_cooldown_ms=None, undervoltage_v=True, owner_number=None, police_number="911")
    assert validate_config(cfg) == [
        ("crash_speed_max_kph", "must be a finite number"),
        ("geofence_radius_m", "must be a finite number"),
        ("lpg_leak_ppm", "must be > 0"),
        ("mag_deviation_ut", "must be > 0"),
        ("pir_speed_gate_kph", "must be a finite number"),
        ("ttc_warn_s", "must be a finite number"),
        ("undervoltage_v", "must be a finite number"),
        ("beacon_period_ms", "must be >= 60000"),
        ("crash_hold_ms", "must be an integer"),
        ("mag_calib_samples", "must be > 0"),
        ("mag_persist_samples", "must be an integer"),
        ("preride_window_ms", "must be > 0"),
        ("sms_cooldown_ms", "must be an integer"),
        ("ethanol_lockout_ppm", "exceeds sensor range 500 ppm"),
        ("crash_tilt_deg", "must be <= 180"),
        ("owner_number", "must match +?[0-9]{7,15}"),
        ("police_number", "must match +?[0-9]{7,15}"),
        ("speed_hysteresis_kph", "must be < speed_limit_kph"),
    ]


# every edge the old hand-written validator distinguished, for any field
CONFIG_EDGES = (0, 0.0, -0.0, 1, 59_999, 60_000, 500, 500.0, 500.1, 180, 180.0, 180.5,
                math.nan, math.inf, -math.inf, True, False, 10**400, -(10**400), "80", None,
                "+639171234567")
CROSS_TEXTS = {(a, text) for a, _, _, text in core._CROSS_RULES}


@settings(max_examples=500)
@given(st.fixed_dictionaries({}, optional={
    name: st.sampled_from(CONFIG_EDGES + (default,))
    for name, default in zip(ControllerConfig.__match_args__, DEFAULT_CONFIG._values())}))
def test_validate_config_agrees_with_the_hand_written_reference(values: dict) -> None:
    cfg = ControllerConfig(**values)
    want = validate_config_reference(cfg)
    got = validate_config(cfg)
    assert got[:len(want)] == want  # the field rules, texts and order unchanged
    assert set(got[len(want):]) <= CROSS_TEXTS  # then only the rules between fields


def test_speed_hysteresis_must_stay_below_the_limit() -> None:
    # at hysteresis >= limit an excursion never ends, so later ones are never alerted
    assert validate_config(ControllerConfig(speed_hysteresis_kph=80.0)) == [
        ("speed_hysteresis_kph", "must be < speed_limit_kph")]
    assert validate_config(ControllerConfig(speed_limit_kph=5)) == [
        ("speed_hysteresis_kph", "must be < speed_limit_kph")]
    assert validate_config(ControllerConfig(speed_hysteresis_kph=79.9)) == []
    # a field that fails its own row is reported alone
    assert validate_config(ControllerConfig(speed_limit_kph=-10.0)) == [
        ("speed_limit_kph", "must be > 0")]
    assert validate_config(ControllerConfig(speed_hysteresis_kph=math.inf)) == [
        ("speed_hysteresis_kph", "must be a finite number")]


def test_sms_cooldown_must_stay_below_the_beacon_period() -> None:
    # a cooldown of two periods drops every other hourly beacon
    assert validate_config(ControllerConfig(sms_cooldown_ms=7_200_000)) == [
        ("sms_cooldown_ms", "must be < beacon_period_ms")]
    assert validate_config(ControllerConfig(sms_cooldown_ms=3_600_000)) == [
        ("sms_cooldown_ms", "must be < beacon_period_ms")]
    assert validate_config(ControllerConfig(sms_cooldown_ms=3_599_999)) == []
    assert validate_config(ControllerConfig(sms_cooldown_ms=60_000, beacon_period_ms=59_999)) == [
        ("beacon_period_ms", "must be >= 60000")]


README = Path(__file__).resolve().parent.parent / "README.md"
KIND_WORDS = {float: "number", int: "integer", str: "phone"}


def accepted_text(rule) -> str:
    """A core._CONFIG_RULES row's bounds as the README's "accepted" column writes them."""
    if rule.kind is str:
        return "`+?[0-9]{7,15}`"
    text = rule.lo_text.removeprefix("must be ")  # "> 0", or ">= 60000" for lo 59 999
    return text if rule.hi == math.inf else f"{text}, <= {rule.hi:g}"


def test_readme_configuration_table_matches_the_rules() -> None:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \| (\w+) \| (.+?) \|$", section, re.MULTILINE)
    defaults = zip(ControllerConfig.__match_args__, DEFAULT_CONFIG._values())
    assert rows == [(name, str(default), KIND_WORDS[type(default)],
                     accepted_text(core._CONFIG_RULES[name])) for name, default in defaults]
    assert list(core._CONFIG_RULES) == list(ControllerConfig.__match_args__)
    cross = re.findall(r"^- `(\w+)` (\S+) `(\w+)`:", section, re.MULTILINE)
    assert cross == [(a, {lt: "<"}[holds], b) for a, b, holds, _ in core._CROSS_RULES]


def test_parse_config_text() -> None:
    text = "\n".join([
        "# tuning for the track",
        "speed_limit_kph = 95",
        "crash_hold_ms=2500",
        "",
        "owner_number = +639998887766",
    ])
    overrides = parse_config_text(text)
    assert overrides == {"speed_limit_kph": 95.0, "crash_hold_ms": 2500,
                         "owner_number": "+639998887766"}
    # every ASCII whitespace character around a key or a value is stripped
    assert parse_config_text(" \tttc_warn_s\v=\f2.5 \r\n") == {"ttc_warn_s": 2.5}
    merged = apply_overrides(DEFAULT_CONFIG, overrides)
    assert merged.speed_limit_kph == 95.0
    assert merged.crash_hold_ms == 2500


def test_parse_config_text_errors_carry_line_numbers() -> None:
    with pytest.raises(ConfigError) as err:
        parse_config_text("speed_limit_kph=80\nwhat_is_this=1\n")
    assert err.value.line_no == 2
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        parse_config_text("crash_hold_ms=2.5")
    with pytest.raises(ConfigError):
        parse_config_text("speed_limit_kph=fast")
    # int() and float() take these; a config file may not
    for text, reason in (
            ("# ok\ncrash_hold_ms = 3_000\n", "crash_hold_ms must be an integer, got '3_000'"),
            ("# ok\nttc_warn_s = 2_0.5\n", "ttc_warn_s must be a number, got '2_0.5'"),
            ("# ok\nttc_warn_s = ٢\n", "ttc_warn_s must be a number, got '٢'"),
            ("# ok\nmag_calib_samples = ２０\n",
             "mag_calib_samples must be an integer, got '２０'"),
            # only ASCII whitespace is stripped around a key or a value
            ("# ok\nttc_warn_s\u3000= 2.5 \n", "unknown key 'ttc_warn_s\\u3000'"),
            ("# ok\n\xa0ttc_warn_s = 2.5\n", "unknown key '\\xa0ttc_warn_s'"),
            ("# ok\nttc_warn_s\x1c= 2.5\n", "unknown key 'ttc_warn_s\\x1c'"),
            ("# ok\nttc_warn_s = 2.5\u3000\n", "ttc_warn_s must be a number, got '2.5\\u3000'"),
            ("# ok\ncrash_hold_ms =\u20033000\n",
             "crash_hold_ms must be an integer, got '\\u20033000'")):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert (err.value.line_no, err.value.reason) == (2, reason)
    # nan and inf parse as numbers and fail validation, not the grammar
    for value in ("nan", "inf", "-Infinity"):
        cfg = apply_overrides(DEFAULT_CONFIG, parse_config_text(f"ttc_warn_s = {value}"))
        assert validate_config(cfg) == [("ttc_warn_s", "must be a finite number")]
    for text in ("\ufeffttc_warn_s=2.5\n", "\ufeff# a comment\n"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert (err.value.line_no, err.value.reason) == (1, "unexpected UTF-8 byte-order mark")


def test_apply_overrides_without_overrides_returns_cfg_itself() -> None:
    cfg = ControllerConfig(speed_limit_kph=95.0)
    assert apply_overrides(cfg, {}) is cfg
    assert apply_overrides(DEFAULT_CONFIG, {}) is DEFAULT_CONFIG


def test_apply_overrides_rejects_unknown_and_wrong_types() -> None:
    with pytest.raises(ValidationError):
        apply_overrides(DEFAULT_CONFIG, {"warp_factor": 9})
    with pytest.raises(ValidationError):
        apply_overrides(DEFAULT_CONFIG, {"crash_hold_ms": 2.5})
    with pytest.raises(ValidationError):
        apply_overrides(DEFAULT_CONFIG, {"owner_number": 639171234567})


def test_virtual_clock() -> None:
    clock = VirtualClock()
    clock.advance(500)
    assert clock.now_ms() == 500
    clock.advance_to(300)  # never moves backwards
    assert clock.now_ms() == 500
    clock.advance_to(900)
    assert clock.now_ms() == 900
    with pytest.raises(ContractViolation):
        clock.advance(-1)


def test_alert_requires_valid_timestamp() -> None:
    with pytest.raises(ContractViolation):
        Alert(-5, AlertKind.CRASH, Severity.HIGH, "x")
    inhibit = Buzzer(on=True)
    assert inhibit.on
