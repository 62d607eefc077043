from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from motoguard.core import (ActuatorCommand, Alert, AlertKind, Auth, Buzzer, ConfigError,
                            ContractViolation, ControllerConfig, DEFAULT_CONFIG, GasReading,
                            GeoPoint, GpsFix, Ignition, LidarRange, MagField, PirMotion,
                            SensorEvent, Severity, SmsSend, SupplyVoltage, Tilt,
                            ValidationError, VirtualClock, apply_overrides, event_from_record,
                            event_to_record, _finite, parse_config_text, severity_of,
                            truncate_sms, validate_config)
from oracles import finite_reference


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
