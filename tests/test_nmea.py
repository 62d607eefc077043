from __future__ import annotations

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings, strategies as st

from motoguard import core, nmea
from motoguard.core import ContractViolation, GeoPoint
from motoguard.nmea import (ChecksumMismatch, MalformedNumber, MissingField, ParseError,
                            RmcData, UnsupportedSentence, checksum, knots_to_kph, parse_rmc,
                            to_gps_fix)
from oracles import parse_rmc_reference, to_gps_fix_reference
from rmcgen import build_rmc, xor_checksum

GOOD = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"


def test_checksum_against_independent_xor() -> None:
    for body in ["", "GPRMC", "GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W",
                 "GNRMC,000000,V,0000.000,N,00000.000,E,000.0,000.0,010100,,"]:
        assert checksum(body) == xor_checksum(body)


def test_checksum_output_shape() -> None:
    assert checksum("") == "00"
    assert len(checksum("GPRMC")) == 2
    assert checksum("GPRMC") == checksum("GPRMC").upper()


@pytest.mark.parametrize("body,bad", [pytest.param(body, bad, id=body) for body, bad in [
    ("abc\x07", "'\\x07'"),
    ("deg\xe9", "'é'"),
    ("a$b", "'$'"),
    ("a*b", "'*'"),
    ("tab\there"[:4] + "\t", "'\\t'"),
    ("del\x7f", "'\\x7f'"),
    ("\x00a*", "'\\x00'"),
    ("GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W\x80", "'\\x80'"),
]])
def test_checksum_rejects_non_printable_and_delimiters(body: str, bad: str) -> None:
    # the message names the first offending character, even when it comes last
    with pytest.raises(ParseError) as err:
        checksum(body)
    assert str(err.value) == f"invalid body character: {bad}"


def test_parse_worked_example() -> None:
    rmc = parse_rmc(GOOD)
    assert rmc.status == "A"
    assert rmc.point.lat_deg == pytest.approx(48.1173, abs=1e-6)
    assert rmc.point.lon_deg == pytest.approx(11.516667, abs=1e-6)
    assert rmc.speed_knots == 22.4
    assert rmc.course_deg == 84.4
    assert rmc.utc_time == "123519"
    assert rmc.date == "230394"
    fix = to_gps_fix(rmc)
    assert fix.valid
    assert fix.speed_kph == 22.4 * 1.852
    assert fix.speed_kph == pytest.approx(41.4848)


def test_parse_accepts_trailing_crlf_and_gnrmc() -> None:
    assert parse_rmc(GOOD + "\r\n") == parse_rmc(GOOD)
    gn = build_rmc(48.1173, 11.516667, 22.4, 84.4, talker="GN")
    assert parse_rmc(gn).point.lat_deg == pytest.approx(48.1173, abs=1e-6)


def test_void_status_gives_invalid_fix() -> None:
    void = build_rmc(10.0, 10.0, 0.0, 0.0, status="V")
    fix = to_gps_fix(parse_rmc(void))
    assert not fix.valid


def test_southern_and_western_hemispheres_negate() -> None:
    rmc = parse_rmc(build_rmc(-33.8568, -151.2153, 5.0, 90.0))
    assert rmc.point.lat_deg == pytest.approx(-33.8568, abs=1e-6)
    assert rmc.point.lon_deg == pytest.approx(-151.2153, abs=1e-6)


def test_checksum_mismatch_carries_both_values() -> None:
    corrupted = GOOD[:-2] + "00"
    with pytest.raises(ChecksumMismatch) as err:
        parse_rmc(corrupted)
    assert err.value.expected == "6A"
    assert err.value.found == "00"


def test_lowercase_checksum_text_is_rejected() -> None:
    with pytest.raises(ChecksumMismatch):
        parse_rmc(GOOD[:-2] + "6a")


def test_unsupported_sentence_type() -> None:
    body = "GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,"
    with pytest.raises(UnsupportedSentence) as err:
        parse_rmc(f"${body}*{xor_checksum(body)}")
    assert err.value.sentence_type == "GPGGA"


def test_missing_and_empty_mandatory_fields() -> None:
    body = "GPRMC,123519,A,4807.038,N"
    with pytest.raises(MissingField):
        parse_rmc(f"${body}*{xor_checksum(body)}")
    body = "GPRMC,123519,A,4807.038,N,01131.000,E,,084.4,230394,,"
    with pytest.raises(MissingField) as err:
        parse_rmc(f"${body}*{xor_checksum(body)}")
    assert err.value.index == 7


@pytest.mark.parametrize("mutation,field", [
    (("4807.038", "9107.038"), "lat"),          # degrees beyond 90
    (("4807.038", "4867.038"), "lat"),          # minutes beyond 60
    (("01131.000", "18131.000"), "lon"),        # degrees beyond 180
    (("022.4", "-22.4"), "speed_knots"),
    (("084.4", "360.0"), "course_deg"),
    (("230394", "23039"), "date"),
    (("123519", "12351"), "utc_time"),
])
def test_malformed_field_values(mutation: tuple[str, str], field: str) -> None:
    old, new = mutation
    body = GOOD[1:-3].replace(old, new)
    with pytest.raises(MalformedNumber) as err:
        parse_rmc(f"${body}*{xor_checksum(body)}")
    assert err.value.field == field


def test_bad_hemisphere_letter() -> None:
    body = GOOD[1:-3].replace(",N,", ",Q,")
    with pytest.raises(MalformedNumber):
        parse_rmc(f"${body}*{xor_checksum(body)}")


@pytest.mark.parametrize("line", [
    "",
    "GPRMC,123519,A*00",
    "$GPRMC,123519,A",                      # no checksum delimiter
    "$GPRMC,123519,A*6",                    # one hex digit
    "$GPRMC,123519,A*6AB",                  # three chars after star
    "$" + "GPRMC," + "x" * 90,              # over the length budget
])
def test_framing_rejections(line: str) -> None:
    with pytest.raises(ParseError):
        parse_rmc(line)


def test_knots_to_kph() -> None:
    assert knots_to_kph(0.0) == 0.0
    assert knots_to_kph(10.0) == 18.52
    with pytest.raises(ContractViolation):
        knots_to_kph(-0.1)


@given(st.floats(min_value=-89.9, max_value=89.9, allow_nan=False),
       st.floats(min_value=-179.9, max_value=179.9, allow_nan=False),
       st.floats(min_value=0.0, max_value=99.9, allow_nan=False),
       st.floats(min_value=0.0, max_value=359.9, allow_nan=False))
def test_generated_sentences_round_trip(lat, lon, knots, course) -> None:
    line = build_rmc(lat, lon, knots, course)
    rmc = parse_rmc(line)
    # minutes carry four decimals, so half an ulp is 0.00005' = 8.4e-7 degrees
    assert rmc.point.lat_deg == pytest.approx(lat, abs=1e-6)
    assert rmc.point.lon_deg == pytest.approx(lon, abs=1e-6)


@given(st.floats(min_value=-89.9, max_value=89.9, allow_nan=False),
       st.integers(min_value=0, max_value=1),
       st.sampled_from("0123456789ABCDEFabcdefgz!"))
def test_any_checksum_character_change_is_rejected(lat, pos, replacement) -> None:
    line = build_rmc(lat, 121.0, 12.0, 45.0)
    stem, check = line[:-2], line[-2:]
    if check[pos] == replacement:
        return
    mutated = stem + (replacement + check[1] if pos == 0 else check[0] + replacement)
    with pytest.raises(ParseError):
        parse_rmc(mutated)


def with_checksum(line: str) -> str:
    """The line with the text after its last '*' replaced by the body's XOR."""
    star = line.rfind("*")
    return line if star == -1 else f"{line[:star]}*{xor_checksum(line[1:star])}"


def good_with(old: str, new: str) -> str:
    return with_checksum(GOOD.replace(old, new, 1))


@st.composite
def rmc_lines(draw) -> str:
    """A generated RMC sentence, then random replace, insert and delete edits."""
    line = build_rmc(draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)),
                     draw(st.floats(0.0, 999.9)), draw(st.floats(0.0, 360.0)),
                     status=draw(st.sampled_from("AV")), talker=draw(st.sampled_from(["GP", "GN"])))
    chars = st.one_of(st.sampled_from("0123456789.,*$NSEWAVGLPR\r\n a\u0663"), st.characters())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            line = line[:at] + draw(chars) + line[at:]
        elif edit == "replace":
            line = line[:at] + draw(chars) + line[at + 1:]
        else:
            line = line[:at] + line[at + 1:]
    if draw(st.integers(0, 9)) < 8:
        line = with_checksum(line)
    return line + draw(st.sampled_from(["", "\r\n", "\n", "\n\r"]))


def outcome(parse, line: str):
    try:
        return repr(parse(line))  # repr tells -0.0 from 0.0
    except ParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@example(good_with("4807.038", "4859.9999"))
@example(good_with("4807.038", "4860.0000"))
@example(good_with("01131.000", "01159.9999"))
@example(good_with("01131.000", "01160.0000"))
@example(good_with("4807.038,N", "9000.0000,N"))
@example(good_with("4807.038,N", "9000.0001,N"))
@example(good_with("4807.038,N", "0000.0000,S"))
@example(good_with("01131.000,E", "18000.0000,E"))
@example(good_with("01131.000,E", "18000.0001,E"))
@example(good_with("084.4", "359.9"))
@example(good_with("084.4", "360.0"))
@example(GOOD[:-2] + "6a")
@example(good_with("003.1,W", "003.1,W,ABCDEFGHIJK"))   # 80 characters
@example(good_with("003.1,W", "003.1,W,ABCDEFGHIJKL"))  # 81 characters
@example(GOOD + "\r\n")
@example(GOOD + "\n\r")
@example(good_with("003.1,W", "003.1,$W"))
@example(GOOD.replace("123519", "12351\u0663")[:-2] + "00")
@example(good_with("GPRMC", "GLRMC"))
@example(good_with("230394,", "230394."))
@example(with_checksum("$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394*"))
@given(rmc_lines())
def test_parse_agrees_with_the_field_walk_oracle(line: str) -> None:
    # the same RmcData, or the same exception type and text
    assert outcome(parse_rmc, line) == outcome(parse_rmc_reference, line)


WELL_FORMED = [
    GOOD,
    build_rmc(-33.8568, -151.2153, 5.0, 90.0, status="V", talker="GN"),
    good_with("4807.038", "4859.9999"),
    good_with("4807.038,N", "9000.0000,N"),
    good_with("01131.000,E", "18000.0000,E"),
    good_with("084.4", "359.9"),
    good_with("003.1,W", "003.1,W,ABCDEFGHIJK"),
    GOOD + "\n\r",
    with_checksum("$GNRMC,123519,V,4807.038,S,01131.000,W,022.4,084.4,230394*"),
]


@pytest.mark.parametrize("line", WELL_FORMED)
def test_well_formed_sentences_skip_the_field_walk(line: str, monkeypatch) -> None:
    # the one-pattern accept path takes every well-formed sentence, edges included
    def walk(sentence: str):
        raise AssertionError(f"field walk reached for {sentence!r}")
    monkeypatch.setattr(nmea, "_parse_fields", walk)
    assert parse_rmc(line) == parse_rmc_reference(line)


@pytest.mark.parametrize("line", WELL_FORMED)
def test_well_formed_sentences_skip_the_rule_loop(line: str, monkeypatch) -> None:
    # an accepted sentence's GeoPoint, RmcData and GpsFix are built directly
    want = repr(to_gps_fix_reference(parse_rmc_reference(line)))

    def rule_loop(record):
        raise AssertionError(f"rule loop reached for {record!r}")
    monkeypatch.setattr(core._RuleChecked, "__post_init__", rule_loop)
    assert repr(to_gps_fix(parse_rmc(line))) == want


@settings(max_examples=400)
@example(GOOD)
@example(good_with("022.4", "000.0"))
@given(rmc_lines())
def test_accepted_sentences_build_the_checked_records(line: str) -> None:
    try:
        rmc = parse_rmc(line)
    except ParseError:
        return
    fix = to_gps_fix(rmc)
    checked = to_gps_fix_reference(rmc)
    assert repr(fix) == repr(checked)
    assert hash(fix) == hash(checked)
    assert repr(rmc.point) == repr(GeoPoint(rmc.point.lat_deg, rmc.point.lon_deg))
    assert [type(getattr(rmc, f.name)) for f in fields(rmc)] == [
        str, str, GeoPoint, float, float, str]
    assert [type(getattr(rmc.point, f.name)) for f in fields(rmc.point)] == [float, float]
    assert [type(getattr(fix, f.name)) for f in fields(fix)] == [GeoPoint, float, bool]
    for record in (rmc.point, rmc, fix):
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


class PointSubclass(GeoPoint):
    __slots__ = ()


class KnotsSubclass(float):
    __slots__ = ()


class LooseStatus(str):
    """A status whose == gives an int, which GpsFix refuses as its validity."""

    def __eq__(self, other):
        return 1

    __hash__ = str.__hash__


def converted(convert, rmc: RmcData):
    try:
        return repr(convert(rmc))
    except ContractViolation as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("point,knots,status,direct", [
    (GeoPoint(48.1173, 11.5167), 22.4, "A", True),
    (GeoPoint(48.1173, 11.5167), -0.0, "A", True),  # 0.0 <= -0.0: the same -0.0 kph
    (GeoPoint(48.1173, 11.5167), -0.1, "A", False),
    (GeoPoint(48.1173, 11.5167), float("nan"), "A", False),
    (GeoPoint(48.1173, 11.5167), float("inf"), "V", False),
    (GeoPoint(48.1173, 11.5167), 1e308, "A", False),  # finite knots, infinite kph
    (GeoPoint(48.1173, 11.5167), 5, "A", False),
    (GeoPoint(48.1173, 11.5167), True, "A", False),
    (GeoPoint(48.1173, 11.5167), KnotsSubclass(22.4), "A", False),
    ((48.1173, 11.5167), 22.4, "A", False),
    (PointSubclass(48.1173, 11.5167), 22.4, "A", False),
    (GeoPoint(48.1173, 11.5167), 22.4, LooseStatus("A"), False),
], ids=["float", "negative_zero", "negative", "nan", "inf", "kph_overflow", "int", "bool",
        "float_subclass", "tuple_point", "point_subclass", "loose_status"])
def test_hand_built_rmc_data_converts_as_the_checked_constructor(
        point, knots, status, direct: bool, monkeypatch) -> None:
    # anything the direct build cannot prove goes through knots_to_kph and
    # GpsFix, with the checked path's value or exception text
    rmc = RmcData("123519", status, point, knots, 84.4, "230394")
    want = converted(to_gps_fix_reference, rmc)
    calls = []
    monkeypatch.setattr(nmea, "knots_to_kph", lambda k: calls.append(k) or knots_to_kph(k))
    assert converted(to_gps_fix, rmc) == want
    assert calls == ([] if direct else [knots])
