from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from motoguard.core import ContractViolation
from motoguard.nmea import (ChecksumMismatch, MalformedNumber, MissingField, ParseError,
                            UnsupportedSentence, checksum, knots_to_kph, parse_rmc,
                            to_gps_fix)
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
