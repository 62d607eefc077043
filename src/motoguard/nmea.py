"""NMEA 0183 RMC sentence parsing with strict checksum verification.

Only the recommended-minimum sentence ($GPRMC / $GNRMC) is understood; it
carries everything the controller consumes (position, speed, validity).
A sentence is accepted only whole: every field well formed and in range,
and the checksum matching. Anything else raises a ParseError and yields no
data, so a corrupted sentence can never half-parse.

An accepted sentence is checked once. Its one pattern proves every field's
shape, and one test bounds its minutes, coordinates and course, so its
GeoPoint and RmcData are built directly, without the GeoPoint rule loop
testing the same bounds again. Only the rejection walk, which names the
first bad field, takes the checked constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import xor

from .core import _MAX, ContractViolation, GeoPoint, GpsFix, _new, _set

KNOTS_TO_KPH = 1.852
MAX_SENTENCE_CHARS = 80  # excluding CR/LF; 82 on the wire

_SUPPORTED_TYPES = ("GPRMC", "GNRMC")

_UTC_RE = re.compile(r"^\d{6}(\.\d+)?$")
_LAT_RE = re.compile(r"^\d{4}(\.\d+)?$")
_LON_RE = re.compile(r"^\d{5}(\.\d+)?$")
_NUM_RE = re.compile(r"^\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{6}$")

# The whole accepted shape in one pattern, in ASCII digits only: talker,
# fields 1-9 with the shapes above, hemispheres split from degree and minute
# groups, optional trailing fields of printable ASCII other than '$' and '*',
# and an uppercase checksum.
_RMC_RE = re.compile(
    r"\$G[PN]RMC"
    r",([0-9]{6}(?:\.[0-9]+)?),([AV])"
    r",([0-9]{2})([0-9]{2}(?:\.[0-9]+)?),([NS])"
    r",([0-9]{3})([0-9]{2}(?:\.[0-9]+)?),([EW])"
    r",([0-9]+(?:\.[0-9]+)?),([0-9]+(?:\.[0-9]+)?),([0-9]{6})"
    r"(?:,[\x20-\x23\x25-\x29\x2b-\x7e]*)?"
    r"\*([0-9A-F]{2})")


class ParseError(ValueError):
    """Base for every sentence rejection; always carries a reason."""


class ChecksumMismatch(ParseError):
    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(f"checksum mismatch: expected {expected}, found {found}")


class MissingField(ParseError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"missing mandatory field at index {index}")


class MalformedNumber(ParseError):
    def __init__(self, field: str, value: str):
        self.field = field
        self.value = value
        super().__init__(f"malformed {field}: {value!r}")


class UnsupportedSentence(ParseError):
    def __init__(self, sentence_type: str):
        self.sentence_type = sentence_type
        super().__init__(f"unsupported sentence type: {sentence_type!r}")


@dataclass(frozen=True, slots=True)
class RmcData:
    utc_time: str
    status: str
    point: GeoPoint
    speed_knots: float
    course_deg: float
    date: str


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
    return _xor_hex(body)


def _xor_hex(body: str) -> str:
    # the caller guarantees an ASCII body
    return "%02X" % reduce(xor, body.encode("ascii"), 0)


def knots_to_kph(knots: float) -> float:
    if knots < 0:
        raise ContractViolation(f"speed must be >= 0 knots: {knots!r}")
    return knots * KNOTS_TO_KPH


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


def parse_rmc(line: str) -> RmcData:
    """Parse one RMC sentence; any rejection raises a ParseError subclass."""
    sentence = line.rstrip("\r\n")
    if len(sentence) <= MAX_SENTENCE_CHARS and (match := _RMC_RE.fullmatch(sentence)):
        (utc_time, status, lat_deg, lat_min, ns, lon_deg, lon_min, ew,
         speed, course, date, found) = match.groups()
        lat_minutes = float(lat_min)
        lon_minutes = float(lon_min)
        lat = int(lat_deg) + lat_minutes / 60.0
        lon = int(lon_deg) + lon_minutes / 60.0
        course_deg = float(course)
        if (lat_minutes < 60.0 and lon_minutes < 60.0 and lat <= 90.0 and lon <= 180.0
                and course_deg < 360.0 and _xor_hex(sentence[1:-3]) == found):
            # built the way a frozen dataclass __init__ builds them, minus the
            # GeoPoint rule loop: the test above holds its bounds
            point = _new(GeoPoint)
            _set(point, "lat_deg", -lat if ns == "S" else lat)
            _set(point, "lon_deg", -lon if ew == "W" else lon)
            rmc = _new(RmcData)
            _set(rmc, "utc_time", utc_time)
            _set(rmc, "status", status)
            _set(rmc, "point", point)
            _set(rmc, "speed_knots", float(speed))
            _set(rmc, "course_deg", course_deg)
            _set(rmc, "date", date)
            return rmc
    # the field walk is the one source of rejection reasons
    return _parse_fields(sentence)


def _parse_fields(sentence: str) -> RmcData:
    """Walk a stripped sentence field by field; raise the first ParseError it hits."""
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


def to_gps_fix(rmc: RmcData) -> GpsFix:
    """Convert parsed RMC data into the controller's GpsFix sample.

    The fix of an accepted sentence is built once, without a second check:
    parse_rmc gives an exact GeoPoint and exact float knots, and when their
    kph is a finite non-negative float and the validity a bool, GpsFix's
    rules would pass all three unchanged. Any other RmcData, such as a
    hand-built one, goes through knots_to_kph and the checked constructor
    and raises what they raise.
    """
    point, knots, valid = rmc.point, rmc.speed_knots, rmc.status == "A"
    if type(point) is GeoPoint and type(knots) is float and type(valid) is bool:
        kph = knots * KNOTS_TO_KPH
        if 0.0 <= kph <= _MAX:
            fix = _new(GpsFix)
            _set(fix, "point", point)
            _set(fix, "speed_kph", kph)
            _set(fix, "valid", valid)
            return fix
    return GpsFix(point=point, speed_kph=knots_to_kph(knots), valid=valid)
