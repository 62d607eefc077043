"""NMEA 0183 RMC sentence parsing with strict checksum verification.

Only the recommended-minimum sentence ($GPRMC / $GNRMC) is understood; it
carries everything the controller consumes (position, speed, validity).
A sentence is accepted only whole: every field well formed and in range,
and the checksum matching. Anything else raises a ParseError and yields no
data, so a corrupted sentence can never half-parse.

The grammar of fields 1-9 is written once, in the table _FIELDS: each
row names a field and gives its shape and, for a coordinate or the course,
its limit. The accept pattern is built from those shapes, and the accept
test and the rejection walk read the same limits.

An accepted sentence is checked once. Its one pattern proves every field's
shape, and one test bounds its minutes, coordinates and course and compares
the checksum, so its GeoPoint and RmcData are built directly: each field goes
into its slot through the class's _unchecked (see core.Record), without the
GeoPoint rule loop testing the same bounds again. to_gps_fix builds the GpsFix
of such a record the same way. The checksum XORs the body's bytes by folding
them as one int, not byte by byte. Every other sentence goes to the rejection
walk, which names only the first fault and checks body characters one by one:
it builds no record, and a sentence it finds no fault in is an internal error.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .core import _MAX, ContractViolation, GeoPoint, GpsFix, Record

KNOTS_TO_KPH = 1.852
MAX_SENTENCE_CHARS = 80  # excluding CR/LF; 82 on the wire

_SUPPORTED_TYPES = ("GPRMC", "GNRMC")

# A coordinate's minutes stay below one degree; its value may reach its limit
# (90 or 180 degrees), while the course stays below 360.
_MINUTES_PER_DEGREE = 60.0
_LAT_MAX = 90.0
_LON_MAX = 180.0
_COURSE_MAX = 360.0

# RMC fields 1-9 in order: the name a rejection gives, the shape in ASCII
# digits only, and the limit, if any. A coordinate's shape splits its degrees
# from its minutes, and the shapes' groups are the ones parse_rmc unpacks.
_FIELDS = (
    ("utc_time", r"([0-9]{6}(?:\.[0-9]+)?)", None),
    ("status", r"([AV])", None),
    ("lat", r"([0-9]{2})([0-9]{2}(?:\.[0-9]+)?)", _LAT_MAX),
    ("lat_hemisphere", r"([NS])", None),
    ("lon", r"([0-9]{3})([0-9]{2}(?:\.[0-9]+)?)", _LON_MAX),
    ("lon_hemisphere", r"([EW])", None),
    ("speed_knots", r"([0-9]+(?:\.[0-9]+)?)", None),
    ("course_deg", r"([0-9]+(?:\.[0-9]+)?)", _COURSE_MAX),
    ("date", r"([0-9]{6})", None),
)

# The whole accepted shape in one pattern: talker, the fields above, optional
# trailing fields of printable ASCII other than '$' and '*', and an uppercase
# checksum.
_RMC_RE = re.compile(
    r"\$G[PN]RMC," + ",".join(shape for _, shape, _ in _FIELDS)
    + r"(?:,[\x20-\x23\x25-\x29\x2b-\x7e]*)?"
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


class RmcData(Record):
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
    for ch in body:
        code = ord(ch)
        if code < 0x20 or code > 0x7E or ch in "$*":
            raise ParseError(f"invalid body character: {ch!r}")
    return _xor_hex(body)


_LOW_512_BITS = (1 << 512) - 1


def _xor_hex(body: str) -> str:
    """checksum() of an ASCII body, by folding: the body's bytes read as one
    int, whose halves are XORed together until one byte is left.

    Every shift is a whole number of bytes, so each fold keeps the XOR of all
    the bytes. The loop folds whatever lies above the low 512 bits onto them,
    so a body of any length ends in the six fixed folds below."""
    n = int.from_bytes(body.encode("ascii"), "little")
    while high := n >> 512:
        n = high ^ (n & _LOW_512_BITS)
    n ^= n >> 256
    n ^= n >> 128
    n ^= n >> 64
    n ^= n >> 32
    n ^= n >> 16
    n ^= n >> 8
    return "%02X" % (n & 0xFF)


def knots_to_kph(knots: float) -> float:
    if knots < 0:
        raise ContractViolation(f"speed must be >= 0 knots: {knots!r}")
    return knots * KNOTS_TO_KPH


def parse_rmc(line: str) -> RmcData:
    """Parse one RMC sentence; any rejection raises a ParseError subclass."""
    sentence = line.rstrip("\r\n")
    if len(sentence) <= MAX_SENTENCE_CHARS and (match := _RMC_RE.fullmatch(sentence)):
        (utc_time, status, lat_deg, lat_min, ns, lon_deg, lon_min, ew,
         speed, course, date, found) = match.groups()
        lat_minutes = float(lat_min)
        lon_minutes = float(lon_min)
        lat = int(lat_deg) + lat_minutes / _MINUTES_PER_DEGREE
        lon = int(lon_deg) + lon_minutes / _MINUTES_PER_DEGREE
        course_deg = float(course)
        if (lat_minutes < _MINUTES_PER_DEGREE and lon_minutes < _MINUTES_PER_DEGREE
                and lat <= _LAT_MAX and lon <= _LON_MAX and course_deg < _COURSE_MAX
                and _xor_hex(sentence[1:-3]) == found):
            # built without the GeoPoint rule loop: the test above holds its bounds
            point = GeoPoint._unchecked(-lat if ns == "S" else lat, -lon if ew == "W" else lon)
            return RmcData._unchecked(utc_time, status, point, float(speed), course_deg, date)
    # the field walk is the one source of rejection reasons
    _parse_fields(sentence)


def _parse_fields(sentence: str) -> NoReturn:
    """Walk a sentence parse_rmc refused, field by field; raise the first ParseError."""
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

    for (name, shape, limit), text in zip(_FIELDS, parts[1:10]):
        match = re.fullmatch(shape, text)
        if match is None:
            raise MalformedNumber(name, text)
        if limit is None:
            continue
        if match.lastindex == 2:  # a coordinate: degrees, then minutes
            minutes = float(match[2])
            bad = (minutes >= _MINUTES_PER_DEGREE
                   or int(match[1]) + minutes / _MINUTES_PER_DEGREE > limit)
        else:
            bad = float(text) >= limit
        if bad:
            raise MalformedNumber(name, text)
    # parse_rmc accepts every sentence that has no fault above
    raise ContractViolation(f"field walk found no fault in {sentence!r}")


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
            return GpsFix._unchecked(point, kph, valid)
    return GpsFix(point=point, speed_kph=knots_to_kph(knots), valid=valid)
