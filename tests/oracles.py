"""Brute-force reference implementations the tests compare the package with.

Each detector oracle recomputes the expected trigger positions from the
whole trace at once, with no incremental state, so a disagreement points at
the package's state machines rather than at a shared bug. The matcher and
decoding oracles are the plain, slower forms of the package's fast paths.
"""

from __future__ import annotations

import json
import math
import re
from functools import reduce
from operator import xor

from motoguard.core import ContractViolation, ControllerConfig, GeoPoint, event_from_record
from motoguard.harness import SchemaError
from motoguard.nmea import (MAX_SENTENCE_CHARS, ChecksumMismatch, MalformedNumber,
                            MissingField, ParseError, RmcData, UnsupportedSentence)


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


def json_lines_reference(text: str) -> list:
    """Expected events of a scenario text, by json.loads per line.

    Raises SchemaError(line, reason) for the first line that is not JSON or
    whose record is not an event, with the reason loads_scenario gives.
    The first JSON line is the header; it is not checked, so callers give a
    valid one.
    """
    header = None
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
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
