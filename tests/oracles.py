"""Brute-force reference implementations the tests compare the package with.

Each detector oracle recomputes the expected trigger positions from the
whole trace at once, with no incremental state, so a disagreement points at
the package's state machines rather than at a shared bug. The matcher and
decoding oracles are the plain, slower forms of the package's fast paths.
"""

from __future__ import annotations

import json
import math

from motoguard.core import ContractViolation, ControllerConfig, event_from_record
from motoguard.harness import SchemaError


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
