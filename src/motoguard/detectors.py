"""Pure detector logic: each function maps (state, sample) to (state, finding).

A finding is a Trigger that carries its alert text, except for the crash
latch, which returns a bare ``fired`` flag: the crash text names the last GPS
fix, which only the controller holds. ``preride_faults`` turns a pre-ride
window's per-gas peak into its faults, an empty list meaning the rider may go.

Nothing here touches hardware or a clock; the controller owns sequencing and
mode gating. Keeping the detectors pure is what makes replay byte-stable and
lets the brute-force oracle tests compare whole trigger sequences.
"""

from __future__ import annotations

import math

from .core import (AlertKind, ContractViolation, ControllerConfig, GasReading, GeoPoint, GpsFix,
                   Record)

EARTH_RADIUS_M = 6_371_000.0


class Trigger(Record):
    kind: AlertKind
    message: str


# --- forward collision (rear-facing lidar) --------------------------------

class CollisionState(Record):
    prev_range_m: float | None = None
    prev_t_ms: int | None = None
    last_ttc_s: float | None = None


def ttc(range_m: float, closing_speed_mps: float) -> float | None:
    """Time to collision in seconds, or None when the target is not closing.

    A range of zero with positive closing speed is contact, i.e. 0.0.
    """
    if range_m < 0:
        raise ContractViolation(f"range must be >= 0: {range_m!r}")
    if closing_speed_mps <= 0:
        return None
    return range_m / closing_speed_mps


def collision_step(state: CollisionState, range_m: float, t_ms: int,
                   cfg: ControllerConfig) -> tuple[CollisionState, Trigger | None]:
    """Update range tracking and warn when projected impact is near."""
    if range_m < 0:
        raise ContractViolation(f"range must be >= 0: {range_m!r}")
    if state.prev_t_ms is None:
        return CollisionState(range_m, t_ms, None), None
    dt_ms = t_ms - state.prev_t_ms
    if dt_ms < 0:
        raise ContractViolation("lidar samples out of order")
    if dt_ms == 0:
        # same-instant sample carries no rate information; drop it
        return state, None
    closing_mps = (state.prev_range_m - range_m) / (dt_ms / 1000.0)
    ttc_s = ttc(range_m, closing_mps)
    trigger = None
    if ttc_s is not None and ttc_s < cfg.ttc_warn_s:
        trigger = Trigger(AlertKind.COLLISION,
                          f"COLLISION ttc={ttc_s:.2f}s range={range_m:.1f}m")
    return CollisionState(range_m, t_ms, ttc_s), trigger


# --- vehicle presence (magnetometer) --------------------------------------

class MagState(Record):
    calib: tuple[float, ...] = ()
    baseline_ut: float | None = None
    consecutive_deviant: int = 0


def mag_step(state: MagState, b_ut: float,
             cfg: ControllerConfig) -> tuple[MagState, Trigger | None]:
    """Flag a nearby large ferrous object after a persistent field deviation.

    The first mag_calib_samples readings only build the baseline (their mean);
    detection starts with the sample after calibration completes.
    """
    if state.baseline_ut is None:
        calib = state.calib + (b_ut,)
        baseline = None
        if len(calib) == cfg.mag_calib_samples:
            baseline = sum(calib) / len(calib)
        return MagState(calib, baseline, 0), None
    deviation = abs(b_ut - state.baseline_ut)
    if deviation <= cfg.mag_deviation_ut:
        if state.consecutive_deviant == 0:
            return state, None
        return state._replace(consecutive_deviant=0), None
    trigger = None
    if state.consecutive_deviant == cfg.mag_persist_samples - 1:
        trigger = Trigger(AlertKind.VEHICLE_PROXIMITY,
                          f"VEHICLE NEAR deviation={deviation:.1f}uT")
    count = min(state.consecutive_deviant + 1, cfg.mag_persist_samples)
    return state._replace(consecutive_deviant=count), trigger


# --- road hazard (PIR, speed gated) ---------------------------------------

def hazard_step(detected: bool, speed_kph: float,
                cfg: ControllerConfig) -> Trigger | None:
    """PIR motion only matters at riding speed; walking-pace hits are noise."""
    if detected and speed_kph > cfg.pir_speed_gate_kph:
        return Trigger(AlertKind.ROAD_HAZARD,
                       f"ROAD HAZARD motion at {speed_kph:.1f}kph")
    return None


# --- pre-ride gas check ---------------------------------------------------

def preride_faults(peak: GasReading, cfg: ControllerConfig) -> list[Trigger]:
    """Faults in a pre-ride window's per-gas peak; an empty list means ride.

    Both thresholds are inclusive: a peak at the limit fails.
    """
    faults = []
    if peak.ethanol_ppm >= cfg.ethanol_lockout_ppm:
        faults.append(Trigger(AlertKind.ALCOHOL_LOCKOUT,
                              f"ALCOHOL LOCKOUT peak={peak.ethanol_ppm:.1f}ppm "
                              f"limit={cfg.ethanol_lockout_ppm:.1f}ppm"))
    if peak.lpg_ppm >= cfg.lpg_leak_ppm:
        faults.append(Trigger(AlertKind.GAS_LEAK,
                              f"GAS LEAK lpg={peak.lpg_ppm:.1f}ppm "
                              f"limit={cfg.lpg_leak_ppm:.1f}ppm"))
    return faults


# --- overspeed with hysteresis --------------------------------------------

def overspeed_step(active: bool, speed_kph: float,
                   cfg: ControllerConfig) -> tuple[bool, Trigger | None]:
    """One trigger per excursion above the limit.

    The excursion ends only when speed drops below limit minus the
    hysteresis band, so jitter around the limit cannot re-trigger.
    """
    if not active:
        if speed_kph > cfg.speed_limit_kph:
            return True, Trigger(AlertKind.OVERSPEED,
                                 f"OVERSPEED {speed_kph:.1f}kph "
                                 f"limit={cfg.speed_limit_kph:.1f}kph")
        return False, None
    if speed_kph < cfg.speed_limit_kph - cfg.speed_hysteresis_kph:
        return False, None
    return True, None


# --- crash (tilt held while stopped) --------------------------------------

class CrashState(Record):
    over_tilt_since_ms: int | None = None
    fired: bool = False


_UPRIGHT = CrashState()  # the state of every sample outside the gates


def crash_step(state: CrashState, tilt_deg: float, speed_kph: float, t_ms: int,
               cfg: ControllerConfig) -> tuple[CrashState, bool]:
    """Latch on sustained extreme tilt at near-zero speed.

    Any sample outside either gate clears the latch; ``fired`` is True once
    per latched episode, on the sample that first reaches the hold time.
    """
    if not (tilt_deg >= cfg.crash_tilt_deg and speed_kph <= cfg.crash_speed_max_kph):
        return _UPRIGHT, False
    since = state.over_tilt_since_ms if state.over_tilt_since_ms is not None else t_ms
    fired = not state.fired and t_ms - since >= cfg.crash_hold_ms
    return CrashState(since, state.fired or fired), fired


# --- overtake assist -------------------------------------------------------

def overtake_assist(rear_ttc_s: float | None, side_vehicle: bool,
                    cfg: ControllerConfig) -> bool:
    """True (unsafe) when a vehicle sits alongside or closes fast from behind."""
    return side_vehicle or (rear_ttc_s is not None and rear_ttc_s < cfg.ttc_warn_s)


# --- anti-theft geofence and hourly beacon --------------------------------

class TheftState(Record):
    armed: bool = False
    parked_point: GeoPoint | None = None
    last_beacon_t_ms: int | None = None
    alarmed: bool = False


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a 6371 km sphere."""
    lat1, lat2 = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlat = math.radians(b.lat_deg - a.lat_deg)
    dlon = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def theft_step(state: TheftState, fix: GpsFix, ignition_on: bool, authorized: bool,
               t_ms: int, cfg: ControllerConfig) -> tuple[TheftState, list[Trigger]]:
    """Arm while parked unauthorized; then geofence breach and hourly beacons.

    Invalid fixes are ignored outright: a bad fix must never arm, alarm, or
    move the beacon schedule. The beacon clock advances by whole periods so
    sparse fixes cannot drift the hourly count.
    """
    if not fix.valid:
        return state, []
    if authorized:
        return TheftState(), []
    if not state.armed:
        if not ignition_on:
            return TheftState(armed=True, parked_point=fix.point,
                              last_beacon_t_ms=t_ms, alarmed=False), []
        return state, []

    triggers: list[Trigger] = []
    new = state
    if not state.alarmed:  # once alarmed, the distance is never read
        distance = haversine_m(state.parked_point, fix.point)
        if distance > cfg.geofence_radius_m:
            triggers.append(Trigger(
                AlertKind.THEFT,
                f"THEFT moved {distance:.1f}m from "
                f"{state.parked_point.lat_deg:.6f},{state.parked_point.lon_deg:.6f} to "
                f"{fix.point.lat_deg:.6f},{fix.point.lon_deg:.6f}"))
            new = new._replace(alarmed=True)
    if t_ms - new.last_beacon_t_ms >= cfg.beacon_period_ms:
        triggers.append(Trigger(
            AlertKind.BEACON,
            f"BEACON at {fix.point.lat_deg:.6f},{fix.point.lon_deg:.6f} t={t_ms}"))
        new = new._replace(last_beacon_t_ms=new.last_beacon_t_ms + cfg.beacon_period_ms)
    return new, triggers
