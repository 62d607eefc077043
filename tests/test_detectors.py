from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from motoguard import detectors
from motoguard.controller import ControllerState, Mode, step
from motoguard.core import (AlertKind, Auth, ContractViolation, ControllerConfig, GasReading,
                            GeoPoint, GpsFix, Ignition, SensorEvent)
from motoguard.detectors import (CollisionState, CrashState, MagState, TheftState, Trigger,
                                 collision_step, crash_step, haversine_m, hazard_step,
                                 mag_step, overspeed_step, overtake_assist, preride_faults,
                                 theft_step, ttc)
from oracles import (breath_fails, crash_trigger_times, leak_fails, mag_trigger_indices,
                     overspeed_trigger_indices, theft_trigger_times)


# --- time to collision -----------------------------------------------------

def test_ttc_examples() -> None:
    assert ttc(100.0, 10.0) == 10.0
    assert ttc(0.0, 5.0) == 0.0
    assert ttc(100.0, 0.0) is None
    assert ttc(100.0, -5.0) is None
    with pytest.raises(ContractViolation):
        ttc(-1.0, 5.0)


@given(st.floats(min_value=0.1, max_value=500.0),
       st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.1, max_value=50.0))
def test_ttc_shrinks_as_closing_speed_grows(range_m, c1, c2) -> None:
    lo, hi = sorted((c1, c2))
    assert ttc(range_m, hi) <= ttc(range_m, lo)


def run_collision(trace: list[tuple[int, float]], cfg: ControllerConfig):
    state = CollisionState()
    triggers = []
    for t_ms, range_m in trace:
        state, trig = collision_step(state, range_m, t_ms, cfg)
        if trig is not None:
            triggers.append((t_ms, trig))
    return state, triggers


def test_collision_closing_target_warns(cfg: ControllerConfig) -> None:
    state, triggers = run_collision([(0, 20.0), (1000, 10.0)], cfg)
    assert [t for t, _ in triggers] == [1000]
    assert triggers[0][1].kind is AlertKind.COLLISION
    assert triggers[0][1].message == "COLLISION ttc=1.00s range=10.0m"
    assert state.last_ttc_s == 1.0


def test_collision_receding_target_is_quiet(cfg: ControllerConfig) -> None:
    state, triggers = run_collision([(0, 10.0), (1000, 20.0)], cfg)
    assert triggers == []
    assert state.last_ttc_s is None


def test_collision_slow_closing_stays_below_warning(cfg: ControllerConfig) -> None:
    # 1 m/s closing at 10 m leaves 10 s, far beyond the 2 s warning line
    _, triggers = run_collision([(0, 11.0), (1000, 10.0)], cfg)
    assert triggers == []


def test_collision_same_instant_sample_is_dropped(cfg: ControllerConfig) -> None:
    state, _ = collision_step(CollisionState(), 20.0, 0, cfg)
    after, trig = collision_step(state, 5.0, 0, cfg)
    assert after is state
    assert trig is None


def test_collision_rejects_bad_input(cfg: ControllerConfig) -> None:
    with pytest.raises(ContractViolation):
        collision_step(CollisionState(), -0.5, 0, cfg)
    state, _ = collision_step(CollisionState(), 20.0, 1000, cfg)
    with pytest.raises(ContractViolation):
        collision_step(state, 10.0, 500, cfg)


# --- magnetometer proximity ------------------------------------------------

def run_mag(values: list[float], cfg: ControllerConfig) -> list[int]:
    state = MagState()
    hits = []
    for idx, b in enumerate(values):
        state, trig = mag_step(state, b, cfg)
        if trig is not None:
            hits.append(idx)
    return hits


def test_mag_triggers_once_after_persistent_deviation(cfg: ControllerConfig) -> None:
    values = [50.0] * 20 + [60.0, 60.0, 60.0, 60.0, 60.0]
    assert run_mag(values, cfg) == [22]


def test_mag_short_blips_are_ignored(cfg: ControllerConfig) -> None:
    values = [50.0] * 20 + [60.0, 60.0, 50.0, 60.0, 60.0, 50.0]
    assert run_mag(values, cfg) == []


def test_mag_retriggers_after_field_settles(cfg: ControllerConfig) -> None:
    values = [50.0] * 20 + [60.0] * 3 + [50.0] * 2 + [42.0] * 3
    assert run_mag(values, cfg) == [22, 27]


def test_mag_deviation_at_the_threshold_is_not_deviant(cfg: ControllerConfig) -> None:
    values = [50.0] * 20 + [50.0 + cfg.mag_deviation_ut] * 5 + [50.0 - cfg.mag_deviation_ut] * 5
    assert run_mag(values, cfg) == []


def test_mag_calibration_swallows_wild_samples(cfg: ControllerConfig) -> None:
    state = MagState()
    for b in [50.0, 500.0, 0.0] * 6:
        state, trig = mag_step(state, b, cfg)
        assert trig is None
    assert state.baseline_ut is None  # 18 of 20 samples so far


def test_mag_baseline_is_calibration_mean(cfg: ControllerConfig) -> None:
    state = MagState()
    for b in [40.0] * 10 + [60.0] * 10:
        state, _ = mag_step(state, b, cfg)
    assert state.baseline_ut == 50.0


def test_mag_message_carries_deviation(cfg: ControllerConfig) -> None:
    state = MagState()
    trig = None
    for b in [50.0] * 20 + [57.5] * 3:
        state, trig = mag_step(state, b, cfg)
    assert trig is not None
    assert trig.message == "VEHICLE NEAR deviation=7.5uT"


# --- PIR road hazard -------------------------------------------------------

@pytest.mark.parametrize("detected,speed,expect", [
    (True, 15.0, True),
    (True, 10.0, False),   # gate is strict
    (True, 3.0, False),
    (False, 50.0, False),
])
def test_hazard_speed_gate(cfg: ControllerConfig, detected, speed, expect) -> None:
    trig = hazard_step(detected, speed, cfg)
    assert (trig is not None) == expect


def test_hazard_message(cfg: ControllerConfig) -> None:
    trig = hazard_step(True, 42.0, cfg)
    assert trig is not None
    assert trig.kind is AlertKind.ROAD_HAZARD
    assert trig.message == "ROAD HAZARD motion at 42.0kph"


# --- pre-ride gas check ----------------------------------------------------

def gas(ethanol: float = 0.0, lpg: float = 0.0) -> GasReading:
    return GasReading(ethanol_ppm=ethanol, co_ppm=0.0, lpg_ppm=lpg)


def test_breath_threshold_is_inclusive(cfg: ControllerConfig) -> None:
    assert preride_faults(gas(ethanol=149.9), cfg) == []
    assert preride_faults(gas(ethanol=150.0), cfg) == [
        Trigger(AlertKind.ALCOHOL_LOCKOUT, "ALCOHOL LOCKOUT peak=150.0ppm limit=150.0ppm")]


def test_gas_leak_threshold_is_inclusive(cfg: ControllerConfig) -> None:
    assert preride_faults(gas(lpg=999.9), cfg) == []
    assert preride_faults(gas(lpg=1000.0), cfg) == [
        Trigger(AlertKind.GAS_LEAK, "GAS LEAK lpg=1000.0ppm limit=1000.0ppm")]


def preride_outcome(readings: list[GasReading],
                    cfg: ControllerConfig) -> tuple[Mode, list[AlertKind]]:
    """Mode and alert kinds after step folds readings into one pre-ride window.

    The readings are spread over the window and the last one closes it.
    """
    state, _, _ = step(cfg, ControllerState(), 0,
                       [SensorEvent(0, Auth(True)), SensorEvent(0, Ignition(True))])
    kinds: list[AlertKind] = []
    gap = cfg.preride_window_ms // len(readings)
    for idx, reading in enumerate(readings):
        t_ms = cfg.preride_window_ms if idx == len(readings) - 1 else idx * gap
        state, alerts, _ = step(cfg, state, t_ms, [SensorEvent(t_ms, reading)])
        kinds += [a.kind for a in alerts]
    return state.mode, kinds


# --- overspeed hysteresis --------------------------------------------------

def run_overspeed(speeds: list[float], cfg: ControllerConfig) -> list[int]:
    active = False
    hits = []
    for idx, speed in enumerate(speeds):
        active, trig = overspeed_step(active, speed, cfg)
        if trig is not None:
            hits.append(idx)
    return hits


def test_overspeed_one_trigger_per_excursion(cfg: ControllerConfig) -> None:
    speeds = [70.0, 85.0, 82.0, 77.0, 85.0, 70.0, 73.0, 86.0]
    assert run_overspeed(speeds, cfg) == [1, 7]


def test_overspeed_boundaries(cfg: ControllerConfig) -> None:
    assert run_overspeed([80.0], cfg) == []           # at the limit is legal
    assert run_overspeed([80.1], cfg) == [0]
    # 75.0 sits on the clear line and must not end the excursion
    assert run_overspeed([81.0, 75.0, 81.0], cfg) == [0]
    assert run_overspeed([81.0, 74.9, 81.0], cfg) == [0, 2]


def test_overspeed_message(cfg: ControllerConfig) -> None:
    _, trig = overspeed_step(False, 92.3, cfg)
    assert trig is not None
    assert trig.message == "OVERSPEED 92.3kph limit=80.0kph"


# --- crash latch -----------------------------------------------------------

def run_crash(samples: list[tuple[int, float, float]],
              cfg: ControllerConfig) -> list[int]:
    state = CrashState()
    hits = []
    for t_ms, tilt, speed in samples:
        state, fired = crash_step(state, tilt, speed, t_ms, cfg)
        if fired:
            hits.append(t_ms)
    return hits


def test_crash_fires_at_hold_time(cfg: ControllerConfig) -> None:
    samples = [(t, 80.0, 0.0) for t in (0, 1000, 2000, 3000, 4000)]
    assert run_crash(samples, cfg) == [3000]


def test_crash_tilt_at_the_threshold_latches(cfg: ControllerConfig) -> None:
    samples = [(t, cfg.crash_tilt_deg, 0.0) for t in (0, 1000, 2000, 3000)]
    assert run_crash(samples, cfg) == [3000]


def test_crash_dip_resets_the_clock(cfg: ControllerConfig) -> None:
    samples = [(0, 80.0, 0.0), (1000, 80.0, 0.0), (2000, 30.0, 0.0),
               (3000, 80.0, 0.0), (4000, 80.0, 0.0), (5000, 80.0, 0.0),
               (6000, 80.0, 0.0)]
    assert run_crash(samples, cfg) == [6000]


def test_crash_speed_gate(cfg: ControllerConfig) -> None:
    # leaning hard at speed is cornering, not a crash
    samples = [(t, 80.0, 40.0) for t in (0, 1000, 2000, 3000, 4000)]
    assert run_crash(samples, cfg) == []
    samples = [(t, 80.0, 5.0) for t in (0, 1000, 2000, 3000)]
    assert run_crash(samples, cfg) == [3000]


def test_crash_two_episodes_fire_twice(cfg: ControllerConfig) -> None:
    down = [(t, 90.0, 0.0) for t in (0, 1500, 3000)]
    up = [(4000, 10.0, 0.0)]
    again = [(t, 90.0, 0.0) for t in (5000, 6500, 8000)]
    assert run_crash(down + up + again, cfg) == [3000, 8000]


# --- overtake assist -------------------------------------------------------

@pytest.mark.parametrize("rear_ttc,side,expect", [
    (None, False, False),
    (None, True, True),
    (1.9, False, True),
    (2.0, False, False),   # strictly below the warning line only
    (5.0, True, True),
])
def test_overtake_assist(cfg: ControllerConfig, rear_ttc, side, expect) -> None:
    assert overtake_assist(rear_ttc, side, cfg) is expect


# --- geofence distance -----------------------------------------------------

def test_haversine_known_distance() -> None:
    d = haversine_m(GeoPoint(0.0, 0.0), GeoPoint(0.001, 0.0))
    assert d == pytest.approx(111.19, abs=0.01)


def test_haversine_degenerate_and_symmetric() -> None:
    p = GeoPoint(14.5995, 120.9842)
    q = GeoPoint(14.6005, 120.9852)
    assert haversine_m(p, p) == 0.0
    assert haversine_m(p, q) == haversine_m(q, p)


@given(st.floats(min_value=-89.0, max_value=89.0),
       st.floats(min_value=-179.0, max_value=179.0),
       st.floats(min_value=-0.01, max_value=0.01),
       st.floats(min_value=-0.01, max_value=0.01))
def test_haversine_nonnegative_and_small_locally(lat, lon, dlat, dlon) -> None:
    a = GeoPoint(lat, lon)
    b = GeoPoint(lat + dlat, lon + dlon)
    d = haversine_m(a, b)
    assert d >= 0.0
    assert d < 4000.0  # 0.01 degrees is under two kilometers on either axis


# --- anti-theft ------------------------------------------------------------

PARK = GeoPoint(14.5995, 120.9842)


def fix_at(point: GeoPoint, valid: bool = True) -> GpsFix:
    return GpsFix(point=point, speed_kph=0.0, valid=valid)


def moved(meters_north: float) -> GeoPoint:
    return GeoPoint(PARK.lat_deg + meters_north / 111_194.9266, PARK.lon_deg)


def test_theft_arms_on_first_valid_parked_fix(cfg: ControllerConfig) -> None:
    state, triggers = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    assert triggers == []
    assert state.armed
    assert state.parked_point == PARK
    assert state.last_beacon_t_ms == 0


def test_theft_never_reacts_to_invalid_fixes(cfg: ControllerConfig) -> None:
    start = TheftState()
    state, triggers = theft_step(start, fix_at(PARK, valid=False), False, False, 0, cfg)
    assert state == start
    assert triggers == []


def test_theft_ignition_on_blocks_arming(cfg: ControllerConfig) -> None:
    state, _ = theft_step(TheftState(), fix_at(PARK), True, False, 0, cfg)
    assert not state.armed


def test_theft_alarm_once_outside_fence(cfg: ControllerConfig) -> None:
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    state, triggers = theft_step(state, fix_at(moved(10.0)), False, False, 60_000, cfg)
    assert triggers == []  # still inside the 15 m fence
    state, triggers = theft_step(state, fix_at(moved(40.0)), False, False, 120_000, cfg)
    assert [t.kind for t in triggers] == [AlertKind.THEFT]
    assert "moved 40.0m" in triggers[0].message
    state, triggers = theft_step(state, fix_at(moved(200.0)), False, False, 180_000, cfg)
    assert triggers == []  # alarm is latched


def test_theft_fix_at_the_fence_radius_is_inside(cfg: ControllerConfig) -> None:
    edge = moved(40.0)
    fence = replace(cfg, geofence_radius_m=haversine_m(PARK, edge))
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, fence)
    state, triggers = theft_step(state, fix_at(edge), False, False, 60_000, fence)
    assert triggers == []
    state, triggers = theft_step(state, fix_at(moved(40.1)), False, False, 120_000, fence)
    assert [t.kind for t in triggers] == [AlertKind.THEFT]


def test_theft_authorized_rider_disarms_fully(cfg: ControllerConfig) -> None:
    armed = TheftState(armed=True, parked_point=PARK, last_beacon_t_ms=0, alarmed=True)
    state, triggers = theft_step(armed, fix_at(moved(500.0)), True, True, 60_000, cfg)
    assert state == TheftState()
    assert triggers == []


def test_beacon_fires_each_period(cfg: ControllerConfig) -> None:
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    beacons = []
    for t in range(60_000, 7_200_001, 60_000):
        state, triggers = theft_step(state, fix_at(PARK), False, False, t, cfg)
        beacons.extend(t for trig in triggers if trig.kind is AlertKind.BEACON)
    assert beacons == [3_600_000, 7_200_000]


def test_beacon_schedule_has_no_drift_under_sparse_fixes(cfg: ControllerConfig) -> None:
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    state, triggers = theft_step(state, fix_at(PARK), False, False, 7_200_000, cfg)
    assert [t.kind for t in triggers] == [AlertKind.BEACON]
    assert state.last_beacon_t_ms == 3_600_000  # one whole period, not "now"
    state, triggers = theft_step(state, fix_at(PARK), False, False, 7_260_000, cfg)
    assert [t.kind for t in triggers] == [AlertKind.BEACON]
    assert state.last_beacon_t_ms == 7_200_000


def test_theft_and_beacon_can_share_a_step(cfg: ControllerConfig) -> None:
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    state, triggers = theft_step(state, fix_at(moved(100.0)), False, False, 3_600_000, cfg)
    assert [t.kind for t in triggers] == [AlertKind.THEFT, AlertKind.BEACON]


def test_theft_measures_no_distance_once_alarmed(cfg: ControllerConfig, monkeypatch) -> None:
    calls = []

    def counted(a: GeoPoint, b: GeoPoint) -> float:
        calls.append((a, b))
        return haversine_m(a, b)
    monkeypatch.setattr(detectors, "haversine_m", counted)
    state, _ = theft_step(TheftState(), fix_at(PARK), False, False, 0, cfg)
    state, _ = theft_step(state, fix_at(moved(10.0)), False, False, 60_000, cfg)
    state, triggers = theft_step(state, fix_at(moved(40.0)), False, False, 120_000, cfg)
    assert [t.kind for t in triggers] == [AlertKind.THEFT]
    assert len(calls) == 2
    beacons = []
    for t in range(180_000, 7_200_001, 60_000):
        state, triggers = theft_step(state, fix_at(moved(200.0)), False, False, t, cfg)
        beacons.extend((trig.kind, t) for trig in triggers)
    assert beacons == [(AlertKind.BEACON, 3_600_000), (AlertKind.BEACON, 7_200_000)]
    assert len(calls) == 2


# --- randomized sweeps against the brute-force oracles ---------------------

# a one-minute beacon, so a short stream crosses several periods
MINUTE_BEACON = ControllerConfig(beacon_period_ms=60_000)


@st.composite
def parked_fix_streams(draw) -> list[tuple[int, GpsFix, bool]]:
    """(t_ms, fix, ignition_on) samples in time order: some fixes invalid, some
    with the ignition on, each jittered north of PARK across the fence radius,
    with gaps from none to over three beacon periods."""
    radius = MINUTE_BEACON.geofence_radius_m
    meters = st.one_of(st.just(0.0), st.floats(0.0, 2 * radius),
                       st.sampled_from([radius - 1e-6, radius, radius + 1e-6]))
    t, stream = 0, []
    for _ in range(draw(st.integers(0, 25))):
        t += draw(st.sampled_from([0, 1_000, 30_000, 59_999, 60_000, 60_001, 200_000]))
        valid = draw(st.integers(0, 4)) > 0
        stream.append((t, fix_at(moved(draw(meters)), valid), draw(st.integers(0, 3)) == 0))
    return stream


@settings(max_examples=300)
@given(parked_fix_streams())
def test_theft_matches_oracle_on_random_fix_streams(stream) -> None:
    state, got = TheftState(), []
    for t, fix, ignition_on in stream:
        state, triggers = theft_step(state, fix, ignition_on, False, t, MINUTE_BEACON)
        got.extend((trig.kind, t) for trig in triggers)
    assert got == theft_trigger_times(stream, MINUTE_BEACON)


def test_overspeed_matches_oracle_on_random_traces(cfg: ControllerConfig) -> None:
    rng = random.Random(1101)
    for _ in range(200):
        speeds = [rng.uniform(60.0, 100.0) for _ in range(50)]
        assert run_overspeed(speeds, cfg) == overspeed_trigger_indices(speeds, cfg)


def test_mag_matches_oracle_on_random_traces(cfg: ControllerConfig) -> None:
    rng = random.Random(1102)
    for _ in range(200):
        values = [50.0 + rng.uniform(-10.0, 10.0) for _ in range(60)]
        assert run_mag(values, cfg) == mag_trigger_indices(values, cfg)


def test_crash_matches_oracle_on_random_traces(cfg: ControllerConfig) -> None:
    rng = random.Random(1103)
    short_hold = replace(cfg, crash_hold_ms=1500)
    for _ in range(200):
        t = 0
        samples = []
        for _ in range(30):
            t += rng.choice((500, 1000, 2000))
            samples.append((t, rng.choice((0.0, 30.0, 61.0, 85.0)),
                            rng.choice((0.0, 3.0, 10.0))))
        assert run_crash(samples, short_hold) == crash_trigger_times(samples, short_hold)


def test_breath_matches_oracle_on_random_readings(cfg: ControllerConfig) -> None:
    rng = random.Random(1104)
    for _ in range(200):
        n = rng.randint(1, 8)
        ethanol = [rng.uniform(0.0, 300.0) for _ in range(n)]
        lpg = [rng.uniform(0.0, 2000.0) for _ in range(n)]
        mode, kinds = preride_outcome([gas(e, p) for e, p in zip(ethanol, lpg)], cfg)
        want = [kind for kind, fails in ((AlertKind.ALCOHOL_LOCKOUT, breath_fails(ethanol, cfg)),
                                         (AlertKind.GAS_LEAK, leak_fails(lpg, cfg))) if fails]
        assert kinds == want
        assert mode is (Mode.PARKED if want else Mode.RIDING)
