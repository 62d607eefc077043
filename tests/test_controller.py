from __future__ import annotations

import ast
import copy
import inspect
import random
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from motoguard.core import (ActuatorCommand, AlertKind, Auth, Buzzer, ContractViolation,
                            ControllerConfig, GasReading, GeoPoint, GpsFix, Ignition,
                            IgnitionInhibit, LidarRange, MagField, Payload, PirMotion,
                            SensorEvent, Severity, SmsSend, SolenoidLock, SupplyVoltage,
                            Tilt, VirtualClock)
from motoguard.controller import (_HANDLERS, MODE_EDGES, SMS_QUEUE_MAX, ControllerState,
                                  Mode, ModeChange, PendingSms, RouterState, _enter, advance,
                                  drain_sms, route, step)
from motoguard.detectors import CollisionState, CrashState, Trigger
from motoguard.gsm import CTRL_Z, DEFAULT_TIMEOUT_MS, FakeModem, ModemClient, ModemPhase
from motoguard.harness import Scenario, load_scenario, run
from oracles import run_reference

REPO_ROOT = Path(__file__).resolve().parent.parent

CLEAN = GasReading(ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=0.0)
HERE = GeoPoint(14.5995, 120.9842)


def ev(t_ms: int, payload) -> SensorEvent:
    return SensorEvent(t_ms=t_ms, payload=payload)


def fix(point: GeoPoint = HERE, speed: float = 0.0, valid: bool = True) -> GpsFix:
    return GpsFix(point=point, speed_kph=speed, valid=valid)


def actions(commands) -> list:
    return [c.action for c in commands]


def to_riding(cfg: ControllerConfig) -> ControllerState:
    state = ControllerState()
    state, _, _ = step(cfg, state, 0, [ev(0, Auth(True)), ev(0, Ignition(True))])
    state, _, _ = step(cfg, state, 100, [ev(100, CLEAN)])
    state, alerts, commands = step(cfg, state, 2100, [ev(2100, CLEAN)])
    assert state.mode is Mode.RIDING
    assert alerts == []
    assert actions(commands) == [IgnitionInhibit(on=False)]
    return state


# --- mode transitions ------------------------------------------------------

def test_authorized_ignition_starts_pre_ride(cfg: ControllerConfig) -> None:
    state, alerts, commands = step(cfg, ControllerState(), 0,
                                   [ev(0, Auth(True)), ev(0, Ignition(True))])
    assert state.mode is Mode.PRE_RIDE
    assert state.preride_start_ms == 0
    assert alerts == []
    assert commands == []


def test_unauthorized_ignition_locks_down(cfg: ControllerConfig) -> None:
    state, alerts, commands = step(cfg, ControllerState(), 0, [ev(0, Ignition(True))])
    assert state.mode is Mode.THEFT_SUSPECTED
    assert [a.kind for a in alerts] == [AlertKind.THEFT]
    assert alerts[0].severity is Severity.HIGH
    assert actions(commands) == [
        SolenoidLock(engaged=True),
        Buzzer(on=True),
        SmsSend(to=cfg.owner_number, body="THEFT unauthorized ignition attempt"),
    ]


def test_pre_ride_pass_reaches_riding(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    assert state.preride_start_ms is None
    assert state.preride_peak is None


def test_pre_ride_breath_failure_locks_out(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0,
                       [ev(0, Auth(True)), ev(0, Ignition(True))])
    state, _, _ = step(cfg, state, 100,
                       [ev(100, GasReading(ethanol_ppm=300.0, co_ppm=0.0, lpg_ppm=0.0))])
    state, alerts, commands = step(cfg, state, 2100, [ev(2100, CLEAN)])
    assert state.mode is Mode.PARKED
    assert [a.kind for a in alerts] == [AlertKind.ALCOHOL_LOCKOUT]
    assert alerts[0].message == "ALCOHOL LOCKOUT peak=300.0ppm limit=150.0ppm"
    assert actions(commands)[0] == IgnitionInhibit(on=True)
    assert SmsSend(to=cfg.owner_number,
                   body=alerts[0].message) in actions(commands)


def test_pre_ride_leak_failure_reports_both_faults(cfg: ControllerConfig) -> None:
    bad = GasReading(ethanol_ppm=200.0, co_ppm=0.0, lpg_ppm=1500.0)
    state, _, _ = step(cfg, ControllerState(), 0,
                       [ev(0, Auth(True)), ev(0, Ignition(True))])
    state, alerts, _ = step(cfg, state, 2000, [ev(2000, bad)])
    assert state.mode is Mode.PARKED
    assert [a.kind for a in alerts] == [AlertKind.ALCOHOL_LOCKOUT, AlertKind.GAS_LEAK]
    assert alerts[1].message == "GAS LEAK lpg=1500.0ppm limit=1000.0ppm"


def test_pre_ride_waits_out_the_sampling_window(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0,
                       [ev(0, Auth(True)), ev(0, Ignition(True))])
    state, _, _ = step(cfg, state, 1999, [ev(1999, CLEAN)])
    assert state.mode is Mode.PRE_RIDE
    assert state.preride_peak == CLEAN
    state, _, commands = step(cfg, state, 2000, [ev(2000, CLEAN)])
    assert state.mode is Mode.RIDING
    assert actions(commands) == [IgnitionInhibit(on=False)]


def test_revoking_auth_during_pre_ride_locks_out(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0,
                       [ev(0, Auth(True)), ev(0, Ignition(True))])
    state, alerts, commands = step(cfg, state, 500, [ev(500, Auth(False))])
    assert state.mode is Mode.PARKED
    assert (state.preride_start_ms, state.preride_peak) == (None, None)
    assert alerts == []
    assert commands == [ActuatorCommand(500, IgnitionInhibit(on=True))]
    # the window is closed, so a clean reading no longer lets the rider ride
    state, alerts, commands = step(cfg, state, 2000, [ev(2000, CLEAN)])
    assert state.mode is Mode.PARKED
    assert (alerts, commands) == ([], [])


def test_revoking_auth_while_riding_keeps_the_ignition(cfg: ControllerConfig) -> None:
    state, alerts, commands = step(cfg, to_riding(cfg), 3000, [ev(3000, Auth(False))])
    assert state.mode is Mode.RIDING
    assert not state.authorized
    assert (alerts, commands) == ([], [])


def test_ignition_off_returns_to_parked(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, alerts, commands = step(cfg, state, 3000, [ev(3000, Ignition(False))])
    assert state.mode is Mode.PARKED
    assert alerts == []
    assert commands == []


def test_crash_while_riding_sends_position_to_police(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, _, _ = step(cfg, state, 3000, [ev(3000, fix(speed=0.0))])
    state, alerts, _ = step(cfg, state, 4000, [ev(4000, Tilt(80.0))])
    assert alerts == []
    state, alerts, commands = step(cfg, state, 7000, [ev(7000, Tilt(80.0))])
    assert state.mode is Mode.CRASH_SUSPECTED
    assert [a.kind for a in alerts] == [AlertKind.CRASH]
    assert alerts[0].message == "CRASH 14.599500,120.984200 t=7000"
    assert SmsSend(to=cfg.police_number, body="CRASH 14.599500,120.984200 t=7000") \
        in actions(commands)
    assert Buzzer(on=True) in actions(commands)


def test_crash_without_a_fix_says_unknown(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, _, _ = step(cfg, state, 3000, [ev(3000, Tilt(80.0))])
    state, alerts, _ = step(cfg, state, 6000, [ev(6000, Tilt(80.0))])
    assert alerts[0].message == "CRASH unknown t=6000"


def test_auth_clears_crash_suspected(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, _, _ = step(cfg, state, 3000, [ev(3000, Tilt(80.0))])
    state, _, _ = step(cfg, state, 6000, [ev(6000, Tilt(80.0))])
    assert state.mode is Mode.CRASH_SUSPECTED
    state, alerts, commands = step(cfg, state, 8000, [ev(8000, Auth(True))])
    assert state.mode is Mode.PARKED
    assert alerts == []
    assert commands == []


def test_theft_geofence_path(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, fix())])
    assert state.theft.armed
    away = GeoPoint(HERE.lat_deg + 0.001, HERE.lon_deg)
    state, alerts, commands = step(cfg, state, 60_000, [ev(60_000, fix(away))])
    assert state.mode is Mode.THEFT_SUSPECTED
    assert [a.kind for a in alerts] == [AlertKind.THEFT]
    assert any(isinstance(a, SmsSend) and a.to == cfg.owner_number
               for a in actions(commands))
    # beacons keep flowing while the theft response is active
    state, alerts, commands = step(cfg, state, 3_600_000, [ev(3_600_000, fix(away))])
    assert [a.kind for a in alerts] == [AlertKind.BEACON]
    assert Buzzer(on=True) not in actions(commands)


def test_beacons_are_never_cooled_down() -> None:
    # a cooldown just under the beacon period used to hold back the beacon due
    # 3 541 000 ms after the one before it, and the schedule moved on without it
    cfg = ControllerConfig(sms_cooldown_ms=3_599_999)
    state, beacons = ControllerState(), []
    for t_ms in (0, 3_659_000, 7_200_000, 10_800_000):
        state, alerts, _ = step(cfg, state, t_ms, [ev(t_ms, fix())])
        beacons += [a.t_ms for a in alerts if a.kind is AlertKind.BEACON]
    assert beacons == [3_659_000, 7_200_000, 10_800_000]


def test_owner_return_disarms(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, fix())])
    state, _, _ = step(cfg, state, 1000, [ev(1000, Auth(True))])
    assert state.theft.armed is False
    state, alerts, commands = step(cfg, state, 2000, [ev(2000, Ignition(True))])
    assert state.mode is Mode.PRE_RIDE
    assert alerts == []
    assert commands == []


def test_hotwire_after_arming(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, fix())])
    state, alerts, commands = step(cfg, state, 5000, [ev(5000, Ignition(True))])
    assert state.mode is Mode.THEFT_SUSPECTED
    assert [a.kind for a in alerts] == [AlertKind.THEFT]
    assert SolenoidLock(engaged=True) in actions(commands)


def test_undervoltage_is_a_low_alert_in_any_mode(cfg: ControllerConfig) -> None:
    for state in (ControllerState(), to_riding(cfg)):
        t = (state.last_t_ms or 0) + 1000
        state, alerts, commands = step(cfg, state, t, [ev(t, SupplyVoltage(19.5))])
        assert [a.kind for a in alerts] == [AlertKind.UNDERVOLTAGE]
        assert alerts[0].severity is Severity.LOW
        assert alerts[0].message == "UNDERVOLTAGE 19.5V limit=20.0V"
        assert commands == []


def test_healthy_voltage_is_silent(cfg: ControllerConfig) -> None:
    _, alerts, _ = step(cfg, ControllerState(), 0, [ev(0, SupplyVoltage(20.0))])
    assert alerts == []


# --- riding aids and their gating ------------------------------------------

def test_collision_warning_also_flags_overtake(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, alerts, _ = step(cfg, state, 3000, [ev(3000, LidarRange(20.0))])
    assert alerts == []
    state, alerts, commands = step(cfg, state, 4000, [ev(4000, LidarRange(10.0))])
    assert [a.kind for a in alerts] == [AlertKind.COLLISION, AlertKind.OVERTAKE_UNSAFE]
    assert alerts[1].message == "OVERTAKE UNSAFE side_vehicle=no rear_ttc=1.00s"
    assert actions(commands).count(Buzzer(on=True)) == 2
    # the unsafe edge fired; staying unsafe must not re-alert
    state, alerts, _ = step(cfg, state, 5000, [ev(5000, LidarRange(5.0))])
    assert alerts == []


def test_riding_aids_are_parked_silent(cfg: ControllerConfig) -> None:
    state = ControllerState()
    quiet = [ev(0, LidarRange(50.0)), ev(0, PirMotion(True)), ev(0, Tilt(90.0))]
    state, alerts, commands = step(cfg, state, 0, quiet)
    state, more, _ = step(cfg, state, 1000, [ev(1000, LidarRange(1.0))])
    assert alerts == [] and more == []
    assert commands == []
    assert state.mode is Mode.PARKED


def test_pir_uses_last_gps_speed(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, alerts, _ = step(cfg, state, 3000, [ev(3000, PirMotion(True))])
    assert alerts == []  # no speed yet, gate holds
    state, _, _ = step(cfg, state, 4000, [ev(4000, fix(speed=45.0))])
    state, alerts, _ = step(cfg, state, 5000, [ev(5000, PirMotion(True))])
    assert [a.kind for a in alerts] == [AlertKind.ROAD_HAZARD]
    assert alerts[0].message == "ROAD HAZARD motion at 45.0kph"


def test_invalid_fix_keeps_the_last_valid_speed(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, _, _ = step(cfg, state, 3000, [ev(3000, fix(speed=45.0))])
    state, _, _ = step(cfg, state, 4000, [ev(4000, fix(speed=0.0, valid=False))])
    state, alerts, _ = step(cfg, state, 5000, [ev(5000, PirMotion(True))])
    assert [a.message for a in alerts] == ["ROAD HAZARD motion at 45.0kph"]


def test_overspeed_fires_only_while_riding(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    state, alerts, _ = step(cfg, state, 3000, [ev(3000, fix(speed=95.0))])
    assert [a.kind for a in alerts] == [AlertKind.OVERSPEED]
    parked, alerts, _ = step(cfg, ControllerState(), 0, [ev(0, fix(speed=95.0))])
    assert alerts == []
    assert parked.theft.armed  # a moving "parked" bike arms instead


def test_gas_readings_outside_pre_ride_are_ignored(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    bad = GasReading(ethanol_ppm=400.0, co_ppm=0.0, lpg_ppm=2000.0)
    state, alerts, commands = step(cfg, state, 3000, [ev(3000, bad)])
    assert alerts == [] and commands == []
    assert state.mode is Mode.RIDING


# --- step contract ---------------------------------------------------------

def test_step_rejects_time_reversal(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 1000, [])
    with pytest.raises(ContractViolation):
        step(cfg, state, 999, [])


def test_step_rejects_mis_stamped_events(cfg: ControllerConfig) -> None:
    with pytest.raises(ContractViolation):
        step(cfg, ControllerState(), 100, [ev(99, CLEAN)])


def test_step_checks_its_own_time(cfg: ControllerConfig) -> None:
    with pytest.raises(ContractViolation, match="t_ms must be a non-negative int: -5"):
        step(cfg, ControllerState(), -5, [])
    # True == 1, so the event stamp check alone lets a bool clock through
    with pytest.raises(ContractViolation, match="t_ms must be a non-negative int: True"):
        step(cfg, ControllerState(), True, [ev(1, SupplyVoltage(5.0))])


def test_step_leaves_the_input_state_untouched(cfg: ControllerConfig) -> None:
    state = ControllerState()
    snapshot = copy.deepcopy(state)
    step(cfg, state, 0, [ev(0, Auth(True)), ev(0, Ignition(True))])
    assert state == snapshot
    # a HIGH alert writes the router's cooldown map and SMS queue
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, Ignition(True))])
    snapshot = copy.deepcopy(state)
    _, alerts, _ = step(cfg, state, 40_000, [ev(40_000, Ignition(True))])
    assert [a.severity for a in alerts] == [Severity.HIGH]
    assert state == snapshot


def test_replay_of_a_prefix_matches(cfg: ControllerConfig) -> None:
    script = [
        (0, [ev(0, Auth(True)), ev(0, Ignition(True))]),
        (100, [ev(100, CLEAN)]),
        (2100, [ev(2100, CLEAN)]),
        (3000, [ev(3000, fix(speed=90.0))]),
        (4000, [ev(4000, LidarRange(30.0))]),
        (5000, [ev(5000, LidarRange(28.0))]),
    ]

    def replay(n: int):
        state = ControllerState()
        outputs = []
        for t, events in script[:n]:
            state, alerts, commands = step(cfg, state, t, events)
            outputs.append((alerts, commands))
        return state, outputs

    full_state, full_out = replay(len(script))
    for n in range(len(script) + 1):
        state, outputs = replay(n)
        assert outputs == full_out[:n]
    assert full_state.mode is Mode.RIDING


def riding_at(cfg: ControllerConfig, speed: float) -> ControllerState:
    state, _, _ = step(cfg, to_riding(cfg), 3000, [ev(3000, fix(speed=speed))])
    return state


def pre_ride(cfg: ControllerConfig) -> ControllerState:
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, Auth(True)), ev(0, Ignition(True))])
    return state


# one case per payload class, each in a mode where the payload does work
PURITY_CASES = {
    "auth": (pre_ride, Auth(False)),
    "ignition": (lambda cfg: ControllerState(), Ignition(True)),
    "gas": (pre_ride, CLEAN),
    "lidar": (lambda cfg: riding_at(cfg, 40.0), LidarRange(2.0)),
    "mag": (lambda cfg: riding_at(cfg, 40.0), MagField(400.0)),
    "pir": (lambda cfg: riding_at(cfg, 40.0), PirMotion(True)),
    "tilt": (lambda cfg: riding_at(cfg, 0.0), Tilt(85.0)),
    "fix": (lambda cfg: riding_at(cfg, 40.0), fix(speed=200.0)),
    "voltage": (lambda cfg: ControllerState(), SupplyVoltage(5.0)),
}


@pytest.mark.parametrize("make,payload", PURITY_CASES.values(), ids=PURITY_CASES.keys())
def test_step_keeps_every_input_field_identical(cfg: ControllerConfig, make,
                                                payload) -> None:
    state = make(cfg)
    names = ControllerState.__match_args__
    before = {name: getattr(state, name) for name in names}
    new, _, _ = step(cfg, state, 10_000, [ev(10_000, payload)])
    assert new is not state
    # a field step deleted would raise here; the slots admit no other field
    assert [name for name in names if getattr(state, name) is not before[name]] == []


# --- payload dispatch ------------------------------------------------------

def test_every_payload_class_has_exactly_one_handler() -> None:
    classes = typing.get_args(Payload)
    assert len(classes) == 9
    assert set(_HANDLERS) == set(classes)
    assert len(set(_HANDLERS.values())) == len(classes)
    # a handler appends its outputs to the state's records, never to lists passed in
    for handler in _HANDLERS.values():
        assert list(inspect.signature(handler).parameters) == ["cfg", "s", "t_ms", "p"]


class LowVoltage(SupplyVoltage):
    """A payload subclass the controller has no entry for."""


OPAQUE = object()


# step looks a handler up by the exact payload type, so an event takes no other
@pytest.mark.parametrize("payload,shown", [
    (LowVoltage(5.0), "LowVoltage(volts=5.0)"),
    (OPAQUE, repr(OPAQUE)),
    ("lidar", "'lidar'"),
    (None, "None"),
], ids=["payload_subclass", "object", "str", "none"])
def test_a_sensor_event_takes_only_a_payload_class(payload, shown: str) -> None:
    with pytest.raises(ContractViolation) as err:
        ev(0, payload)
    assert str(err.value) == ("payload must be a LidarRange, MagField, PirMotion, GasReading, "
                              "Tilt, GpsFix, Ignition, Auth or SupplyVoltage: " + shown)


def nested_functions(source: str) -> dict[str, list[int]]:
    """For each module-level function, the lines of the defs and lambdas inside it."""
    return {node.name: [inner.lineno for stmt in node.body for inner in ast.walk(stmt)
                        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
            for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def test_step_and_advance_build_no_closure_per_call() -> None:
    sample = "def step():\n    def emit(): pass\n    return lambda: emit\ndef other(): pass\n"
    assert nested_functions(sample) == {"step": [2, 3], "other": []}
    source = (REPO_ROOT / "src" / "motoguard" / "controller.py").read_text(encoding="utf-8")
    found = nested_functions(source)
    assert (found["step"], found["advance"]) == ([], [])


# --- mode edges ------------------------------------------------------------

README = REPO_ROOT / "README.md"
FAR = GeoPoint(14.6095, 120.9842)  # about 1.1 km north of HERE
RANDOM_PAYLOADS = (
    lambda rng: Auth(rng.random() < 0.5),
    lambda rng: Ignition(rng.random() < 0.6),
    lambda rng: GasReading(rng.choice((0.0, 0.0, 0.0, 200.0)), 0.0,
                           rng.choice((0.0, 0.0, 0.0, 1500.0))),
    lambda rng: Tilt(rng.choice((10.0, 85.0, 85.0, 85.0))),
    lambda rng: GpsFix(rng.choice((HERE, FAR)), rng.choice((0.0, 30.0)), rng.random() < 0.9),
    lambda rng: LidarRange(rng.uniform(0.0, 50.0)),
)


def readme_mode_edges() -> set[tuple[Mode, Mode]]:
    """The (from, to) rows of the README's Modes table."""
    section = README.read_text(encoding="utf-8").split("\n## Modes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, re.MULTILINE)
    return {(Mode(a), Mode(b)) for a, b in rows}


def test_every_mode_change_is_a_readme_edge() -> None:
    assert readme_mode_edges() == MODE_EDGES
    assert len(MODE_EDGES) == 8
    # short windows and holds let a random stream reach every edge
    cfg = ControllerConfig(preride_window_ms=300, crash_hold_ms=300)
    rng = random.Random(1105)
    seen: set[tuple[Mode, Mode]] = set()
    for _ in range(20):
        state, t_ms = ControllerState(), 0
        for _ in range(300):
            # one event per call, so no change can hide inside a step
            t_ms += rng.choice((0, 50, 100, 200))
            before = state.mode
            state, _, _ = step(cfg, state, t_ms, [ev(t_ms, rng.choice(RANDOM_PAYLOADS)(rng))])
            if state.mode is not before:
                assert (before, state.mode) in MODE_EDGES, f"{before.value} -> {state.mode.value}"
                seen.add((before, state.mode))
    assert seen == MODE_EDGES  # the table lists no edge that step never takes


def test_every_logged_mode_change_is_a_readme_edge() -> None:
    # as above, but run replays groups of several events stamped alike, and
    # every pair of consecutive mode lines in its log must be an edge
    config = {"preride_window_ms": 300, "crash_hold_ms": 300}
    rng = random.Random(1105)
    seen: set[tuple[Mode, Mode]] = set()
    shared = 0  # mode lines that share their t_ms with the line before
    for _ in range(20):
        events, t_ms = [], 0
        for _ in range(300):
            t_ms += rng.choice((0, 0, 50, 100, 200))
            events.append(ev(t_ms, rng.choice(RANDOM_PAYLOADS)(rng)))
        changes = [rec for rec in run(Scenario("random", config=config, events=events)).records
                   if isinstance(rec, ModeChange)]
        assert changes[0] == ModeChange(0, Mode.PARKED)
        for before, after in zip(changes, changes[1:]):
            edge = (before.mode, after.mode)
            assert edge in MODE_EDGES, f"{before.mode.value} -> {after.mode.value} at {after.t_ms}"
            seen.add(edge)
            shared += before.t_ms == after.t_ms
    assert seen == MODE_EDGES
    assert shared > 0  # some step made more than one change


def test_enter_refuses_an_edge_outside_the_table(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    with pytest.raises(ContractViolation, match="no mode edge riding -> pre_ride"):
        _enter(state, Mode.PRE_RIDE, 3000)
    assert state.mode is Mode.RIDING


def test_entering_riding_resets_the_per_ride_detectors(cfg: ControllerConfig) -> None:
    state = to_riding(cfg)
    # end the first ride with every per-ride detector latched
    ride = [ev(3000, LidarRange(50.0)), ev(3100, Tilt(85.0)), ev(3200, fix(speed=100.0)),
            ev(3300, LidarRange(40.0))]
    for event in ride:
        state, _, _ = step(cfg, state, event.t_ms, [event])
    assert state.collision.prev_t_ms == 3300 and state.crash.over_tilt_since_ms == 3100
    assert state.overspeed_active and state.overtake_unsafe
    state, _, _ = step(cfg, state, 4000, [ev(4000, Ignition(False))])
    state, _, _ = step(cfg, state, 5000, [ev(5000, Ignition(True))])
    state, _, _ = step(cfg, state, 5100, [ev(5100, CLEAN)])
    state, _, _ = step(cfg, state, 7000, [ev(7000, CLEAN)])
    assert state.changes == [ModeChange(7000, Mode.RIDING)]
    assert (state.collision, state.crash) == (CollisionState(), CrashState())
    assert not state.overspeed_active and not state.overtake_unsafe


def test_each_step_starts_its_three_records_empty(cfg: ControllerConfig) -> None:
    # an unauthorised ignition sounds a HIGH theft alarm and changes the mode
    state, alerts, commands = step(cfg, ControllerState(), 0, [ev(0, Ignition(True))])
    assert alerts is state.alerts and commands is state.commands
    assert [(a.kind, a.severity) for a in alerts] == [(AlertKind.THEFT, Severity.HIGH)]
    assert commands and state.changes == [ModeChange(0, Mode.THEFT_SUSPECTED)]
    new, new_alerts, new_commands = step(cfg, state, 100, [])
    assert new_alerts is new.alerts and new_commands is new.commands
    assert (new.alerts, new.commands, new.changes) == ([], [], [])
    # the earlier step's records are its own: the later step did not clear them
    assert alerts and commands and state.changes


def test_entering_the_current_mode_records_nothing(cfg: ControllerConfig) -> None:
    state, _, _ = step(cfg, ControllerState(), 0, [ev(0, Ignition(True))])
    assert state.changes == [ModeChange(0, Mode.THEFT_SUSPECTED)]
    # a second unauthorised ignition alarms again but is no mode change
    state, alerts, _ = step(cfg, state, 40_000, [ev(40_000, Ignition(False)),
                                                 ev(40_000, Ignition(True))])
    assert [a.kind for a in alerts] == [AlertKind.THEFT]
    assert (state.mode, state.changes) == (Mode.THEFT_SUSPECTED, [])


# --- replay that advances its own state ------------------------------------

def test_replay_matches_the_copying_loop_on_the_corpus() -> None:
    paths = sorted((REPO_ROOT / "scenarios").glob("*.jsonl"))
    assert len(paths) == 22
    for path in paths:
        sc = load_scenario(path)
        assert run(sc) == run_reference(sc), path.name


def test_replay_matches_the_copying_loop_on_random_streams(monkeypatch) -> None:
    payloads = RANDOM_PAYLOADS + (
        lambda rng: MagField(rng.choice((50.0, 50.0, 400.0))),
        lambda rng: PirMotion(rng.random() < 0.5),
        lambda rng: SupplyVoltage(rng.choice((12.0, 24.0))),
    )
    # the virtual time and bytes of every send header and message body; the
    # init frames differ on purpose, as the reference brings the modem up at
    # power-on and run only before its first send
    frames: list[tuple[int, bytes]] = []
    write = FakeModem.write

    def recorded(modem: FakeModem, data: bytes) -> None:
        if data.startswith(b"AT+CMGS=") or data.endswith(CTRL_Z):
            frames.append((modem.clock.now_ms(), bytes(data)))
        write(modem, data)

    monkeypatch.setattr(FakeModem, "write", recorded)
    # short windows reach every mode; a 1 ms cooldown queues many SMS and a
    # 500 ms one suppresses repeats; a zero gap puts several events in one step
    rng = random.Random(1111)
    sends = 0
    for _ in range(20):
        config = {"preride_window_ms": 300, "crash_hold_ms": 300,
                  "sms_cooldown_ms": rng.choice((1, 500))}
        events, t_ms = [], 0
        for _ in range(200):
            t_ms += rng.choice((0, 0, 50, 100, 200))
            events.append(ev(t_ms, rng.choice(payloads)(rng)))
        sc = Scenario("random", config=config, events=events)
        frames.clear()
        log = run(sc)
        traffic = frames[:]
        frames.clear()
        assert log == run_reference(sc)
        assert traffic == frames
        sends += len(traffic)
    assert sends > 0


def test_replay_refuses_what_the_copying_loop_refuses_on_random_streams() -> None:
    # each stream moves one event to before the event ahead of it: into an
    # earlier instant, or to a time no instant has; zero gaps put several
    # events in one instant, on either side of the moved one
    rng = random.Random(2222)
    for _ in range(20):
        config = {"preride_window_ms": 300, "crash_hold_ms": 300, "sms_cooldown_ms": 1}
        events, t_ms = [], 100
        for _ in range(rng.randrange(2, 60)):
            t_ms += rng.choice((0, 0, 50, 100, 200))
            events.append(ev(t_ms, rng.choice(RANDOM_PAYLOADS)(rng)))
        at = rng.randrange(1, len(events))
        ahead = events[at - 1].t_ms
        moved = rng.choice((rng.randrange(ahead), ahead - 1))
        events[at] = ev(moved, events[at].payload)
        sc = Scenario("moved", config=config, events=events)
        texts = []
        for replay in (run, run_reference):
            with pytest.raises(ContractViolation) as err:
                replay(sc)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"moved: at t={moved}: step at t={moved} after t=")


# --- alert router ----------------------------------------------------------

def test_cooldown_suppresses_repeats(cfg: ControllerConfig) -> None:
    rs = RouterState()
    trig = Trigger(AlertKind.OVERSPEED, "OVERSPEED 90.0kph limit=80.0kph")
    rs, alert, commands = route(rs, trig, 1000, cfg)
    assert alert is not None
    assert commands == [ActuatorCommand(1000, Buzzer(on=True))]
    rs2, alert2, commands2 = route(rs, trig, 11_000, cfg)
    assert alert2 is None and commands2 == []
    assert rs2 is rs
    _, alert3, _ = route(rs, trig, 31_000, cfg)
    assert alert3 is not None  # exactly one cooldown later is allowed


def test_cooldown_is_per_kind(cfg: ControllerConfig) -> None:
    rs = RouterState()
    rs, first, _ = route(rs, Trigger(AlertKind.OVERSPEED, "x"), 1000, cfg)
    _, second, _ = route(rs, Trigger(AlertKind.ROAD_HAZARD, "y"), 2000, cfg)
    assert first is not None and second is not None


def test_route_never_queues_a_body_the_modem_client_refuses(cfg: ControllerConfig) -> None:
    for body in ["caf\xe9", "stop\x1aAT", "cancel\x1b"]:
        with pytest.raises(ContractViolation):
            route(RouterState(), Trigger(AlertKind.THEFT, body), 0, cfg)


def test_low_severity_routes_alert_only(cfg: ControllerConfig) -> None:
    rs, alert, commands = route(RouterState(), Trigger(AlertKind.ROAD_HAZARD, "x"),
                                0, cfg)
    assert alert is not None and alert.severity is Severity.LOW
    assert commands == []
    assert rs.pending_sms == ()


def test_beacon_is_low_but_still_messages_the_owner(cfg: ControllerConfig) -> None:
    rs, alert, commands = route(RouterState(), Trigger(AlertKind.BEACON, "BEACON x"),
                                0, cfg)
    assert alert is not None and alert.severity is Severity.LOW
    assert actions(commands) == [SmsSend(to=cfg.owner_number, body="BEACON x")]
    assert len(rs.pending_sms) == 1


def test_long_bodies_are_truncated_for_sms(cfg: ControllerConfig) -> None:
    _, _, commands = route(RouterState(), Trigger(AlertKind.THEFT, "T" * 200), 0, cfg)
    sms = [a for a in actions(commands) if isinstance(a, SmsSend)][0]
    assert len(sms.body) == 160
    assert sms.body.endswith("...")


def full_queue(severity: Severity, n: int = 32) -> tuple[PendingSms, ...]:
    return tuple(PendingSms(to="+639171234567", body=f"m{i}", severity=severity)
                 for i in range(n))


def test_queue_holds_exactly_its_cap_before_the_first_drop(cfg: ControllerConfig) -> None:
    rs = RouterState(pending_sms=full_queue(Severity.LOW, SMS_QUEUE_MAX - 1))
    rs, _, _ = route(rs, Trigger(AlertKind.CRASH, "CRASH x t=0"), 0, cfg)
    assert (len(rs.pending_sms), rs.dropped_count) == (SMS_QUEUE_MAX, 0)
    rs, _, _ = route(rs, Trigger(AlertKind.THEFT, "THEFT x"), 0, cfg)
    assert (len(rs.pending_sms), rs.dropped_count) == (SMS_QUEUE_MAX, 1)


def test_overflow_drops_oldest_lowest_severity(cfg: ControllerConfig) -> None:
    rs = RouterState(pending_sms=full_queue(Severity.LOW))
    rs, _, _ = route(rs, Trigger(AlertKind.CRASH, "CRASH x t=0"), 0, cfg)
    assert len(rs.pending_sms) == 32
    assert rs.dropped_count == 1
    assert rs.pending_sms[0].body == "m1"          # m0 was sacrificed
    assert rs.pending_sms[-1].body == "CRASH x t=0"


def test_overflow_may_drop_the_incoming_message(cfg: ControllerConfig) -> None:
    rs = RouterState(pending_sms=full_queue(Severity.HIGH))
    rs, alert, _ = route(rs, Trigger(AlertKind.BEACON, "BEACON x"), 0, cfg)
    assert alert is not None               # the alert itself still stands
    assert len(rs.pending_sms) == 32
    assert rs.dropped_count == 1
    assert all(p.severity is Severity.HIGH for p in rs.pending_sms)


# --- SMS drain -------------------------------------------------------------

class BrittleModem(FakeModem):
    """Accepts ``good_sends`` bodies, then answers ERROR to further sends."""

    def __init__(self, clock: VirtualClock, good_sends: int):
        super().__init__(clock)
        self.good_sends = good_sends

    def _respond(self, frame: bytes) -> None:
        if self._normalize(frame) == "SEND":
            if self.good_sends <= 0:
                self.inject(b"\r\nERROR\r\n")
                return
            self.good_sends -= 1
        super()._respond(frame)


def queued(*bodies: str) -> RouterState:
    return RouterState(pending_sms=tuple(
        PendingSms(to="+639171234567", body=b, severity=Severity.HIGH)
        for b in bodies))


def test_drain_sends_fifo(cfg: ControllerConfig) -> None:
    modem = FakeModem(VirtualClock())
    client = ModemClient(modem)
    client.modem_init()
    rs, sent, failures = drain_sms(queued("one", "two", "three"), client)
    assert (sent, failures) == (3, [])
    assert rs.pending_sms == ()
    assert [f for f in modem.transcript if f.endswith(b"\x1a")] == \
        [b"one\x1a", b"two\x1a", b"three\x1a"]


def test_drain_failure_keeps_the_head_and_reinits(cfg: ControllerConfig) -> None:
    modem = BrittleModem(VirtualClock(), good_sends=1)
    client = ModemClient(modem)
    client.modem_init()
    rs, sent, failures = drain_sms(queued("one", "two", "three"), client)
    assert sent == 1
    assert [p.body for p in rs.pending_sms] == ["two", "three"]
    assert len(failures) == 1
    # the modem healed, so the next drain re-inits and finishes the job
    modem.good_sends = 99
    frames = len(modem.transcript)
    rs, sent, failures = drain_sms(rs, client)
    assert modem.transcript[frames:frames + 3] == [b"AT\r", b"ATE0\r", b"AT+CMGF=1\r"]
    assert (sent, failures) == (2, [])
    assert rs.pending_sms == ()


def test_drain_survives_a_modem_that_stays_down(cfg: ControllerConfig) -> None:
    modem = FakeModem(VirtualClock())
    client = ModemClient(modem)
    client.modem_init()
    modem.fail_commands = {"SEND", "AT"}
    rs, sent, failures = drain_sms(queued("help"), client)
    assert (sent, failures) == (0, ["modem rejected message body"])
    assert [p.body for p in rs.pending_sms] == ["help"]
    # the client is FAILED now; the next drain re-inits it and fails again
    rs, sent, failures = drain_sms(rs, client)
    assert (sent, failures) == (0, ["ERROR response to 'AT'"])
    assert [p.body for p in rs.pending_sms] == ["help"]
    modem.fail_commands.clear()
    rs, sent, failures = drain_sms(rs, client)
    assert (sent, failures) == (1, [])
    assert rs.pending_sms == ()
    assert client.phase is ModemPhase.READY


def test_drain_on_empty_queue_is_a_no_op(cfg: ControllerConfig) -> None:
    client = ModemClient(FakeModem(VirtualClock()))
    client.modem_init()
    rs, sent, failures = drain_sms(RouterState(), client)
    assert (sent, failures) == (0, [])
    assert rs.pending_sms == ()


def test_a_silent_modem_never_moves_the_clock(monkeypatch) -> None:
    # a client that waited out each missing reply would push the clock 4 s
    # past every drain here, to 40 000 ms after ten
    clock = VirtualClock()
    modem = FakeModem(clock, silent_commands={"AT", "SEND"})
    client = ModemClient(modem)
    frames: list[int] = []
    write = FakeModem.write

    def recorded(modem: FakeModem, data: bytes) -> None:
        frames.append(modem.clock.now_ms())
        write(modem, data)

    monkeypatch.setattr(FakeModem, "write", recorded)
    rs, failed_at = queued("help"), []
    for t_ms in range(0, 10_000, DEFAULT_TIMEOUT_MS):
        clock.advance_to(t_ms)
        rs, sent, failures = drain_sms(rs, client)
        assert clock.now_ms() == t_ms
        assert sent == 0 and [p.body for p in rs.pending_sms] == ["help"]
        failed_at += [t_ms] * len(failures)
    # AT and its two retries, one at each deadline; the third deadline fails
    # the init and the next drain starts another
    assert frames == [0, 1000, 2000, 4000, 5000, 6000, 8000, 9000]
    assert modem.transcript == [b"AT\r"] * 8
    assert failed_at == [3000, 7000]
    assert clock.now_ms() == frames[-1]


THEFT_SMS_PAYLOADS = (Ignition(True), Ignition(False), Auth(False), Auth(True))
MODEM_FAULTS = st.sets(st.sampled_from(("AT", "ATE0", "AT+CMGF=1", "AT+CMGS", "SEND")))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 * DEFAULT_TIMEOUT_MS),
                          st.sampled_from(THEFT_SMS_PAYLOADS), MODEM_FAULTS, MODEM_FAULTS),
                max_size=60))
def test_drains_over_a_faulty_modem_keep_time_and_order(steps) -> None:
    # an unauthorized ignition raises a theft SMS at each step, as run would drain it
    cfg = ControllerConfig(sms_cooldown_ms=1)
    clock = VirtualClock()
    modem = FakeModem(clock)
    client = ModemClient(modem)
    state = ControllerState()
    t_ms, routed, delivered = 0, [], []
    for dt, payload, silent, fail in steps:
        t_ms += dt
        modem.silent_commands, modem.fail_commands = silent, fail
        advance(cfg, state, t_ms, [ev(t_ms, payload)])
        routed += [c.action for c in state.commands if isinstance(c.action, SmsSend)]
        if not state.router.pending_sms:
            continue
        clock.advance_to(t_ms)
        before = state.router.pending_sms
        state.router, sent, failures = drain_sms(state.router, client)
        assert clock.now_ms() == t_ms  # no drain passes its step's time
        assert state.router.pending_sms == before[sent:]
        assert len(failures) <= 1
        if failures:  # the head that failed stays queued
            assert state.router.pending_sms[0] is before[sent]
        delivered += [SmsSend(m.to, m.body) for m in before[:sent]]
    # FIFO: the delivered messages are the routed ones in order, less the drops
    rest = iter(routed)
    assert all(any(msg == r for r in rest) for msg in delivered)
    assert len(delivered) + state.router.dropped_count + len(state.router.pending_sms) \
        == len(routed)


SMS_KINDS = (AlertKind.CRASH, AlertKind.COLLISION, AlertKind.THEFT, AlertKind.BEACON)
MODEM_COMMANDS = ("AT", "ATE0", "AT+CMGF=1", "AT+CMGS", "SEND")


class RouterMachine(RuleBasedStateMachine):
    """Routes SMS triggers and drains them over a modem that fails at random."""

    def __init__(self) -> None:
        super().__init__()
        self.cfg = ControllerConfig(sms_cooldown_ms=1)
        self.clock = VirtualClock()
        self.modem = FakeModem(self.clock)
        self.client = ModemClient(self.modem)
        self.client.modem_init()
        self.rs = RouterState()
        self.t_ms = 0
        self.last_emit: dict[AlertKind, int] = {}
        self.routed = 0
        self.sent = 0

    @rule(kind=st.sampled_from(SMS_KINDS), dt=st.integers(0, 2),
          message=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
    def route_trigger(self, kind: AlertKind, dt: int, message: str) -> None:
        self.t_ms += dt
        # the 1 ms cooldown holds back a repeat of a kind in the same ms, but never a
        # beacon, whose schedule alone spaces it
        cooling = self.last_emit.get(kind) == self.t_ms and kind is not AlertKind.BEACON
        self.rs, alert, commands = route(self.rs, Trigger(kind, message), self.t_ms, self.cfg)
        if cooling:
            assert alert is None and commands == []
            return
        self.last_emit[kind] = self.t_ms
        sms = [a for a in actions(commands) if isinstance(a, SmsSend)]
        to = self.cfg.police_number if kind is AlertKind.CRASH else self.cfg.owner_number
        assert [m.to for m in sms] == [to]
        self.routed += 1

    @rule(silent=st.sets(st.sampled_from(MODEM_COMMANDS)),
          fail=st.sets(st.sampled_from(MODEM_COMMANDS)))
    def set_faults(self, silent: set[str], fail: set[str]) -> None:
        self.modem.silent_commands = silent
        self.modem.fail_commands = fail

    @rule(dt=st.integers(0, 2 * DEFAULT_TIMEOUT_MS))
    def tick(self, dt: int) -> None:
        self.t_ms += dt

    def _drain(self) -> list[str]:
        self.clock.advance_to(self.t_ms)
        self.rs, sent, failures = drain_sms(self.rs, self.client)
        self.sent += sent
        return failures

    @rule()
    def drain(self) -> None:
        self._drain()

    @rule()
    def heal_then_drain(self) -> None:
        self.modem.silent_commands = set()
        self.modem.fail_commands = set()
        # what the modem swallowed before it healed is found missing at its
        # deadline, which can fail the exchange in flight once; so can the
        # queue having dropped the message in flight
        self.t_ms += DEFAULT_TIMEOUT_MS
        failures = self._drain()
        assert len(failures) <= 1
        assert failures == [] or failures[0] in ("no '> ' prompt after AT+CMGS",
                                                 "message withdrawn while in flight") \
            or failures[0].startswith("no final response to ")
        assert self._drain() == []
        assert self.rs.pending_sms == ()

    @invariant()
    def queue_is_bounded(self) -> None:
        assert len(self.rs.pending_sms) <= SMS_QUEUE_MAX

    @invariant()
    def the_client_never_moves_the_clock(self) -> None:
        assert self.clock.now_ms() <= self.t_ms

    @invariant()
    def every_routed_sms_is_accounted_for(self) -> None:
        assert self.sent + self.rs.dropped_count + len(self.rs.pending_sms) == self.routed


TestRouterMachine = RouterMachine.TestCase
TestRouterMachine.settings = settings(max_examples=100, stateful_step_count=30,
                                      deadline=None)
