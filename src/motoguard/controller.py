"""Mode-aware orchestration: sensor events in, alerts and actuator commands out.

The controller is a pure step function over an explicit state value, so any
prefix of an event stream reproduces the same mode and outputs. Detectors are
gated by mode: the riding aids only run while Riding, the pre-ride gas checks
only in PreRide, and the anti-theft logic only while Parked or TheftSuspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import (Alert, ActuatorCommand, AlertKind, Auth, Buzzer, ContractViolation,
                   ControllerConfig, GasReading, GpsFix, Ignition, IgnitionInhibit,
                   LidarRange, MagField, PirMotion, Severity, SensorEvent, SmsSend,
                   SolenoidLock, SupplyVoltage, Tilt, check_t_ms, severity_of)
from .detectors import (CollisionState, CrashState, MagState, TheftState, Trigger,
                        collision_step, crash_step, hazard_step, mag_step, overspeed_step,
                        overtake_assist, preride_faults, theft_step)
from .gsm import ModemClient, ModemError, ModemPhase

SMS_QUEUE_MAX = 32


class Mode(str, Enum):
    PARKED = "parked"
    PRE_RIDE = "pre_ride"
    RIDING = "riding"
    CRASH_SUSPECTED = "crash_suspected"
    THEFT_SUSPECTED = "theft_suspected"


# every (from, to) mode change step can make; README's "Modes" table lists the same
MODE_EDGES = frozenset({(Mode.PARKED, Mode.PRE_RIDE), (Mode.PARKED, Mode.THEFT_SUSPECTED),
                        (Mode.PRE_RIDE, Mode.PARKED), (Mode.PRE_RIDE, Mode.RIDING),
                        (Mode.RIDING, Mode.PARKED), (Mode.RIDING, Mode.CRASH_SUSPECTED),
                        (Mode.CRASH_SUSPECTED, Mode.PARKED), (Mode.THEFT_SUSPECTED, Mode.PARKED)})


@dataclass(frozen=True, slots=True)
class PendingSms:
    to: str
    body: str
    severity: Severity


@dataclass(frozen=True, slots=True)
class RouterState:
    # route replaces this map on each emit and never mutates it, so a
    # RouterState can be shared between controller states
    last_emit: dict[AlertKind, int] = field(default_factory=dict)
    pending_sms: tuple[PendingSms, ...] = ()
    dropped_count: int = 0


_BUZZER_ON = Buzzer(on=True)  # records are immutable, so every buzzer command shares it


def _enqueue(queue: tuple[PendingSms, ...], dropped: int, msg: PendingSms) -> tuple[tuple, int]:
    """The queue with msg appended, and the drop count after overflow."""
    queue += (msg,)
    if len(queue) > SMS_QUEUE_MAX:
        # overflow policy: sacrifice the lowest-severity, oldest entry,
        # which may be the incoming message itself
        victim = min(range(len(queue)), key=lambda i: (queue[i].severity, i))
        queue = queue[:victim] + queue[victim + 1:]
        dropped += 1
    return queue, dropped


def route(rs: RouterState, trigger: Trigger, t_ms: int,
          cfg: ControllerConfig) -> tuple[RouterState, Alert | None, list[ActuatorCommand]]:
    """Apply the per-kind cooldown, then fan a trigger out to alert/buzzer/SMS."""
    last = rs.last_emit.get(trigger.kind)
    if last is not None and t_ms - last < cfg.sms_cooldown_ms:
        return rs, None, []
    sev = severity_of(trigger.kind)
    alert = Alert(t_ms, trigger.kind, sev, trigger.message)
    commands: list[ActuatorCommand] = []
    queue, dropped = rs.pending_sms, rs.dropped_count
    if sev >= Severity.MEDIUM:
        commands.append(ActuatorCommand(t_ms, _BUZZER_ON))
    if sev is Severity.HIGH or trigger.kind is AlertKind.BEACON:
        to = cfg.police_number if trigger.kind is AlertKind.CRASH else cfg.owner_number
        sms = SmsSend(to=to, body=trigger.message)
        commands.append(ActuatorCommand(t_ms, sms))
        queue, dropped = _enqueue(queue, dropped, PendingSms(sms.to, sms.body, sev))
    return RouterState({**rs.last_emit, trigger.kind: t_ms}, queue, dropped), alert, commands


def drain_sms(rs: RouterState, client: ModemClient) -> tuple[RouterState, int, list[str]]:
    """Send queued messages FIFO until empty or the modem fails.

    A client that is not READY is initialized first. A failed init or send
    ends the drain with one failure and leaves the head message queued, so
    the next drain retries it.
    """
    if not rs.pending_sms:
        return rs, 0, []
    sent = 0
    failures: list[str] = []
    try:
        if client.phase is not ModemPhase.READY:
            client.modem_init()
        for msg in rs.pending_sms:
            client.send_sms(msg.to, msg.body)
            sent += 1
    except ModemError as exc:
        failures.append(str(exc))
    return RouterState(rs.last_emit, rs.pending_sms[sent:], rs.dropped_count), sent, failures


@dataclass
class ControllerState:
    mode: Mode = Mode.PARKED
    last_t_ms: int | None = None
    authorized: bool = False
    ignition_on: bool = False
    last_fix: GpsFix | None = None
    collision: CollisionState = field(default_factory=CollisionState)
    mag: MagState = field(default_factory=MagState)
    crash: CrashState = field(default_factory=CrashState)
    theft: TheftState = field(default_factory=TheftState)
    overspeed_active: bool = False
    overtake_unsafe: bool = False
    preride_start_ms: int | None = None
    preride_peak: GasReading | None = None
    router: RouterState = field(default_factory=RouterState)


def _speed_kph(fix: GpsFix | None) -> float:
    return 0.0 if fix is None else fix.speed_kph


def _crash_sms_text(fix: GpsFix | None, t_ms: int) -> str:
    if fix is None:
        return f"CRASH unknown t={t_ms}"
    return f"CRASH {fix.point.lat_deg:.6f},{fix.point.lon_deg:.6f} t={t_ms}"


def _emit(cfg: ControllerConfig, s: ControllerState, t_ms: int, trigger: Trigger,
          alerts: list[Alert], commands: list[ActuatorCommand]) -> None:
    s.router, alert, cmds = route(s.router, trigger, t_ms, cfg)
    if alert is not None:
        alerts.append(alert)
    commands.extend(cmds)


def _theft_sync(cfg: ControllerConfig, s: ControllerState, t_ms: int,
                alerts: list[Alert], commands: list[ActuatorCommand]) -> None:
    # evaluate arming against the latest fix on a new fix or an ignition/auth change
    if s.last_fix is None or s.mode not in (Mode.PARKED, Mode.THEFT_SUSPECTED):
        return
    s.theft, triggers = theft_step(s.theft, s.last_fix, s.ignition_on, s.authorized, t_ms, cfg)
    for trig in triggers:
        _emit(cfg, s, t_ms, trig, alerts, commands)
        if trig.kind is AlertKind.THEFT and s.mode is Mode.PARKED:
            s.mode = Mode.THEFT_SUSPECTED


def _overtake_eval(cfg: ControllerConfig, s: ControllerState, t_ms: int,
                   alerts: list[Alert], commands: list[ActuatorCommand]) -> None:
    side = s.mag.consecutive_deviant >= cfg.mag_persist_samples
    rear = s.collision.last_ttc_s
    unsafe = overtake_assist(rear, side, cfg)
    if unsafe and not s.overtake_unsafe:
        rear_text = f"{rear:.2f}s" if rear is not None else "none"
        _emit(cfg, s, t_ms, Trigger(AlertKind.OVERTAKE_UNSAFE,
                                    f"OVERTAKE UNSAFE side_vehicle={'yes' if side else 'no'} "
                                    f"rear_ttc={rear_text}"), alerts, commands)
    s.overtake_unsafe = unsafe


# One handler per payload class: handler(cfg, state, t_ms, payload, alerts,
# commands) applies one event to state in place and appends its outputs.

def _on_auth(cfg, s, t_ms, p: Auth, alerts, commands) -> None:
    s.authorized = p.authorized
    if p.authorized:
        s.theft = TheftState()
        if s.mode in (Mode.CRASH_SUSPECTED, Mode.THEFT_SUSPECTED):
            s.mode = Mode.PARKED
    else:
        if s.mode is Mode.PRE_RIDE:
            # revoked before the window closed: end it as a failed
            # check does. A moving bike in RIDING keeps its ignition.
            s.mode = Mode.PARKED
            s.preride_start_ms = None
            s.preride_peak = None
            commands.append(ActuatorCommand(t_ms, IgnitionInhibit(on=True)))
        _theft_sync(cfg, s, t_ms, alerts, commands)


def _on_ignition(cfg, s, t_ms, p: Ignition, alerts, commands) -> None:
    s.ignition_on = p.on
    if p.on:
        if s.mode is Mode.PARKED and s.authorized:
            s.mode = Mode.PRE_RIDE
            s.preride_start_ms = t_ms
            s.preride_peak = None
        elif s.mode in (Mode.PARKED, Mode.THEFT_SUSPECTED) and not s.authorized:
            commands.append(ActuatorCommand(t_ms, SolenoidLock(engaged=True)))
            _emit(cfg, s, t_ms, Trigger(AlertKind.THEFT, "THEFT unauthorized ignition attempt"),
                  alerts, commands)
            s.mode = Mode.THEFT_SUSPECTED
    else:
        if s.mode in (Mode.PRE_RIDE, Mode.RIDING):
            s.mode = Mode.PARKED
            s.preride_start_ms = None
            s.preride_peak = None
        _theft_sync(cfg, s, t_ms, alerts, commands)


def _on_gas(cfg, s, t_ms, p: GasReading, alerts, commands) -> None:
    if s.mode is Mode.PRE_RIDE:
        # the verdict only reads per-gas peaks, so a running peak is all the
        # window needs to keep
        peak = p if s.preride_peak is None else s.preride_peak
        s.preride_peak = GasReading(max(peak.ethanol_ppm, p.ethanol_ppm),
                                    max(peak.co_ppm, p.co_ppm), max(peak.lpg_ppm, p.lpg_ppm))
        if t_ms - s.preride_start_ms >= cfg.preride_window_ms:
            faults = preride_faults(s.preride_peak, cfg)
            s.mode = Mode.PARKED if faults else Mode.RIDING
            commands.append(ActuatorCommand(t_ms, IgnitionInhibit(on=bool(faults))))
            for fault in faults:
                _emit(cfg, s, t_ms, fault, alerts, commands)
            if not faults:
                # new ride: per-ride detector state must not leak across rides
                s.collision = CollisionState()
                s.crash = CrashState()
                s.overspeed_active = False
                s.overtake_unsafe = False
            s.preride_start_ms = None
            s.preride_peak = None


def _on_lidar(cfg, s, t_ms, p: LidarRange, alerts, commands) -> None:
    if s.mode is Mode.RIDING:
        s.collision, trig = collision_step(s.collision, p.range_m, t_ms, cfg)
        if trig is not None:
            _emit(cfg, s, t_ms, trig, alerts, commands)
        _overtake_eval(cfg, s, t_ms, alerts, commands)


def _on_mag(cfg, s, t_ms, p: MagField, alerts, commands) -> None:
    # calibration accrues in every mode; proximity only matters riding
    s.mag, trig = mag_step(s.mag, p.b_ut, cfg)
    if s.mode is Mode.RIDING:
        if trig is not None:
            _emit(cfg, s, t_ms, trig, alerts, commands)
        _overtake_eval(cfg, s, t_ms, alerts, commands)


def _on_pir(cfg, s, t_ms, p: PirMotion, alerts, commands) -> None:
    if s.mode is Mode.RIDING:
        trig = hazard_step(p.detected, _speed_kph(s.last_fix), cfg)
        if trig is not None:
            _emit(cfg, s, t_ms, trig, alerts, commands)


def _on_tilt(cfg, s, t_ms, p: Tilt, alerts, commands) -> None:
    if s.mode is Mode.RIDING:
        s.crash, fired = crash_step(s.crash, p.angle_deg, _speed_kph(s.last_fix), t_ms, cfg)
        if fired:
            _emit(cfg, s, t_ms, Trigger(AlertKind.CRASH, _crash_sms_text(s.last_fix, t_ms)),
                  alerts, commands)
            s.mode = Mode.CRASH_SUSPECTED


def _on_fix(cfg, s, t_ms, p: GpsFix, alerts, commands) -> None:
    if p.valid:
        s.last_fix = p
        if s.mode is Mode.RIDING:
            s.overspeed_active, trig = overspeed_step(s.overspeed_active, p.speed_kph, cfg)
            if trig is not None:
                _emit(cfg, s, t_ms, trig, alerts, commands)
        else:
            _theft_sync(cfg, s, t_ms, alerts, commands)


def _on_voltage(cfg, s, t_ms, p: SupplyVoltage, alerts, commands) -> None:
    if p.volts < cfg.undervoltage_v:
        _emit(cfg, s, t_ms, Trigger(AlertKind.UNDERVOLTAGE, f"UNDERVOLTAGE {p.volts:.1f}V "
                                    f"limit={cfg.undervoltage_v:.1f}V"), alerts, commands)


_HANDLERS = {Auth: _on_auth, Ignition: _on_ignition, GasReading: _on_gas,
             LidarRange: _on_lidar, MagField: _on_mag, PirMotion: _on_pir, Tilt: _on_tilt,
             GpsFix: _on_fix, SupplyVoltage: _on_voltage}


def _inherited(cls: type):
    """The handler of a payload subclass's nearest payload base, as an isinstance
    chain picks it; None for an object of no payload class, which is ignored."""
    return next((_HANDLERS[base] for base in cls.__mro__ if base in _HANDLERS), None)


def advance(cfg: ControllerConfig, state: ControllerState, t_ms: int,
            events: list[SensorEvent]) -> tuple[list[Alert], list[ActuatorCommand]]:
    """Apply all events stamped t_ms to state, which the caller owns, in place."""
    check_t_ms(t_ms)
    if state.last_t_ms is not None and t_ms < state.last_t_ms:
        raise ContractViolation(f"step at t={t_ms} after t={state.last_t_ms}")
    for ev in events:
        if ev.t_ms != t_ms:
            raise ContractViolation(f"event stamped {ev.t_ms} passed to step at t={t_ms}")
    alerts: list[Alert] = []
    commands: list[ActuatorCommand] = []
    for ev in events:
        p = ev.payload
        handler = _HANDLERS.get(type(p)) or _inherited(type(p))
        if handler is not None:
            handler(cfg, state, t_ms, p, alerts, commands)
    state.last_t_ms = t_ms
    return alerts, commands


def step(cfg: ControllerConfig, state: ControllerState, t_ms: int,
         events: list[SensorEvent]) -> tuple[ControllerState, list[Alert], list[ActuatorCommand]]:
    """Process all events stamped t_ms and return the follow-on state/outputs."""
    # a shallow copy keeps step pure: advance reassigns fields, never mutates them
    work = object.__new__(ControllerState)
    work.__dict__.update(state.__dict__)
    alerts, commands = advance(cfg, work, t_ms, events)
    return work, alerts, commands
