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


@dataclass(frozen=True)
class PendingSms:
    to: str
    body: str
    severity: Severity


@dataclass(frozen=True)
class RouterState:
    # route replaces this map on each emit and never mutates it, so a
    # RouterState can be shared between controller states
    last_emit: dict[AlertKind, int] = field(default_factory=dict)
    pending_sms: tuple[PendingSms, ...] = ()
    dropped_count: int = 0


def _enqueue(rs: RouterState, msg: PendingSms) -> RouterState:
    queue = rs.pending_sms + (msg,)
    dropped = rs.dropped_count
    if len(queue) > SMS_QUEUE_MAX:
        # overflow policy: sacrifice the lowest-severity, oldest entry,
        # which may be the incoming message itself
        victim = min(range(len(queue)), key=lambda i: (queue[i].severity, i))
        queue = queue[:victim] + queue[victim + 1:]
        dropped += 1
    return RouterState(rs.last_emit, queue, dropped)


def route(rs: RouterState, trigger: Trigger, t_ms: int,
          cfg: ControllerConfig) -> tuple[RouterState, Alert | None, list[ActuatorCommand]]:
    """Apply the per-kind cooldown, then fan a trigger out to alert/buzzer/SMS."""
    last = rs.last_emit.get(trigger.kind)
    if last is not None and t_ms - last < cfg.sms_cooldown_ms:
        return rs, None, []
    sev = severity_of(trigger.kind)
    alert = Alert(t_ms, trigger.kind, sev, trigger.message)
    commands: list[ActuatorCommand] = []
    if sev >= Severity.MEDIUM:
        commands.append(ActuatorCommand(t_ms, Buzzer(on=True)))
    if sev is Severity.HIGH or trigger.kind is AlertKind.BEACON:
        to = cfg.police_number if trigger.kind is AlertKind.CRASH else cfg.owner_number
        sms = SmsSend(to=to, body=trigger.message)
        commands.append(ActuatorCommand(t_ms, sms))
        rs = _enqueue(rs, PendingSms(sms.to, sms.body, sev))
    last_emit = {**rs.last_emit, trigger.kind: t_ms}
    return RouterState(last_emit, rs.pending_sms, rs.dropped_count), alert, commands


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


def step(cfg: ControllerConfig, state: ControllerState, t_ms: int,
         events: list[SensorEvent]) -> tuple[ControllerState, list[Alert], list[ActuatorCommand]]:
    """Process all events stamped t_ms and return the follow-on state/outputs."""
    check_t_ms(t_ms)
    if state.last_t_ms is not None and t_ms < state.last_t_ms:
        raise ContractViolation(f"step at t={t_ms} after t={state.last_t_ms}")
    for ev in events:
        if ev.t_ms != t_ms:
            raise ContractViolation(f"event stamped {ev.t_ms} passed to step at t={t_ms}")

    # a shallow copy keeps step pure: every field is either immutable or
    # reassigned below, never mutated in place
    work = object.__new__(ControllerState)
    work.__dict__.update(state.__dict__)
    alerts: list[Alert] = []
    commands: list[ActuatorCommand] = []

    def emit(trigger: Trigger) -> Alert | None:
        rs, alert, cmds = route(work.router, trigger, t_ms, cfg)
        work.router = rs
        if alert is not None:
            alerts.append(alert)
        commands.extend(cmds)
        return alert

    def theft_sync() -> None:
        # evaluate arming against the latest fix on a new fix or an ignition/auth change
        if work.last_fix is None or work.mode not in (Mode.PARKED, Mode.THEFT_SUSPECTED):
            return
        work.theft, triggers = theft_step(work.theft, work.last_fix, work.ignition_on,
                                          work.authorized, t_ms, cfg)
        for trig in triggers:
            emit(trig)
            if trig.kind is AlertKind.THEFT and work.mode is Mode.PARKED:
                work.mode = Mode.THEFT_SUSPECTED

    def overtake_eval() -> None:
        side = work.mag.consecutive_deviant >= cfg.mag_persist_samples
        rear = work.collision.last_ttc_s
        unsafe = overtake_assist(rear, side, cfg)
        if unsafe and not work.overtake_unsafe:
            rear_text = f"{rear:.2f}s" if rear is not None else "none"
            emit(Trigger(AlertKind.OVERTAKE_UNSAFE,
                         f"OVERTAKE UNSAFE side_vehicle={'yes' if side else 'no'} "
                         f"rear_ttc={rear_text}"))
        work.overtake_unsafe = unsafe

    for ev in events:
        p = ev.payload

        if isinstance(p, Auth):
            work.authorized = p.authorized
            if p.authorized:
                work.theft = TheftState()
                if work.mode in (Mode.CRASH_SUSPECTED, Mode.THEFT_SUSPECTED):
                    work.mode = Mode.PARKED
            else:
                theft_sync()

        elif isinstance(p, Ignition):
            work.ignition_on = p.on
            if p.on:
                if work.mode is Mode.PARKED and work.authorized:
                    work.mode = Mode.PRE_RIDE
                    work.preride_start_ms = t_ms
                    work.preride_peak = None
                elif work.mode in (Mode.PARKED, Mode.THEFT_SUSPECTED) and not work.authorized:
                    commands.append(ActuatorCommand(t_ms, SolenoidLock(engaged=True)))
                    emit(Trigger(AlertKind.THEFT, "THEFT unauthorized ignition attempt"))
                    work.mode = Mode.THEFT_SUSPECTED
            else:
                if work.mode in (Mode.PRE_RIDE, Mode.RIDING):
                    work.mode = Mode.PARKED
                    work.preride_start_ms = None
                    work.preride_peak = None
                theft_sync()

        elif isinstance(p, GasReading):
            if work.mode is Mode.PRE_RIDE:
                # the verdict only reads per-gas peaks, so a running peak is
                # all the window needs to keep
                peak = p if work.preride_peak is None else work.preride_peak
                work.preride_peak = GasReading(max(peak.ethanol_ppm, p.ethanol_ppm),
                                               max(peak.co_ppm, p.co_ppm),
                                               max(peak.lpg_ppm, p.lpg_ppm))
                if t_ms - work.preride_start_ms >= cfg.preride_window_ms:
                    faults = preride_faults(work.preride_peak, cfg)
                    work.mode = Mode.PARKED if faults else Mode.RIDING
                    commands.append(ActuatorCommand(t_ms, IgnitionInhibit(on=bool(faults))))
                    for fault in faults:
                        emit(fault)
                    if not faults:
                        # new ride: per-ride detector state must not leak across rides
                        work.collision = CollisionState()
                        work.crash = CrashState()
                        work.overspeed_active = False
                        work.overtake_unsafe = False
                    work.preride_start_ms = None
                    work.preride_peak = None

        elif isinstance(p, LidarRange):
            if work.mode is Mode.RIDING:
                work.collision, trig = collision_step(work.collision, p.range_m, t_ms, cfg)
                if trig is not None:
                    emit(trig)
                overtake_eval()

        elif isinstance(p, MagField):
            # calibration accrues in every mode; proximity only matters riding
            work.mag, trig = mag_step(work.mag, p.b_ut, cfg)
            if work.mode is Mode.RIDING:
                if trig is not None:
                    emit(trig)
                overtake_eval()

        elif isinstance(p, PirMotion):
            if work.mode is Mode.RIDING:
                trig = hazard_step(p.detected, _speed_kph(work.last_fix), cfg)
                if trig is not None:
                    emit(trig)

        elif isinstance(p, Tilt):
            if work.mode is Mode.RIDING:
                work.crash, fired = crash_step(work.crash, p.angle_deg,
                                               _speed_kph(work.last_fix), t_ms, cfg)
                if fired:
                    emit(Trigger(AlertKind.CRASH, _crash_sms_text(work.last_fix, t_ms)))
                    work.mode = Mode.CRASH_SUSPECTED

        elif isinstance(p, GpsFix):
            if p.valid:
                work.last_fix = p
                if work.mode is Mode.RIDING:
                    work.overspeed_active, trig = overspeed_step(
                        work.overspeed_active, p.speed_kph, cfg)
                    if trig is not None:
                        emit(trig)
                else:
                    theft_sync()

        elif isinstance(p, SupplyVoltage):
            if p.volts < cfg.undervoltage_v:
                emit(Trigger(AlertKind.UNDERVOLTAGE,
                             f"UNDERVOLTAGE {p.volts:.1f}V "
                             f"limit={cfg.undervoltage_v:.1f}V"))

    work.last_t_ms = t_ms
    return work, alerts, commands
