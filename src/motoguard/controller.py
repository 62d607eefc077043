"""Mode-aware orchestration: sensor events in, alerts and actuator commands out.

The controller is a pure step function over an explicit state value, so any
prefix of an event stream reproduces the same mode and outputs. Detectors are
gated by mode: the riding aids only run while Riding, the pre-ride gas checks
only in PreRide, and the anti-theft logic only while Parked or TheftSuspected.
"""

from __future__ import annotations

from enum import Enum

from .core import (Alert, ActuatorCommand, AlertKind, Auth, Buzzer, ContractViolation,
                   ControllerConfig, GasReading, GpsFix, Ignition, IgnitionInhibit, LidarRange,
                   MagField, MutableRecord, PirMotion, Record, Severity, SensorEvent, SmsSend,
                   SolenoidLock, SupplyVoltage, Tilt, check_t_ms, factory, severity_of)
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


class ModeChange(Record):
    t_ms: int
    mode: Mode

    def __post_init__(self):
        check_t_ms(self.t_ms)
        if not isinstance(self.mode, Mode):
            raise ContractViolation(f"mode must be a Mode: {self.mode!r}")


# A member load through an Enum class goes through EnumType.__getattr__
# (about 0.12 us on CPython 3.11, four times a plain class attribute), so the
# members that routing, draining and the handlers test per event are bound once
_PARKED, _PRE_RIDE, _RIDING = Mode.PARKED, Mode.PRE_RIDE, Mode.RIDING
_CRASH_SUSPECTED, _THEFT_SUSPECTED = Mode.CRASH_SUSPECTED, Mode.THEFT_SUSPECTED
_MEDIUM, _HIGH = Severity.MEDIUM, Severity.HIGH
_BEACON, _CRASH, _THEFT = AlertKind.BEACON, AlertKind.CRASH, AlertKind.THEFT
_READY = ModemPhase.READY


class PendingSms(Record):
    to: str
    body: str
    severity: Severity


class RouterState(Record):
    # route replaces this map on each emit and never mutates it, so a
    # RouterState can be shared between controller states
    last_emit: dict[AlertKind, int] = factory(dict)
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
    """Apply the per-kind cooldown, then fan a trigger out to alert/buzzer/SMS.

    A beacon is never cooled down: its schedule in theft_step already spaces it."""
    last = rs.last_emit.get(trigger.kind)
    if last is not None and t_ms - last < cfg.sms_cooldown_ms and trigger.kind is not _BEACON:
        return rs, None, []
    sev = severity_of(trigger.kind)
    alert = Alert(t_ms, trigger.kind, sev, trigger.message)
    commands: list[ActuatorCommand] = []
    queue, dropped = rs.pending_sms, rs.dropped_count
    if sev >= _MEDIUM:
        commands.append(ActuatorCommand(t_ms, _BUZZER_ON))
    if sev is _HIGH or trigger.kind is _BEACON:
        to = cfg.police_number if trigger.kind is _CRASH else cfg.owner_number
        sms = SmsSend(to=to, body=trigger.message)
        commands.append(ActuatorCommand(t_ms, sms))
        queue, dropped = _enqueue(queue, dropped, PendingSms(sms.to, sms.body, sev))
    return RouterState({**rs.last_emit, trigger.kind: t_ms}, queue, dropped), alert, commands


def drain_sms(rs: RouterState, client: ModemClient) -> tuple[RouterState, int, list[str]]:
    """Send queued messages FIFO until empty, a reply is due or the modem fails.

    A client that is not READY is initialized first. A message whose reply
    is still due stays at the head of the queue, and the next drain polls
    its exchange on. A failed init or send ends the drain with one failure
    and leaves the head message queued, so the next drain retries it.
    """
    if not rs.pending_sms:
        return rs, 0, []
    sent = 0
    failures: list[str] = []
    try:
        if client.phase is not _READY and not client.modem_init():  # an init reply is due
            return rs, 0, failures
        for msg in rs.pending_sms:
            if client.send_sms(msg.to, msg.body) is None:
                break
            sent += 1
    except ModemError as exc:
        failures.append(str(exc))
    return RouterState(rs.last_emit, rs.pending_sms[sent:], rs.dropped_count), sent, failures


class ControllerState(MutableRecord):
    mode: Mode = Mode.PARKED
    last_t_ms: int | None = None
    authorized: bool = False
    ignition_on: bool = False
    last_fix: GpsFix | None = None
    collision: CollisionState = factory(CollisionState)
    mag: MagState = factory(MagState)
    crash: CrashState = factory(CrashState)
    theft: TheftState = factory(TheftState)
    overspeed_active: bool = False
    overtake_unsafe: bool = False
    preride_start_ms: int | None = None
    preride_peak: GasReading | None = None
    router: RouterState = factory(RouterState)
    # what the last advance did, in order; advance starts each list empty
    alerts: list[Alert] = factory(list)
    commands: list[ActuatorCommand] = factory(list)
    changes: list[ModeChange] = factory(list)


def _speed_kph(fix: GpsFix | None) -> float:
    return 0.0 if fix is None else fix.speed_kph


def _crash_sms_text(fix: GpsFix | None, t_ms: int) -> str:
    if fix is None:
        return f"CRASH unknown t={t_ms}"
    return f"CRASH {fix.point.lat_deg:.6f},{fix.point.lon_deg:.6f} t={t_ms}"


def _emit(cfg: ControllerConfig, s: ControllerState, t_ms: int, trigger: Trigger | None) -> None:
    if trigger is None:
        return
    s.router, alert, cmds = route(s.router, trigger, t_ms, cfg)
    if alert is not None:
        s.alerts.append(alert)
    s.commands.extend(cmds)


def _enter(s: ControllerState, mode: Mode, t_ms: int) -> None:
    """Move s to mode along a MODE_EDGES edge: run the exit and entry actions
    once and record the change. Entering the current mode does nothing."""
    if mode is s.mode:
        return
    if (s.mode, mode) not in MODE_EDGES:
        raise ContractViolation(f"no mode edge {s.mode.value} -> {mode.value}")
    if s.mode is _PRE_RIDE:
        s.preride_start_ms = s.preride_peak = None
    if mode is _PRE_RIDE:
        s.preride_start_ms = t_ms
    elif mode is _RIDING:
        # new ride: per-ride detector state must not leak across rides
        s.collision, s.crash = CollisionState(), CrashState()
        s.overspeed_active = s.overtake_unsafe = False
    s.mode = mode
    s.changes.append(ModeChange(t_ms, mode))


def _theft_sync(cfg: ControllerConfig, s: ControllerState, t_ms: int) -> None:
    # evaluate arming against the latest fix on a new fix or an ignition/auth change
    if s.last_fix is None or s.mode not in (_PARKED, _THEFT_SUSPECTED):
        return
    s.theft, triggers = theft_step(s.theft, s.last_fix, s.ignition_on, s.authorized, t_ms, cfg)
    for trig in triggers:
        _emit(cfg, s, t_ms, trig)
        if trig.kind is _THEFT:
            _enter(s, _THEFT_SUSPECTED, t_ms)


def _overtake_eval(cfg: ControllerConfig, s: ControllerState, t_ms: int) -> None:
    side = s.mag.consecutive_deviant >= cfg.mag_persist_samples
    rear = s.collision.last_ttc_s
    unsafe = overtake_assist(rear, side, cfg)
    if unsafe and not s.overtake_unsafe:
        rear_text = f"{rear:.2f}s" if rear is not None else "none"
        _emit(cfg, s, t_ms, Trigger(AlertKind.OVERTAKE_UNSAFE,
                                    f"OVERTAKE UNSAFE side_vehicle={'yes' if side else 'no'} "
                                    f"rear_ttc={rear_text}"))
    s.overtake_unsafe = unsafe


# One handler per payload class: handler(cfg, state, t_ms, payload) applies
# one event to state in place and appends its outputs to the state's records.

def _on_auth(cfg, s, t_ms, p: Auth) -> None:
    s.authorized = p.authorized
    if p.authorized:
        s.theft = TheftState()
        if s.mode in (_CRASH_SUSPECTED, _THEFT_SUSPECTED):
            _enter(s, _PARKED, t_ms)
    else:
        if s.mode is _PRE_RIDE:
            # revoked before the window closed: end it as a failed
            # check does. A moving bike in RIDING keeps its ignition.
            _enter(s, _PARKED, t_ms)
            s.commands.append(ActuatorCommand(t_ms, IgnitionInhibit(on=True)))
        _theft_sync(cfg, s, t_ms)


def _on_ignition(cfg, s, t_ms, p: Ignition) -> None:
    s.ignition_on = p.on
    if p.on:
        if s.mode is _PARKED and s.authorized:
            _enter(s, _PRE_RIDE, t_ms)
        elif s.mode in (_PARKED, _THEFT_SUSPECTED) and not s.authorized:
            s.commands.append(ActuatorCommand(t_ms, SolenoidLock(engaged=True)))
            _emit(cfg, s, t_ms, Trigger(_THEFT, "THEFT unauthorized ignition attempt"))
            _enter(s, _THEFT_SUSPECTED, t_ms)
    else:
        if s.mode in (_PRE_RIDE, _RIDING):
            _enter(s, _PARKED, t_ms)
        _theft_sync(cfg, s, t_ms)


def _on_gas(cfg, s, t_ms, p: GasReading) -> None:
    if s.mode is _PRE_RIDE:
        # the verdict only reads per-gas peaks, so a running peak is all the
        # window needs to keep
        peak = p if s.preride_peak is None else s.preride_peak
        s.preride_peak = GasReading(max(peak.ethanol_ppm, p.ethanol_ppm),
                                    max(peak.co_ppm, p.co_ppm), max(peak.lpg_ppm, p.lpg_ppm))
        if t_ms - s.preride_start_ms >= cfg.preride_window_ms:
            faults = preride_faults(s.preride_peak, cfg)
            s.commands.append(ActuatorCommand(t_ms, IgnitionInhibit(on=bool(faults))))
            for fault in faults:
                _emit(cfg, s, t_ms, fault)
            _enter(s, _PARKED if faults else _RIDING, t_ms)


def _on_lidar(cfg, s, t_ms, p: LidarRange) -> None:
    if s.mode is _RIDING:
        s.collision, trig = collision_step(s.collision, p.range_m, t_ms, cfg)
        _emit(cfg, s, t_ms, trig)
        _overtake_eval(cfg, s, t_ms)


def _on_mag(cfg, s, t_ms, p: MagField) -> None:
    # calibration accrues in every mode; proximity only matters riding
    s.mag, trig = mag_step(s.mag, p.b_ut, cfg)
    if s.mode is _RIDING:
        _emit(cfg, s, t_ms, trig)
        _overtake_eval(cfg, s, t_ms)


def _on_pir(cfg, s, t_ms, p: PirMotion) -> None:
    if s.mode is _RIDING:
        _emit(cfg, s, t_ms, hazard_step(p.detected, _speed_kph(s.last_fix), cfg))


def _on_tilt(cfg, s, t_ms, p: Tilt) -> None:
    if s.mode is _RIDING:
        s.crash, fired = crash_step(s.crash, p.angle_deg, _speed_kph(s.last_fix), t_ms, cfg)
        if fired:
            _emit(cfg, s, t_ms, Trigger(_CRASH, _crash_sms_text(s.last_fix, t_ms)))
            _enter(s, _CRASH_SUSPECTED, t_ms)


def _on_fix(cfg, s, t_ms, p: GpsFix) -> None:
    if p.valid:
        s.last_fix = p
        if s.mode is _RIDING:
            s.overspeed_active, trig = overspeed_step(s.overspeed_active, p.speed_kph, cfg)
            _emit(cfg, s, t_ms, trig)
        else:
            _theft_sync(cfg, s, t_ms)


def _on_voltage(cfg, s, t_ms, p: SupplyVoltage) -> None:
    if p.volts < cfg.undervoltage_v:
        _emit(cfg, s, t_ms, Trigger(AlertKind.UNDERVOLTAGE, f"UNDERVOLTAGE {p.volts:.1f}V "
                                    f"limit={cfg.undervoltage_v:.1f}V"))


_HANDLERS = {Auth: _on_auth, Ignition: _on_ignition, GasReading: _on_gas,
             LidarRange: _on_lidar, MagField: _on_mag, PirMotion: _on_pir, Tilt: _on_tilt,
             GpsFix: _on_fix, SupplyVoltage: _on_voltage}


def advance(cfg: ControllerConfig, state: ControllerState, t_ms: int,
            events: list[SensorEvent]) -> None:
    """Apply all events stamped t_ms to state, which the caller owns, in place;
    state.alerts, state.commands and state.changes record what they made, in order."""
    check_t_ms(t_ms)
    if state.last_t_ms is not None and t_ms < state.last_t_ms:
        raise ContractViolation(f"step at t={t_ms} after t={state.last_t_ms}")
    for ev in events:
        if ev.t_ms != t_ms:
            raise ContractViolation(f"event stamped {ev.t_ms} passed to step at t={t_ms}")
    state.alerts, state.commands, state.changes = [], [], []
    for ev in events:
        p = ev.payload
        _HANDLERS[type(p)](cfg, state, t_ms, p)
    state.last_t_ms = t_ms


def step(cfg: ControllerConfig, state: ControllerState, t_ms: int,
         events: list[SensorEvent]) -> tuple[ControllerState, list[Alert], list[ActuatorCommand]]:
    """Process all events stamped t_ms; return the new state and its alerts and commands."""
    # a shallow copy keeps step pure: advance gives the copy fresh record lists
    # before it appends to them, and reassigns every other field, never mutating it
    work = ControllerState._unchecked(*state._values())
    advance(cfg, work, t_ms, events)
    return work, work.alerts, work.commands
