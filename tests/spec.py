"""The controller's safety properties, each written once for every checker.

Each property is a plain function that returns its breaches as text, so an
empty list means it holds. Transition properties take one step: the state
before, the events stamped t_ms, the state after, t_ms and the config.
Router properties take a RouterState with the SMS routed into it and the SMS
its drains delivered, each in order. Run properties take the EventLog of one
replay and its config.
"""

from __future__ import annotations

from collections.abc import Iterator

from motoguard.controller import (MODE_EDGES, SMS_QUEUE_MAX, ControllerState, Mode, ModeChange,
                                  RouterState)
from motoguard.core import (ActuatorCommand, Alert, AlertKind, ControllerConfig, Ignition,
                            SensorEvent, Severity, SmsSend)
from motoguard.harness import EventLog

IGNITION_ON = Ignition(True)


def cooling(last_emit: dict[AlertKind, int], kind: AlertKind, t_ms: int,
            cfg: ControllerConfig) -> bool:
    """Whether route holds kind back at t_ms: within sms_cooldown_ms of that
    kind's last alert, for any kind but a beacon, whose schedule spaces it."""
    last = last_emit.get(kind)
    return kind is not AlertKind.BEACON and last is not None \
        and t_ms - last < cfg.sms_cooldown_ms


def sms_breaches(alerts: list[Alert], commands: list[ActuatorCommand],
                 cfg: ControllerConfig) -> list[str]:
    """Each HIGH alert and each beacon of one step yields exactly one SmsSend,
    in order, and a crash SMS goes to the police number."""
    sms_to = [cmd.action.to for cmd in commands if type(cmd.action) is SmsSend]
    want_to = [cfg.police_number if a.kind is AlertKind.CRASH else cfg.owner_number
               for a in alerts if a.severity is Severity.HIGH or a.kind is AlertKind.BEACON]
    return [] if sms_to == want_to else [
        f"SMS to {sms_to} for alerts {[a.kind.value for a in alerts]}"]


def cooldown_breaches(last_emit: dict[AlertKind, int], alerts: list[Alert],
                      cfg: ControllerConfig) -> list[str]:
    """No alert comes while its kind is cooling; last_emit, each kind's last
    alert time, is brought up to date in place."""
    problems = []
    for a in alerts:
        if cooling(last_emit, a.kind, a.t_ms, cfg):
            problems.append(f"{a.kind.value} again {a.t_ms - last_emit[a.kind]} ms later")
        last_emit[a.kind] = a.t_ms
    return problems


def edge_breaches(mode: Mode, changes: list[ModeChange]) -> list[str]:
    """Every change, made in order from mode, is in MODE_EDGES."""
    problems = []
    for change in changes:
        if (mode, change.mode) not in MODE_EDGES:
            problems.append(f"{mode.value} -> {change.mode.value} at {change.t_ms}")
        mode = change.mode
    return problems


def beacon_breaches(mode: Mode, alerts: list[Alert]) -> list[str]:
    """A step that starts in mode sends beacons only if mode is parked or
    theft_suspected."""
    return [f"beacon at t={a.t_ms} while {mode.value}" for a in alerts
            if a.kind is AlertKind.BEACON and mode not in (Mode.PARKED, Mode.THEFT_SUSPECTED)]


def transition_breaches(before: ControllerState, events: list[SensorEvent],
                        after: ControllerState, t_ms: int, cfg: ControllerConfig) -> list[str]:
    """The SMS rule, the cooldown, the mode edges and the beacon modes of one
    step, and that an authorised ignition at parked always enters pre_ride."""
    problems = sms_breaches(after.alerts, after.commands, cfg)
    problems += cooldown_breaches(dict(before.router.last_emit), after.alerts, cfg)
    problems += edge_breaches(before.mode, after.changes)
    problems += beacon_breaches(before.mode, after.alerts)
    if events and events[0].payload == IGNITION_ON and before.mode is Mode.PARKED \
            and before.authorized and after.changes[:1] != [ModeChange(t_ms, Mode.PRE_RIDE)]:
        problems.append(f"authorised ignition at parked made {after.changes[:1]}")
    return problems


def router_breaches(rs: RouterState, routed: list[SmsSend], delivered: list[SmsSend]) -> list[str]:
    """The queue holds at most SMS_QUEUE_MAX; sent + dropped + pending equals
    routed; and delivery is FIFO: the delivered messages, then the pending
    ones, are the routed ones in order, less the drops."""
    problems = []
    if len(rs.pending_sms) > SMS_QUEUE_MAX:
        problems.append(f"{len(rs.pending_sms)} messages queued")
    if len(delivered) + rs.dropped_count + len(rs.pending_sms) != len(routed):
        problems.append(f"{len(delivered)} sent + {rs.dropped_count} dropped + "
                        f"{len(rs.pending_sms)} pending of {len(routed)} routed")
    rest = iter(routed)
    kept = [*delivered, *(SmsSend(p.to, p.body) for p in rs.pending_sms)]
    if not all(any(msg == sms for sms in rest) for msg in kept):
        problems.append(f"{kept} is out of the routed order {routed}")
    return problems


def run_breaches(log: EventLog, cfg: ControllerConfig) -> list[str]:
    """Records in time order, consecutive mode lines on edges, the cooldown
    across the log, and the SMS rule and the beacon modes per instant."""
    records = log.records
    problems = [f"t={b.t_ms} logged after t={a.t_ms}"
                for a, b in zip(records, records[1:]) if b.t_ms < a.t_ms]
    changes = [rec for rec in records if type(rec) is ModeChange]
    if changes[:1] != [ModeChange(0, Mode.PARKED)]:
        problems.append(f"the log opens with {changes[:1]}")
    problems += edge_breaches(Mode.PARKED, changes[1:])
    problems += cooldown_breaches({}, log.alerts(), cfg)
    for mode, group in instants(log):
        alerts = [r for r in group if type(r) is Alert]
        problems += sms_breaches(alerts, [r for r in group if type(r) is ActuatorCommand], cfg)
        problems += beacon_breaches(mode, alerts)
    return problems


def instants(log: EventLog) -> Iterator[tuple[Mode, list]]:
    """Each instant's records, in log order, with the mode the instant starts in."""
    groups: dict[int, list] = {}
    for rec in log.records:
        groups.setdefault(rec.t_ms, []).append(rec)
    mode = Mode.PARKED
    for group in groups.values():
        yield mode, group
        mode = next((r.mode for r in reversed(group) if type(r) is ModeChange), mode)
