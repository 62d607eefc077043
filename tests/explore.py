"""Every controller state reachable in a few steps, and a digest of what it logs.

A breadth-first search over the real ``controller.step``. Each move is one
of 13 events (or an empty step) after a gap of 0, 1000 or 3000 ms. After
each step the SMS queue is cleared, so the modem counts as always
compliant. Two states are the same when their projections are equal: the
mode, the flags and the fixes, with every time in the state made relative
to the step's time and each cooldown age clipped at the cooldown.

Every transition out of a state above the depth limit is checked against
the invariants below and hashed into the behaviour digest: its event-path
key and its log lines as ``log_to_jsonl`` renders them, in search order. A
change that keeps every log byte keeps the digest.

    python tests/explore.py --depth 8

runs a deeper search than tier-1 does and prints its counts and digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import deque
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motoguard.controller import ControllerState, Mode, RouterState, step
from motoguard.core import (DEFAULT_CONFIG, AlertKind, Auth, ControllerConfig, GasReading,
                            GeoPoint, GpsFix, Ignition, SensorEvent, Severity, SmsSend, Tilt)
from motoguard.harness import EventLog, log_to_jsonl

HOME = GeoPoint(14.5995, 120.9842)
FAR = GeoPoint(14.6085, 120.9842)  # about 1 km north of HOME

# the alphabet: (name, payload or None for an empty step)
MOVES = (
    ("auth_on", Auth(True)), ("auth_off", Auth(False)),
    ("ign_on", Ignition(True)), ("ign_off", Ignition(False)),
    ("gas_pass", GasReading(0.0, 0.0, 0.0)), ("gas_fail", GasReading(400.0, 0.0, 0.0)),
    ("fix_home", GpsFix(HOME, 0.0, True)), ("fix_far", GpsFix(FAR, 0.0, True)),
    ("fix_60", GpsFix(HOME, 60.0, True)), ("fix_invalid", GpsFix(HOME, 0.0, False)),
    ("tilt_90", Tilt(90.0)), ("tilt_0", Tilt(0.0)),
    ("empty", None),
)
GAPS_MS = (0, 1000, 3000)


def _relative(now: int, t_ms: int | None) -> int | None:
    return None if t_ms is None else now - t_ms


def projection(s, cfg: ControllerConfig) -> tuple:
    """What of s decides every later step: each time relative to s's own, and
    each cooldown age clipped at the cooldown, past which all ages act alike."""
    now = 0 if s.last_t_ms is None else s.last_t_ms
    col, crash, theft = s.collision, s.crash, s.theft
    ages = tuple(sorted((kind.value, min(now - t, cfg.sms_cooldown_ms))
                        for kind, t in s.router.last_emit.items()))
    return (s.mode, s.authorized, s.ignition_on, s.last_fix,
            col.prev_range_m, _relative(now, col.prev_t_ms), col.last_ttc_s,
            s.mag._values(),
            _relative(now, crash.over_tilt_since_ms), crash.fired,
            theft.armed, theft.parked_point, _relative(now, theft.last_beacon_t_ms), theft.alarmed,
            s.overspeed_active, s.overtake_unsafe,
            _relative(now, s.preride_start_ms), s.preride_peak,
            ages, s.router.pending_sms, s.router.dropped_count)


def check_transition(before, after, move: str, t_ms: int, cfg: ControllerConfig) -> list[str]:
    """Each invariant the transition breaks, as text."""
    problems = []
    # each HIGH alert and each beacon comes with exactly one SMS, in order,
    # and a crash SMS goes to the police number
    sms_to = [cmd.action.to for cmd in after.commands if type(cmd.action) is SmsSend]
    want_to = [cfg.police_number if a.kind is AlertKind.CRASH else cfg.owner_number
               for a in after.alerts if a.severity is Severity.HIGH or a.kind is AlertKind.BEACON]
    if sms_to != want_to:
        problems.append(f"SMS to {sms_to} for alerts {[a.kind.value for a in after.alerts]}")
    # route's per-kind cooldown: no kind but a beacon alerts twice within it
    last = dict(before.router.last_emit)
    for alert in after.alerts:
        if alert.kind is not AlertKind.BEACON and alert.kind in last \
                and t_ms - last[alert.kind] < cfg.sms_cooldown_ms:
            problems.append(f"{alert.kind.value} again {t_ms - last[alert.kind]} ms later")
        last[alert.kind] = t_ms
    # an authorised ignition at PARKED always reaches PRE_RIDE
    if move == "ign_on" and before.mode is Mode.PARKED and before.authorized \
            and after.mode is not Mode.PRE_RIDE:
        problems.append(f"authorised ignition at parked left {after.mode.value}")
    return problems


class Exploration:
    """The search's counts, its digest and every invariant breach it met."""

    def __init__(self):
        self.states = 0
        self.transitions = 0
        self.digest = hashlib.sha256()
        self.problems: list[str] = []


def explore(depth: int, cfg: ControllerConfig = DEFAULT_CONFIG) -> Exploration:
    """Search every state reachable in at most depth steps. A step that raises
    (ContractViolation from _enter, say) propagates: it is a finding too."""
    out = Exploration()
    root = ControllerState()
    seen = {projection(root, cfg)}
    frontier = deque([(root, "", 0)])
    while frontier:
        state, path, level = frontier.popleft()
        if level == depth:
            continue
        now = 0 if state.last_t_ms is None else state.last_t_ms
        for gap in GAPS_MS:
            t_ms = now + gap
            for name, payload in MOVES:
                events = [] if payload is None else [SensorEvent(t_ms, payload)]
                after, _, _ = step(cfg, state, t_ms, events)
                key = f"{path}/{gap}:{name}"
                out.transitions += 1
                log = EventLog([*after.alerts, *after.commands, *after.changes])
                out.digest.update(f"{key}\n{log_to_jsonl(log)}".encode("ascii"))
                out.problems += (f"{key}: {text}"
                                 for text in check_transition(state, after, name, t_ms, cfg))
                # the modem takes every message at once
                after.router = RouterState(after.router.last_emit, (), after.router.dropped_count)
                proj = projection(after, cfg)
                if proj not in seen:
                    seen.add(proj)
                    frontier.append((after, key, level + 1))
    out.states = len(seen)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    out = explore(args.depth)
    print(f"depth {args.depth}: {out.states} states, {out.transitions} transitions, "
          f"{time.perf_counter() - started:.1f} s")
    print(f"digest {out.digest.hexdigest()}")
    for text in out.problems[:20]:
        print(f"breach {text}")
    print(f"{len(out.problems)} breaches")
    return 1 if out.problems else 0


if __name__ == "__main__":
    sys.exit(main())
