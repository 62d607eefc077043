"""Seeded input generator for the perfbench workloads (standard library only).

Every input is a pure function of (workload, seed, size): the same arguments
give byte-identical files. The generator plants alerts where it places the
events and returns the exact (kind, t_ms) of every alert the controller must
raise, so each pass can be scored against it. The program under test only
ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
TICK_MS = 50
HOUR_MS = 3_600_000

# The generator does not import the program, so it spells out the alert kinds.
ALERT_KINDS = ("collision", "vehicle_proximity", "road_hazard", "alcohol_lockout",
               "gas_leak", "overspeed", "crash", "overtake_unsafe", "theft", "beacon",
               "undervoltage")

# Sizes that make one pass of each workload take a quarter to half a second
# on a 2-vCPU x86 host with CPython 3.11: enough passes fit in a run for a
# steady median, and each pass is long enough to time.
DEFAULT_SIZES = {
    "ride_dense": 300_000,    # virtual ms of riding
    "alert_storm": 120_000,   # virtual ms of riding
    "parked_nmea": 7_300,     # 1 Hz RMC sentences: 2 h 1 min
}

# Per-workload salt so two workloads never share a random stream.
_SALT = {"ride_dense": 1, "alert_storm": 2, "parked_nmea": 3}


@dataclass
class Inputs:
    """One workload's generated files plus what the controller must do with them."""

    files: dict[str, bytes]
    events: int
    alerts: list[tuple[str, int]]
    mode_changes: int
    planted: dict[str, int] = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(seed * 16 + _SALT[workload])


def _labels(alerts: list[tuple[str, int]]) -> list[dict]:
    """Exact one-instant windows for every planted alert, negatives for the rest."""
    out: list[dict] = [{"kind": kind, "start_ms": t, "end_ms": t} for kind, t in alerts]
    raised = {kind for kind, _ in alerts}
    out.extend({"kind": kind, "negative": True} for kind in ALERT_KINDS if kind not in raised)
    return out


def _scenario(name: str, description: str, config: dict, alerts: list[tuple[str, int]],
              events: list[str]) -> bytes:
    header: dict = {"name": name, "description": description}
    if config:
        header["config"] = config
    header["expected"] = _labels(alerts)
    return ("\n".join([json.dumps(header)] + events) + "\n").encode("ascii")


def _event(t_ms: int, sensor: str, **values) -> str:
    return json.dumps({"t_ms": t_ms, "sensor": sensor, **values})


# --- synthetic rides -------------------------------------------------------

# Dense-ride episodes, one every 40 s (jittered by whole seconds, so the
# 30 s per-kind SMS cooldown never merges two episodes of one kind).
_EPISODES = ("collision", "proximity", "hazard", "overspeed")
_EPISODE_GAP_MS = 40_000
_RAMP_STEP_M = 0.55           # per 50 ms tick: the target closes at 11 m/s
_RAMP_TICKS = 27              # ramp from 30 m down to 15.15 m
_RAMP_FIRST_ALERT = 15        # 30 - 0.55*15 = 21.75 m -> ttc 1.98 s < 2 s; tick 14 gives 2.03 s
_STORM_TOP_M = 20.0           # storm sawtooth: 20 m down to 2.4 m, ttc always <= 1.77 s
_STORM_TICKS = 33


def ride(seed: int, ride_ms: int, *, storm: bool) -> Inputs:
    """An authorised ride with 50 ms lidar+mag, 100 ms PIR/tilt and 1 s GPS.

    ``storm=False`` plants a few collision, proximity, hazard and overspeed
    episodes under the default config. ``storm=True`` sets a 1 ms SMS
    cooldown and a rear target that keeps closing, so almost every lidar
    sample raises a collision alert that is queued and sent by SMS.
    """
    name = "alert_storm" if storm else "ride_dense"
    rng = _rng(name, seed)
    events: list[str] = [_event(0, "auth", authorized=True), _event(0, "ignition", on=True)]
    for t in (100, 1000, 2000):
        events.append(_event(t, "gas", ethanol_ppm=round(rng.uniform(2, 8), 1),
                             co_ppm=round(rng.uniform(0, 3), 1),
                             lpg_ppm=round(rng.uniform(5, 20), 1)))
    alerts: list[tuple[str, int]] = []
    start = 2050                  # first tick after pre-ride hands over to riding
    end = start + ride_ms

    episodes: dict[int, str] = {}
    if not storm:
        j = 0
        while True:
            at = 10_000 + _EPISODE_GAP_MS * j + 1000 * rng.randrange(4)
            if at + 5000 > end:
                break
            episodes[at] = _EPISODES[j % len(_EPISODES)]
            j += 1
    ramp: dict[int, float] = {}       # tick -> rear range during a collision ramp
    deviant: set[int] = set()         # mag ticks with a vehicle alongside
    hazard: set[int] = set()          # PIR ticks that see motion
    fast: set[int] = set()            # GPS ticks above the speed limit
    for at, kind in sorted(episodes.items()):
        if kind == "collision":
            for k in range(1, _RAMP_TICKS + 1):
                ramp[at + TICK_MS * k] = round(30.0 - _RAMP_STEP_M * k, 3)
            t_alert = at + TICK_MS * _RAMP_FIRST_ALERT
            alerts += [("collision", t_alert), ("overtake_unsafe", t_alert)]
        elif kind == "proximity":
            deviant.update(at + TICK_MS * k for k in range(10))
            # the third deviant sample in a row completes mag_persist_samples
            alerts += [("vehicle_proximity", at + 2 * TICK_MS),
                       ("overtake_unsafe", at + 2 * TICK_MS)]
        elif kind == "hazard":
            hazard.update((at, at + 100, at + 200))
            alerts.append(("road_hazard", at))
        else:
            fast.add(at)
            alerts.append(("overspeed", at))

    lat = 14.5 + rng.uniform(0, 0.1)
    lon = 120.9 + rng.uniform(0, 0.1)
    storm_k = 0
    for t in range(start, end, TICK_MS):
        if t % 1000 == 0:
            lat += 0.0001
            speed = 92.0 if t in fast else round(rng.uniform(45, 65), 1)
            events.append(_event(t, "gps", lat_deg=round(lat, 6), lon_deg=round(lon, 6),
                                 speed_kph=speed, valid=True))
        if storm:
            events.append(_event(t, "lidar", range_m=round(_STORM_TOP_M - _RAMP_STEP_M * storm_k, 3)))
            if storm_k >= 1:
                alerts.append(("collision", t))
                if storm_k == 1:
                    alerts.append(("overtake_unsafe", t))
            storm_k = (storm_k + 1) % _STORM_TICKS
        else:
            rear = ramp.get(t)
            if rear is None:
                rear = round(30.0 + rng.uniform(-0.05, 0.05), 3)
            events.append(_event(t, "lidar", range_m=rear))
        b = 45.0 + rng.uniform(-1, 1) + (15.0 if t in deviant else 0.0)
        events.append(_event(t, "mag", b_ut=round(b, 2)))
        if t % 100 == 0:
            events.append(_event(t, "pir", detected=t in hazard))
        else:
            events.append(_event(t, "tilt", angle_deg=round(rng.uniform(0, 25), 1)))
    events.append(_event(end, "ignition", on=False))

    alerts.sort(key=lambda a: a[1])
    config = {"sms_cooldown_ms": 1} if storm else {}
    description = ("Closing rear target with a 1 ms SMS cooldown: an alert and an SMS on "
                   "almost every lidar sample" if storm else
                   "Long authorised ride with dense sensors and a few planted alerts")
    data = _scenario(name, description, config, alerts, events)
    # pre-ride at 0, riding at 2000, parked again at ignition off
    return Inputs(files={f"{name}.jsonl": data}, events=len(events), alerts=alerts,
                  mode_changes=3)


# --- parked bike with raw NMEA ---------------------------------------------

def xor_checksum(body: str) -> str:
    total = 0
    for ch in body:
        total ^= ord(ch)
    return "%02X" % total


def _coord(value: float, width: int, pos: str, neg: str) -> tuple[str, str]:
    hemi = pos if value >= 0 else neg
    mag = abs(value)
    degrees = int(mag)
    minutes = round((mag - degrees) * 60.0, 4)
    if minutes >= 60.0:
        degrees += 1
        minutes = 0.0
    return f"{degrees:0{width}d}{minutes:07.4f}", hemi


def rmc_sentence(lat: float, lon: float, knots: float, course: float, utc_s: int,
                 status: str) -> str:
    lat_txt, ns = _coord(lat, 2, "N", "S")
    lon_txt, ew = _coord(lon, 3, "E", "W")
    hh, rest = divmod(utc_s % 86_400, 3600)
    mm, ss = divmod(rest, 60)
    body = (f"GPRMC,{hh:02d}{mm:02d}{ss:02d},{status},{lat_txt},{ns},{lon_txt},{ew},"
            f"{knots:05.1f},{course:05.1f},170326,,")
    return f"${body}*{xor_checksum(body)}"


def parked_nmea(seed: int, sentences: int) -> Inputs:
    """An unauthorised bike parked for hours, with GPS as 1 Hz RMC sentences.

    Sentence i is stamped i*1000 ms. 2% of the sentences report status V
    and 1% carry a corrupted checksum; the first ten and the last are
    valid. The bike is moved 111 m once, between a third and two thirds of
    the way through, which breaches the 15 m geofence.
    """
    rng = _rng("parked_nmea", seed)
    lat0 = 14.55 + rng.uniform(0, 0.05)
    lon0 = 121.0 + rng.uniform(0, 0.05)
    utc0 = rng.randrange(86_400)
    n_bad = sentences // 100
    n_void = sentences // 50
    special = rng.sample(range(10, sentences - 1), n_bad + n_void)
    bad = set(special[:n_bad])
    void = set(special[n_bad:])
    breach = rng.randrange(sentences // 3, 2 * sentences // 3)

    lines: list[str] = []
    alerts: list[tuple[str, int]] = []
    alarmed = False
    next_beacon = HOUR_MS
    for i in range(sentences):
        moved = 0.001 if i >= breach else 0.0
        line = rmc_sentence(lat0 + moved + rng.uniform(-2e-5, 2e-5),
                            lon0 + rng.uniform(-2e-5, 2e-5),
                            rng.uniform(0, 0.3), rng.uniform(0, 359.9), utc0 + i,
                            "V" if i in void else "A")
        if i in bad:
            good = line[-2:]
            line = line[:-2] + "%02X" % (int(good, 16) ^ 0x5A)
        lines.append(line)
        if i in bad or i in void:
            continue
        t = i * 1000
        if i >= breach and not alarmed:
            alarmed = True
            alerts.append(("theft", t))
        if t >= next_beacon:
            alerts.append(("beacon", t))
            next_beacon += HOUR_MS

    header = _scenario("parked_nmea", "Unauthorised bike parked for hours; GPS arrives "
                       "as raw 1 Hz RMC sentences", {}, alerts,
                       [_event(0, "auth", authorized=False)])
    nmea = ("\r\n".join(lines) + "\r\n").encode("ascii")
    # armed at t=0 by the first fix; each beacon is one whole hour after arming
    return Inputs(files={"parked_nmea.jsonl": header, "parked_nmea.nmea": nmea},
                  events=sentences + 1, alerts=alerts, mode_changes=1,
                  planted={"sentences": sentences, "bad_checksum": n_bad,
                           "status_void": n_void, "beacon_hours": (sentences - 1) * 1000 // HOUR_MS})


def generate(workload: str, seed: int, size: int | None = None) -> Inputs:
    size = DEFAULT_SIZES[workload] if size is None else size
    if workload == "parked_nmea":
        return parked_nmea(seed, size)
    return ride(seed, size, storm=workload == "alert_storm")
