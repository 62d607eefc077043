"""Release gate: one test and one printed verdict line per guaranteed property.

Every test here checks a contract the package advertises, against either an
independent in-test reference or a golden value, and enforces a wall-clock
budget so the gate stays cheap enough to run on every change.
"""

from __future__ import annotations

import math
import random
import string
import time
from pathlib import Path

from motoguard.cli import main
from motoguard.controller import ControllerState, Mode, step
from motoguard.core import (AlertKind, Auth, ControllerConfig, GasReading, GeoPoint, GpsFix,
                            Ignition, SensorEvent, SmsSend)
from motoguard.detectors import (CrashState, MagState, TheftState, crash_step, haversine_m,
                                 mag_step, overspeed_step, theft_step)
from motoguard.gsm import (ChannelClosed, ChannelTimeout, CommandTimeout, ErrorResponse,
                           FakeModem, InvalidNumber, ModemClient, ModemError,
                           PromptTimeout, SendRejected)
from motoguard.harness import (ConfusionMatrix, accuracy, error_rate, load_scenario,
                               log_to_jsonl, run)
from motoguard.nmea import ParseError, RmcData, parse_rmc
from oracles import (breath_fails, crash_trigger_times, leak_fails, mag_trigger_indices,
                     overspeed_trigger_indices)
from rmcgen import build_rmc

CFG = ControllerConfig()


def check(name: str, problems: list[str]) -> None:
    print(f"ACCEPTANCE {name}: {'FAIL' if problems else 'PASS'}")
    assert not problems, f"{name}: " + "; ".join(problems[:5])


def test_metric_formulas_are_exact() -> None:
    start = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(7)
    for _ in range(200):
        tp, tn, fp, fn = (rng.randint(0, 1000) for _ in range(4))
        total = tp + tn + fp + fn
        if total == 0:
            tp = 1
            total = 1
        cm = ConfusionMatrix(tp, tn, fp, fn)
        want_acc = (tp + tn) * 100 / total
        want_err = (fp + fn) * 100 / total
        if accuracy(cm) != want_acc or error_rate(cm) != want_err:
            problems.append(f"formula drift for {cm}")
        if accuracy(cm) + error_rate(cm) != 100.0:
            problems.append(f"accuracy+error != 100 for {cm}")
    if time.perf_counter() - start >= 1.0:
        problems.append("over the 1 s budget")
    check("metrics-exact", problems)


def test_hourly_beacon_count_matches_elapsed_hours(corpus_dir: Path) -> None:
    start = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(11)
    here = GpsFix(GeoPoint(14.5995, 120.9842), 0.0, True)
    for _ in range(50):
        span_ms = rng.randrange(0, 36_000_000)
        state, triggers = theft_step(TheftState(), here, False, False, 0, CFG)
        if triggers:
            problems.append("arming emitted a trigger")
        beacons = 0
        for t in range(60_000, span_ms + 1, 60_000):
            state, triggers = theft_step(state, here, False, False, t, CFG)
            beacons += sum(1 for trig in triggers if trig.kind is AlertKind.BEACON)
        want = span_ms // CFG.beacon_period_ms
        if beacons != want:
            problems.append(f"span {span_ms}ms gave {beacons} beacons, wanted {want}")
    # the replayed two-hour scenario must message the owner exactly twice
    log = run(load_scenario(corpus_dir / "theft_beacon_hourly.jsonl"))
    sends = [c.action for c in log.commands()
             if isinstance(c.action, SmsSend) and c.action.body.startswith("BEACON")]
    if len(sends) != 2 or any(s.to != CFG.owner_number for s in sends):
        problems.append(f"corpus beacon sends: {[(s.to, s.body) for s in sends]}")
    if time.perf_counter() - start >= 1.0:
        problems.append("over the 1 s budget")
    check("beacon-count", problems)


def test_corpus_replay_is_byte_identical(corpus_dir: Path) -> None:
    start = time.perf_counter()
    problems: list[str] = []
    paths = sorted(corpus_dir.glob("*.jsonl"))
    if len(paths) < 16:
        problems.append(f"corpus has only {len(paths)} scenarios")
    for path in paths:
        sc = load_scenario(path)
        if log_to_jsonl(run(sc)) != log_to_jsonl(run(sc)):
            problems.append(f"{path.name} replay diverged")
    if time.perf_counter() - start >= 10.0:
        problems.append("over the 10 s budget")
    check("replay-determinism", problems)


def test_nmea_corpus_and_fuzz() -> None:
    start = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(23)

    valid = []
    for i in range(60):
        valid.append(build_rmc(
            rng.uniform(-89.0, 89.0), rng.uniform(-179.0, 179.0),
            rng.uniform(0.0, 99.0), rng.uniform(0.0, 359.9),
            status=rng.choice("AV"), talker=rng.choice(("GP", "GN"))))
    mutated = []
    alphabet = string.hexdigits + "gz *?"
    while len(mutated) < 40:
        line = rng.choice(valid)
        pos = len(line) - rng.choice((1, 2))
        replacement = rng.choice(alphabet)
        if line[pos] == replacement:
            continue
        mutated.append(line[:pos] + replacement + line[pos + 1:])
    corpus = valid + mutated
    assert len(corpus) == 100

    for line in valid:
        try:
            parse_rmc(line)
        except ParseError as exc:
            problems.append(f"valid sentence rejected: {line!r} ({exc})")
    for line in mutated:
        try:
            parse_rmc(line)
            problems.append(f"mutated checksum accepted: {line!r}")
        except ParseError:
            pass

    # exhaustive single-character checksum sweep on a handful of sentences
    for line in valid[:10]:
        for pos in (len(line) - 2, len(line) - 1):
            for replacement in alphabet:
                if line[pos] == replacement:
                    continue
                bad = line[:pos] + replacement + line[pos + 1:]
                try:
                    parse_rmc(bad)
                    problems.append(f"mutation accepted: {bad!r}")
                except ParseError:
                    pass

    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 90)))
        try:
            result = parse_rmc(blob.decode("latin-1"))
            if not isinstance(result, RmcData):
                problems.append(f"fuzz returned {result!r}")
        except ParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other escape is the failure
            problems.append(f"fuzz crash {type(exc).__name__} on {blob!r}")
    if time.perf_counter() - start >= 5.0:
        problems.append("over the 5 s budget")
    check("nmea-conformance", problems)


def test_modem_golden_transcripts_and_failures() -> None:
    start = time.perf_counter()
    problems: list[str] = []

    modem = FakeModem()
    client = ModemClient(modem)
    client.modem_init()
    if modem.transcript != [b"AT\r", b"ATE0\r", b"AT+CMGF=1\r"]:
        problems.append(f"init transcript {modem.transcript!r}")
    ref = client.send_sms("+639171234567", "hello")
    if modem.transcript[-2:] != [b'AT+CMGS="+639171234567"\r', b"hello\x1a"] or ref != 1:
        problems.append(f"send transcript {modem.transcript[-2:]!r} ref={ref}")

    exercised: set[type] = set()

    def expect(exc_type: type, action) -> None:
        try:
            action()
        except ModemError as exc:
            exercised.add(type(exc))
            if not isinstance(exc, exc_type):
                problems.append(f"wanted {exc_type.__name__}, got {type(exc).__name__}")
            return
        problems.append(f"{exc_type.__name__} not raised")

    def script(**kwargs) -> ModemClient:
        return ModemClient(FakeModem(**kwargs))

    expect(CommandTimeout, lambda: script(silent_commands={"AT"}).modem_init())
    expect(ErrorResponse, lambda: script(fail_commands={"ATE0"}).modem_init())

    c = script(silent_commands={"AT+CMGS"})
    c.modem_init()
    expect(PromptTimeout, lambda: c.send_sms("+639171234567", "x"))
    c = script(fail_commands={"SEND"})
    c.modem_init()
    expect(SendRejected, lambda: c.send_sms("+639171234567", "x"))
    expect(InvalidNumber, lambda: client.send_sms("not-a-number", "x"))

    closed = FakeModem()
    closed.close()
    expect(ChannelClosed, lambda: ModemClient(closed).modem_init())
    expect(ChannelTimeout, lambda: FakeModem().read_until(b"OK", 100))

    wanted = {CommandTimeout, ErrorResponse, PromptTimeout, SendRejected,
              InvalidNumber, ChannelClosed, ChannelTimeout}
    if exercised != wanted:
        problems.append(f"variants missed: {[t.__name__ for t in wanted - exercised]}")
    if time.perf_counter() - start >= 1.0:
        problems.append("over the 1 s budget")
    check("modem-protocol", problems)


def test_detectors_agree_with_brute_force_oracles() -> None:
    start = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(31)
    short_hold = CFG._replace(crash_hold_ms=1500)

    for trial in range(1000):
        speeds = [rng.uniform(60.0, 100.0) for _ in range(40)]
        active, got = False, []
        for idx, speed in enumerate(speeds):
            active, trig = overspeed_step(active, speed, CFG)
            if trig is not None:
                got.append(idx)
        if got != overspeed_trigger_indices(speeds, CFG):
            problems.append(f"overspeed trial {trial}")
            break

    for trial in range(1000):
        values = [50.0 + rng.uniform(-10.0, 10.0) for _ in range(50)]
        state, got = MagState(), []
        for idx, b in enumerate(values):
            state, trig = mag_step(state, b, CFG)
            if trig is not None:
                got.append(idx)
        if got != mag_trigger_indices(values, CFG):
            problems.append(f"mag trial {trial}")
            break

    for trial in range(1000):
        t, samples = 0, []
        for _ in range(25):
            t += rng.choice((500, 1000, 2000))
            samples.append((t, rng.choice((0.0, 30.0, 61.0, 85.0)),
                            rng.choice((0.0, 3.0, 10.0))))
        state, got = CrashState(), []
        for t_ms, tilt, speed in samples:
            state, fired = crash_step(state, tilt, speed, t_ms, short_hold)
            if fired:
                got.append(t_ms)
        if got != crash_trigger_times(samples, short_hold):
            problems.append(f"crash trial {trial}")
            break

    # the pre-ride verdict reads the controller's running peak, so drive step
    # through a whole window: readings 300 ms apart, the last one closing it
    armed, _, _ = step(CFG, ControllerState(), 0,
                       [SensorEvent(0, Auth(True)), SensorEvent(0, Ignition(True))])
    for trial in range(1000):
        n = rng.randint(1, 6)
        ethanol = [rng.uniform(0.0, 300.0) for _ in range(n)]
        lpg = [rng.uniform(0.0, 2000.0) for _ in range(n)]
        state, kinds = armed, []
        for idx, (eth_ppm, lpg_ppm) in enumerate(zip(ethanol, lpg)):
            t_ms = CFG.preride_window_ms if idx == n - 1 else idx * 300
            state, alerts, _ = step(CFG, state, t_ms,
                                    [SensorEvent(t_ms, GasReading(eth_ppm, 0.0, lpg_ppm))])
            kinds += [a.kind for a in alerts]
        want = [kind for kind, fails in ((AlertKind.ALCOHOL_LOCKOUT, breath_fails(ethanol, CFG)),
                                         (AlertKind.GAS_LEAK, leak_fails(lpg, CFG))) if fails]
        if kinds != want or (state.mode is Mode.RIDING) != (not want):
            problems.append(f"pre-ride trial {trial}")
            break

    if time.perf_counter() - start >= 10.0:
        problems.append("over the 10 s budget")
    check("detector-oracles", problems)


def test_eval_cli_end_to_end(corpus_dir: Path, tmp_path: Path, capsys) -> None:
    problems: list[str] = []

    code = main(["eval", "--scenario-dir", str(corpus_dir)])
    out = capsys.readouterr().out
    if code != 0:
        problems.append(f"clean corpus exited {code}")
    if "Successful 100%" not in out:
        problems.append("clean corpus summary missing 'Successful 100%'")
    if "(no incidents)" not in out:
        problems.append("clean corpus logged incidents")

    work = tmp_path / "corpus"
    work.mkdir()
    for path in corpus_dir.glob("*.jsonl"):
        (work / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (work / "zz_ghost_crash.jsonl").write_text(
        '{"name": "zz_ghost_crash", "description": "expects a crash that never happens", '
        '"expected": [{"kind": "crash", "start_ms": 0, "end_ms": 5000}]}\n'
        '{"t_ms": 0, "sensor": "auth", "authorized": true}\n',
        encoding="utf-8")
    code = main(["eval", "--scenario-dir", str(work)])
    out = capsys.readouterr().out
    if code != 1:
        problems.append(f"failing corpus exited {code}")
    if "zz_ghost_crash" not in out or "Severity 1" not in out or "High" not in out:
        problems.append("incident row missing severity/priority for the failing case")
    with capsys.disabled():
        check("eval-end-to-end", problems)


REFERENCE_PAIRS = [
    ((0.0, 0.0), (0.001, 0.0)),
    ((0.0, 0.0), (0.0, 0.001)),
    ((14.5995, 120.9842), (14.5996, 120.9843)),
    ((45.0, 90.0), (45.0001, 90.0001)),
    ((-33.8568, 151.2153), (-33.8570, 151.2155)),
    ((51.5074, -0.1278), (51.5075, -0.1280)),
    ((35.6762, 139.6503), (35.6760, 139.6505)),
    ((64.1466, -21.9426), (64.1470, -21.9420)),
    ((-54.8019, -68.3030), (-54.8021, -68.3032)),
    ((89.9, 0.0), (89.9001, 10.0)),
    ((0.5, 179.9), (0.5001, 179.9001)),
    ((-0.5, -179.9), (-0.5002, -179.9002)),
    ((14.5995, 120.9842), (14.5995, 120.9842)),
    ((10.0, 10.0), (10.1, 10.1)),
    ((-45.0, 170.0), (-45.05, 170.05)),
    ((60.0, 25.0), (60.0002, 25.0002)),
    ((22.3193, 114.1694), (22.3200, 114.1700)),
    ((40.7128, -74.0060), (40.7130, -74.0070)),
    ((-1.2921, 36.8219), (-1.2930, 36.8230)),
    ((48.8566, 2.3522), (48.8570, 2.3530)),
]


def _vector_distance_m(a: GeoPoint, b: GeoPoint) -> float:
    """Chord-free reference: angle between position vectors via atan2."""
    def unit(p: GeoPoint) -> tuple[float, float, float]:
        lat, lon = math.radians(p.lat_deg), math.radians(p.lon_deg)
        return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                math.sin(lat))

    ax, ay, az = unit(a)
    bx, by, bz = unit(b)
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    cross = math.hypot(cx, math.hypot(cy, cz))
    dot = ax * bx + ay * by + az * bz
    return 6_371_000.0 * math.atan2(cross, dot)


def test_geofence_distance_against_reference() -> None:
    problems: list[str] = []
    assert len(REFERENCE_PAIRS) == 20
    for raw_a, raw_b in REFERENCE_PAIRS:
        a, b = GeoPoint(*raw_a), GeoPoint(*raw_b)
        got = haversine_m(a, b)
        want = _vector_distance_m(a, b)
        if want == 0.0:
            if got != 0.0:
                problems.append(f"{raw_a}->{raw_b}: nonzero {got}")
        elif abs(got - want) / want > 1e-4:
            problems.append(f"{raw_a}->{raw_b}: {got} vs {want}")
    check("geofence-math", problems)
