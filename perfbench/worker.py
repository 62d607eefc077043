"""The measured process of one benchmark run, started by run.py.

    python3 perfbench/worker.py MANIFEST --seconds S --trace 0|1

It imports motoguard from the checkout's src/, runs one warm-up pass, then
timed passes of one workload for S seconds, checks the output of every pass
and prints one JSON object on its last line of standard output. Between
passes it starts set-up probes (probe.py) in fresh interpreters. With
``--trace 1`` it first times untraced passes for a third of S, then traced
passes for the rest, and reports per-layer metrics and the tracing overhead.
The process runs one thread and one workload, so its peak RSS is the
workload's.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

MIN_PASSES = 3
SETUP_PROBES = 30

# Spans whose self time is reported as <span>.busy_s.
TIMED_SPANS = ("cli.main", "harness.run", "harness.loads_scenario", "core.event_from_record",
               "core.config", "gsm.modem_init", "controller.step", "controller.drain_sms",
               "gsm.send_sms", "harness.log_to_jsonl", "harness.match_alerts",
               "harness.evaluate_scenarios", "harness.render_report", "harness.report_json",
               "nmea.parse_rmc", "nmea.to_gps_fix")
# Spans whose number of calls per pass is reported as <span>.calls.
COUNTED_SPANS = ("core.event_from_record", "controller.step", "controller.drain_sms",
                 "gsm.send_sms", "gsm.modem_init", "nmea.parse_rmc")
# Counters kept by the traced replay and wrappers, reported per pass.
COUNTERS = ("controller.route.alerts", "controller.route.sms_enqueued",
            "controller.router.dropped", "controller.mode_changes", "gsm.send_sms.failed",
            "gsm.bytes_written", "harness.log_to_jsonl.bytes", "nmea.parse_rmc.rejected")

cli = core = harness = nmea = None     # motoguard modules, bound by load_program()


def load_program(root: Path) -> None:
    """Import motoguard from <root>/src, refusing any other copy."""
    global cli, core, harness, nmea
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from motoguard import cli as _cli, core as _core, harness as _harness, nmea as _nmea
    if not Path(_cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"motoguard imported from {_cli.__file__}, not {src}")
    cli, core, harness, nmea = _cli, _core, _harness, _nmea


def alert_kinds() -> list[str]:
    return [kind.value for kind in core.AlertKind]


# --- workload passes --------------------------------------------------------

class Outcome(NamedTuple):
    """What one replay pass produced."""

    code: int                       # exit code
    log: bytes                      # the event log as written
    alerts: list[tuple[str, int]]   # (kind, t_ms) of every alert in the log
    cm: object                      # harness.ConfusionMatrix of the scoring


class ReplayPass:
    """Base for the passes that replay one generated ride and score its log."""

    def __init__(self, work: Path, manifest: dict):
        self.scenario = work / manifest["files"][0]
        self.out = work / "out.log.jsonl"
        self.events = manifest["events"]
        self.expected_alerts = sorted(tuple(a) for a in manifest["alerts"])
        self.committed_sha = manifest.get("log_sha256")
        self.first_sha: str | None = None
        header = json.loads(self.scenario.read_text(encoding="utf-8").split("\n", 1)[0])
        labels = [harness.ExpectedLabel(core.AlertKind(lab["kind"]), lab.get("start_ms"),
                                        lab.get("end_ms"))
                  for lab in header["expected"]]
        self.positives = sum(1 for lab in labels if not lab.negative)
        self.negatives = len(labels) - self.positives
        self.labels = labels

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        sha = hashlib.sha256(outcome.log).hexdigest()
        if self.first_sha is None:
            self.first_sha = sha
        if sha != self.first_sha:
            problems.append(f"event log {sha[:12]} differs from the first pass {self.first_sha[:12]}")
        if self.committed_sha is not None and sha != self.committed_sha:
            problems.append(f"event log {sha[:12]} != committed {self.committed_sha[:12]}")
        cm = outcome.cm
        if (cm.fp, cm.fn, cm.tp, cm.tn) != (0, 0, self.positives, self.negatives):
            problems.append(f"scored {cm}, expected tp={self.positives} tn={self.negatives}")
        if sorted(outcome.alerts) != self.expected_alerts:
            problems.append(f"{len(outcome.alerts)} alerts differ from the "
                            f"{len(self.expected_alerts)} planted")
        return problems


class RidePass(ReplayPass):
    """``motoguard simulate --out`` on a generated ride, then score the written log."""

    def run(self) -> Outcome:
        code = cli.main(["simulate", "--scenario", str(self.scenario), "--out", str(self.out)])
        data = self.out.read_bytes()
        alerts = []
        for line in data.splitlines():
            if b'"type": "alert"' in line:
                obj = json.loads(line)
                alerts.append(core.Alert(obj["t_ms"], core.AlertKind(obj["kind"]),
                                         core.Severity[obj["severity"].upper()], obj["message"]))
        cm = harness.match_alerts(harness.EventLog(alerts), self.labels)
        return Outcome(code, data, [(a.kind.value, a.t_ms) for a in alerts], cm)


class NmeaPass(ReplayPass):
    """Decode 1 Hz RMC sentences into GPS events, replay, serialise and score."""

    def __init__(self, work: Path, manifest: dict):
        super().__init__(work, manifest)
        self.sentences = work / manifest["files"][1]

    def run(self) -> Outcome:
        sc = harness.loads_scenario(self.scenario.read_text(encoding="utf-8"))
        events = sc.events
        for i, line in enumerate(self.sentences.read_text(encoding="ascii").splitlines()):
            try:
                rmc = nmea.parse_rmc(line)
            except nmea.ParseError:
                continue
            events.append(core.SensorEvent(i * 1000, nmea.to_gps_fix(rmc)))
        log = harness.run(sc)
        data = harness.log_to_jsonl(log).encode("ascii")
        self.out.write_bytes(data)
        cm = harness.match_alerts(log, sc.expected)
        return Outcome(0, data, [(a.kind.value, a.t_ms) for a in log.alerts()], cm)


class CorpusPass:
    """``motoguard eval --report`` over the committed corpus, repeated."""

    def __init__(self, work: Path, manifest: dict, root: Path):
        self.directory = root / "scenarios"
        self.report = work / "corpus_report.txt"
        self.repeats = manifest["repeats"]
        self.cases = manifest["cases"]
        self.events = manifest["events"] * self.repeats
        self.first_text: str | None = None

    def run(self) -> list[tuple[int, str]]:
        outputs = []
        for _ in range(self.repeats):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["eval", "--scenario-dir", str(self.directory),
                                 "--report", str(self.report)])
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, outputs: list[tuple[int, str]]) -> list[str]:
        problems = []
        codes = sorted({code for code, _ in outputs})
        if codes != [0]:
            problems.append(f"eval exit codes {codes}")
        if self.first_text is None:
            self.first_text = outputs[0][1]
        if any(text != self.first_text for _, text in outputs):
            problems.append("eval report text differs between repeats")
        summary = json.loads(self.report.with_suffix(".json").read_text(encoding="utf-8"))["summary"]
        if (summary["total"], summary["passed"]) != (self.cases, self.cases):
            problems.append(f"eval passed {summary['passed']} of {summary['total']}, "
                            f"expected {self.cases} of {self.cases}")
        return problems


def make_pass(workload: str, work: Path, manifest: dict, root: Path):
    if workload == "corpus_eval":
        return CorpusPass(work, manifest, root)
    if workload == "parked_nmea":
        return NmeaPass(work, manifest)
    return RidePass(work, manifest)


# --- timing loop -------------------------------------------------------------

class Runs:
    """Attempted and failed passes, with the duration of each good pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: list[float] = []

    def one(self, run, check) -> bool:
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            outcome = run()
            elapsed = time.perf_counter() - t0
            problems = check(outcome)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems)
            return False
        self.times.append(elapsed)
        return True

    def for_seconds(self, run, check, seconds: float, before=None, after=None) -> None:
        end = time.monotonic() + seconds
        done = 0
        while done < MIN_PASSES or time.monotonic() < end:
            if before is not None:
                before()
            ok = self.one(run, check)
            if after is not None:
                after(ok)
            done += 1


# Host-speed reference: the same kinds of work as a pass (JSON decode and
# encode, frozen dataclasses with validation, dataclasses.replace), on fixed
# data, in the standard library only, so no change to the program moves it.
REFERENCE_S = 0.025     # its time on a quiet 2-vCPU Xeon VM with CPython 3.11.7


@dataclasses.dataclass(frozen=True)
class _Sample:
    t_ms: int
    value: float

    def __post_init__(self):
        if not isinstance(self.t_ms, int) or self.t_ms < 0:
            raise ValueError(self.t_ms)


_REFERENCE_LINES = [json.dumps({"t_ms": i, "sensor": "lidar", "range_m": i * 0.37 % 40})
                    for i in range(3000)]


def reference_s() -> float:
    """Time one run of the host-speed reference loop."""
    t0 = time.perf_counter()
    sample = _Sample(0, 0.0)
    out = []
    for line in _REFERENCE_LINES:
        rec = json.loads(line)
        sample = dataclasses.replace(sample, t_ms=rec["t_ms"], value=rec["range_m"])
        out.append(json.dumps({"t": sample.t_ms, "v": f"{sample.value:.2f}"}))
    "\n".join(out)         # the join is part of the work, as in log_to_jsonl
    return time.perf_counter() - t0


class SetupProbe:
    """Times fresh interpreters from their start to ``motoguard.cli`` imported.

    ``probe.py`` prints the system-wide monotonic clock once the import is
    done; the sample is that minus the clock read just before the start.
    """

    def __init__(self, root: Path):
        self.root = root
        self.src = (root / "src").resolve()
        self.samples: list[float] = []
        self.scaled: list[float] = []

    def probe(self, runs: Runs, scale_ref: float) -> None:
        """One sample, also kept scaled by the latest reference-loop time."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py"))],
                                  cwd=self.root, capture_output=True, text=True, timeout=10)
        except subprocess.TimeoutExpired:
            runs.problems.append("set-up probe did not finish within 10 s")
            return
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2:
            runs.problems.append(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        elif not Path(lines[1]).resolve().is_relative_to(self.src):
            runs.problems.append(f"set-up probe imported {lines[1]}, not {self.src}")
        else:
            self.samples.append(float(lines[0]) - t0)
            self.scaled.append(self.samples[-1] * REFERENCE_S / scale_ref)


def untraced(p, seconds: float, runs: Runs, root: Path) -> tuple[dict, dict]:
    """Time passes for ``seconds``, with the reference loop run between passes.

    Set-up probes start between passes, never beside one, spread over the
    whole run so that their median covers the same host conditions as the
    passes. Returns the metrics and the raw figures behind them.
    """
    setup = SetupProbe(root)
    interval = seconds / SETUP_PROBES
    due = time.monotonic()
    refs: list[float] = []      # before each timed pass, and once after the last
    oks: list[bool] = []

    def before() -> None:
        refs.append(reference_s())

    def after(ok: bool) -> None:
        nonlocal due
        oks.append(ok)
        if time.monotonic() >= due and len(setup.samples) < SETUP_PROBES:
            setup.probe(runs, refs[-1])
            due += interval

    runs.one(p.run, p.check)            # warm-up: checked, not timed
    runs.times.clear()
    runs.for_seconds(p.run, p.check, seconds, before, after)
    refs.append(reference_s())
    while len(setup.samples) < SETUP_PROBES and not runs.problems:
        setup.probe(runs, refs[-1])
    if not runs.times or not setup.scaled:
        return {}, {}
    # The host slows every pass by up to half again, in stretches that can
    # outlast a run; the reference loop slows with it, so each pass's rate
    # is scaled by the mean of the reference times just before and just
    # after it, and each set-up sample by the latest reference time.
    around = [(refs[k] + refs[k + 1]) / 2 for k, ok in enumerate(oks) if ok]
    rates = [p.events / t * (ref / REFERENCE_S) for t, ref in zip(runs.times, around)]
    raw = {"events_per_s_unscaled": statistics.median(p.events / t for t in runs.times),
           "setup_s_unscaled": statistics.median(setup.samples),
           "reference_s": refs, "setup_samples_s": setup.samples}
    return {"events_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup.scaled)}, raw


def traced(p, workload: str, seconds: float, runs: Runs, manifest: dict,
           spans_path: Path) -> dict:
    import tracing      # imports motoguard, so only after load_program()

    runs.one(p.run, p.check)
    runs.times.clear()
    runs.for_seconds(p.run, p.check, seconds / 3)
    untraced_times, runs.times = runs.times, []

    tracer = tracing.Tracer()
    if workload == "corpus_eval":
        check_corpus_replay(tracing, p.directory, runs)
    # Each pass is summarised as soon as it ends and its spans are dropped
    # at the start of the next, so memory stays bounded and the spans
    # written out are those of the last pass.
    summaries: list[tuple[Counter, Counter, Counter]] = []
    step_us: list[float] = []

    def after(ok: bool):
        if ok:
            summaries.append(tracer.summarize() + (Counter(tracer.counts),))
            step_us.extend(d / 1000 for d in tracer.durations_ns("controller.step"))

    with tracer.installed():
        runs.for_seconds(tracer.wrap("bench.pass", p.run), p.check,
                         seconds - seconds / 3, tracer.clear, after)
    tracer.write(spans_path)
    if not summaries or not untraced_times:
        return {}
    metrics = layer_metrics(summaries, step_us)
    untraced_s = statistics.median(untraced_times)
    traced_s = statistics.median(runs.times)
    metrics["trace.pass_untraced_s"] = untraced_s
    metrics["trace.pass_traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if any(s[0] != summaries[0][0] or s[2] != summaries[0][2] for s in summaries):
        runs.problems.append("traced passes counted different calls or events")
    replays = summaries[0][0]["harness.run"]
    runs.problems += design_problems(workload, metrics, replays, manifest)
    return metrics


def check_corpus_replay(tracing, directory: Path, runs: Runs) -> None:
    """The traced replay must log byte-for-byte what harness.run logs."""
    replay = tracing.Tracer().replay()
    for path in sorted(directory.glob("*.jsonl")):
        sc = harness.load_scenario(path)
        if harness.log_to_jsonl(replay(sc)) != harness.log_to_jsonl(harness.run(sc)):
            runs.problems.append(f"traced replay log differs from harness.run on {path.name}")


def layer_metrics(summaries, step_us: list[float]) -> dict:
    """Per-pass metrics: self times are medians over passes, counts are exact."""
    calls0, _, counts0 = summaries[0]
    metrics: dict = {}
    for span in TIMED_SPANS + ("bench.pass",):
        metrics[f"{span}.busy_s"] = statistics.median(s[span] / 1e9 for _, s, _ in summaries)
    for span in COUNTED_SPANS:
        metrics[f"{span}.calls"] = calls0[span]
    if len(step_us) >= 2:
        metrics["controller.step.p50_us"] = statistics.median(step_us)
        metrics["controller.step.p99_us"] = statistics.quantiles(step_us, n=100)[98]
    else:
        metrics["controller.step.p50_us"] = metrics["controller.step.p99_us"] = 0.0
    drains = calls0["controller.drain_sms"]
    metrics["controller.drain_sms.useful_ratio"] = (
        counts0["controller.drain_sms.useful"] / drains if drains else 0.0)
    for name in COUNTERS:
        metrics[name] = counts0[name]
    for kind in alert_kinds():
        metrics[f"detectors.alerts.{kind}"] = counts0[f"detectors.alerts.{kind}"]
    return metrics


def design_problems(workload: str, metrics: dict, replays: int, manifest: dict) -> list[str]:
    """Each workload must load the layer it was built for, as the counts show."""
    problems = []

    def require(ok: bool, text: str) -> None:
        if not ok:
            problems.append(f"{workload}: {text}")

    ratio = metrics["controller.drain_sms.useful_ratio"]
    if workload == "ride_dense":
        require(ratio < 0.01, f"useful drain ratio {ratio:.4f} is not near 0")
    if workload == "alert_storm":
        require(ratio > 0.9, f"useful drain ratio {ratio:.4f} is not near 1")
        require(metrics["gsm.send_sms.calls"] >= metrics["controller.step.calls"] // 2,
                "fewer SMS sends than half the steps")
    parsed = metrics["nmea.parse_rmc.calls"]
    if workload == "parked_nmea":
        planted = manifest["planted"]
        require(parsed == planted["sentences"], f"parse_rmc ran {parsed} times, "
                f"not once per sentence ({planted['sentences']})")
        require(metrics["nmea.parse_rmc.rejected"] == planted["bad_checksum"],
                f"{metrics['nmea.parse_rmc.rejected']} sentences rejected, "
                f"{planted['bad_checksum']} planted")
        require(metrics["detectors.alerts.beacon"] == planted["beacon_hours"],
                f"{metrics['detectors.alerts.beacon']} beacons for "
                f"{planted['beacon_hours']} whole hours armed")
        require(metrics["detectors.alerts.theft"] == 1, "not exactly one geofence breach")
    else:
        require(parsed == 0, f"parse_rmc ran {parsed} times")
    if workload == "corpus_eval":
        cases = replays / manifest["repeats"]
        require(cases == manifest["cases"], f"{cases} cases replayed per eval, "
                f"expected {manifest['cases']}")
    else:
        expected = Counter(kind for kind, _ in manifest["alerts"])
        for kind in alert_kinds():
            got = metrics[f"detectors.alerts.{kind}"]
            require(got == expected[kind], f"{got} {kind} alerts, {expected[kind]} planted")
        require(metrics["controller.mode_changes"] == manifest["mode_changes"],
                f"{metrics['controller.mode_changes']} mode changes, "
                f"expected {manifest['mode_changes']}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    root = Path.cwd()
    work = args.manifest.parent
    load_program(root)
    workload = manifest["workload"]
    p = make_pass(workload, work, manifest, root)
    runs = Runs()
    raw: dict = {}
    if args.trace:
        metrics = traced(p, workload, args.seconds, runs, manifest, work / "spans.tsv")
    else:
        metrics, raw = untraced(p, args.seconds, runs, root)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw["pass_s"] = runs.times
    print(json.dumps({"attempted": runs.attempted, "failed": runs.failed,
                      "problems": runs.problems, "metrics": metrics, "raw": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
