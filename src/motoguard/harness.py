"""Deterministic scenario replay and confusion-matrix evaluation.

Scenario files are line-delimited JSON: a header record (name, config
overrides, expected labels) followed by time-ordered sensor events. Most
chunks of event lines are decoded by one JSON scanner call and one
core.decode_records call; any other chunk goes through the line walk, the
one source of schema errors. Replays run entirely on the virtual clock
against a compliant fake modem, so the serialized event log for a given
scenario is byte-identical on every run.
"""

from __future__ import annotations

import json
import re
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .controller import ControllerState, Mode, ModeChange, advance, drain_sms
from .core import (Alert, ActuatorCommand, AlertKind, Buzzer, ContractViolation,
                   ControllerConfig, DEFAULT_CONFIG, IgnitionInhibit, MutableRecord, Record,
                   SensorEvent, Severity, SmsSend, SolenoidLock, ValidationError, VirtualClock,
                   apply_overrides, decode_records, event_from_record, event_to_record,
                   factory, require_valid_config, severity_of, validate_config)
from .gsm import FakeModem, ModemClient


class SchemaError(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class UndefinedMetric(ArithmeticError):
    pass


class ExpectedLabel(Record):
    """A positive label is a kind plus a time window; a negative label
    declares that no alert of the kind may appear anywhere in the run."""

    kind: AlertKind
    start_ms: int | None = None
    end_ms: int | None = None

    @property
    def negative(self) -> bool:
        return self.start_ms is None

    def __post_init__(self):
        if type(self.kind) is not AlertKind:
            raise ContractViolation(f"kind must be an AlertKind: {self.kind!r}")
        if self.start_ms is not None or self.end_ms is not None:
            # type() rather than isinstance(): JSON true/false must not pass as 1/0
            if type(self.start_ms) is not int or type(self.end_ms) is not int:
                raise ContractViolation(_WINDOW_TEXT)
            if self.start_ms < 0 or self.end_ms < self.start_ms:
                raise ContractViolation(f"bad window [{self.start_ms}, {self.end_ms}]")


class Scenario(MutableRecord):
    name: str
    description: str = ""
    config: dict = factory(dict)
    events: list[SensorEvent] = factory(list)
    expected: list[ExpectedLabel] = factory(list)


LogRecord = Alert | ActuatorCommand | ModeChange


class EventLog(MutableRecord):
    records: list[LogRecord] = factory(list)

    def alerts(self) -> list[Alert]:
        return [r for r in self.records if isinstance(r, Alert)]

    def commands(self) -> list[ActuatorCommand]:
        return [r for r in self.records if isinstance(r, ActuatorCommand)]


# --- scenario files --------------------------------------------------------

_HEADER_KEYS = {"name", "description", "config", "expected"}
_KIND_OF_VALUE = {kind.value: kind for kind in AlertKind}
_WINDOW_TEXT = "label window needs integer start_ms and end_ms"


def _label_from_obj(obj: dict, line_no: int) -> ExpectedLabel:
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "expected label must be an object")
    extra = dict(obj)
    kind_text = extra.pop("kind", None)
    # the str check keeps an unhashable kind (a JSON list or object) out of the lookup
    kind = _KIND_OF_VALUE.get(kind_text) if isinstance(kind_text, str) else None
    if kind is None:
        raise SchemaError(line_no, f"unknown alert kind {kind_text!r}")
    negative = extra.pop("negative", False)
    if type(negative) is not bool:  # a string, number or null must not pass for a flag
        raise SchemaError(line_no, "label negative must be true or false")
    if negative:
        if extra:
            raise SchemaError(line_no, f"negative label has extra fields: {sorted(extra)}")
        return ExpectedLabel(kind)
    start = extra.pop("start_ms", None)
    end = extra.pop("end_ms", None)
    if extra:
        raise SchemaError(line_no, f"label has extra fields: {sorted(extra)}")
    if start is None and end is None:  # a label that is not negative has a window
        raise SchemaError(line_no, _WINDOW_TEXT)
    try:  # ExpectedLabel alone checks the window
        return ExpectedLabel(kind, start, end)
    except ContractViolation as exc:
        raise SchemaError(line_no, str(exc)) from None


def _scenario_from_header(header: object, line_no: int) -> Scenario:
    """The Scenario a header record declares, with no events yet."""
    if not isinstance(header, dict):
        raise SchemaError(line_no, "header must be an object")
    unknown = sorted(set(header) - _HEADER_KEYS)
    if unknown:
        raise SchemaError(line_no, f"unknown header fields: {', '.join(unknown)}")
    name = header.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(line_no, "header needs a non-empty name")
    description = header.get("description", "")
    if not isinstance(description, str):
        raise SchemaError(line_no, "description must be a string")
    config = header.get("config", {})
    if not isinstance(config, dict):
        raise SchemaError(line_no, "config must be an object")
    labels = header.get("expected", [])
    if not isinstance(labels, list):
        raise SchemaError(line_no, "expected must be a list")
    expected = [_label_from_obj(obj, line_no) for obj in labels]
    kinds_pos = {lab.kind for lab in expected if not lab.negative}
    kinds_neg = {lab.kind for lab in expected if lab.negative}
    clash = kinds_pos & kinds_neg
    if clash:
        raise SchemaError(line_no,
                          f"kind both expected and declared negative: {sorted(k.value for k in clash)}")
    return Scenario(name=name, description=description, config=config, expected=expected)


_scan = json.JSONDecoder().scan_once
_BLANK_LINE = object()  # what _line_value gives for a blank line


def _line_value(raw: str, line_no: int) -> object:
    """The JSON value of one line, _BLANK_LINE for a blank one, or a SchemaError
    on line_no naming json.loads's failure."""
    # one scanner call reads a value that starts the line, with only blanks
    # after it, as json.loads does; any other line is blank or goes to json.loads
    try:
        value, end = _scan(raw, 0)
    except (StopIteration, ValueError, RecursionError):
        value, end = _BLANK_LINE, 0
    if not raw[end:].strip(BLANK):
        return value
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except (ValueError, RecursionError) as exc:  # int digit limit, deep nesting
        reason = str(exc)
    raise SchemaError(line_no, f"invalid JSON: {reason}")


# long enough that a chunk's split costs no more per line than a whole-file
# split, short enough that its lines are a small share of a long ride's text
_CHUNK_CHARS = 1 << 16
# what a blank line may hold: JSON's whitespace, less the LF that ends a line
BLANK = " \t\r"
_HEADER_LINE = re.compile(r"^[ \t\r]*[^ \t\r\n].*", re.M)  # the first line not blank


def _text_chunks(text: str, start: int, stop: int):
    """text[start:stop] one piece at a time, each about _CHUNK_CHARS characters
    ending before the next LF, which no piece holds at either end."""
    while (cut := text.find("\n", start + _CHUNK_CHARS, stop)) >= 0:
        yield text[start:cut]
        start = cut + 1
    yield text[start:stop]


def line_chunks(text: str):
    """text.split("\\n") one chunk at a time: lists of lines, in order, each cut
    from about _CHUNK_CHARS characters ending at the next LF, so a reader holds
    one chunk's lines, never the whole file's. A text shorter than one chunk is
    one list. Only LF ends a line: splitlines() would also break at U+2028,
    U+0085 and the like, which JSON allows raw inside a string."""
    for piece in _text_chunks(text, 0, len(text)):
        yield piece.split("\n")


def _scanned_events(piece: str, lines: int, prev_ms: int) -> list[SensorEvent] | None:
    """The events of piece's lines by one scanner call and one decode_records
    call, or None when that cannot be proved to give what the line walk gives.

    The call reads "[" + piece + "]" with each LF made a comma. Its result is
    taken when every line is "{...}" with no other "{", the call reads the
    text to its end, the list has one element per line, and decode_records
    takes them all. An event is an object, which opens with a "{" outside
    any string, so element k opens at the k-th "{", the one that starts line
    k. Only a comma lies between one element's end and the next one's start,
    and only "]" after the last, so element k closes at the "}" that ends
    line k: its text is exactly line k's, which the walk reads alone."""
    if not (piece[:1] == "{" and piece[-1:] == "}" and piece.count("}\n{") == lines - 1
            and piece.count("{") == lines):
        return None
    try:
        records, end = _scan("[" + piece.replace("\n", ",") + "]", 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if end == len(piece) + 2 and len(records) == lines:
        return decode_records(records, prev_ms)
    return None


def _walk(lines: list[str], line_no: int, events: list[SensorEvent], prev_ms: int) -> int:
    """Decode lines one at a time onto events, the first line being line_no + 1;
    the time of the last event. The walk alone names a bad line."""
    for line_no, raw in enumerate(lines, start=line_no + 1):
        if (obj := _line_value(raw, line_no)) is _BLANK_LINE:
            continue
        try:
            event = event_from_record(obj)
        except ContractViolation as exc:
            raise SchemaError(line_no, str(exc)) from None
        if event.t_ms < prev_ms:
            raise SchemaError(line_no, f"t_ms {event.t_ms} is earlier than "
                                       f"the event before it ({prev_ms})")
        prev_ms = event.t_ms
        events.append(event)
    return prev_ms


def loads_scenario(text: str) -> Scenario:
    """Parse a scenario file; the first bad line in file order is the one reported.

    The header is the first line that is not blank. The event lines after it
    are read about _CHUNK_CHARS characters at a time: a chunk whose lines are
    all plain event records is decoded by one scanner call and one
    decode_records call (_scanned_events), and any other chunk, or one that
    fails, by the line walk (_walk)."""
    if (header := _HEADER_LINE.search(text)) is None:
        raise SchemaError(1, "missing header record")
    line_no = text.count("\n", 0, header.start()) + 1
    sc = _scenario_from_header(_line_value(header[0], line_no), line_no)
    events, prev_ms = sc.events, 0
    # a final LF ends the last line and starts an empty one, which holds no
    # event; a header with no LF after it leaves one empty piece past the end
    for piece in _text_chunks(text, header.end() + 1, len(text) - text.endswith("\n")):
        lines = piece.count("\n") + 1
        scanned = _scanned_events(piece, lines, prev_ms)
        if scanned is None:
            prev_ms = _walk(piece.split("\n"), line_no, events, prev_ms)
        else:
            events += scanned
            prev_ms = scanned[-1].t_ms
        line_no += lines
    return sc


def load_scenario(path: str | Path) -> Scenario:
    return loads_scenario(Path(path).read_text(encoding="utf-8"))


def dumps_scenario(sc: Scenario) -> str:
    header: dict = {"name": sc.name}
    if sc.description:
        header["description"] = sc.description
    if sc.config:
        header["config"] = sc.config
    if sc.expected:
        header["expected"] = [
            {"kind": lab.kind.value, "negative": True} if lab.negative
            else {"kind": lab.kind.value, "start_ms": lab.start_ms, "end_ms": lab.end_ms}
            for lab in sc.expected
        ]
    out = [json.dumps(header)]
    out.extend(json.dumps(event_to_record(ev)) for ev in sc.events)
    return "\n".join(out) + "\n"


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(dumps_scenario(sc), encoding="utf-8")


# --- replay ---------------------------------------------------------------

def run(sc: Scenario, cfg: ControllerConfig = DEFAULT_CONFIG) -> EventLog:
    """Replay a scenario against a fresh controller and compliant fake modem."""
    try:
        merged = apply_overrides(cfg, sc.config)
        # identity, not ==: an equal config can hold a value of the wrong type
        if merged is not DEFAULT_CONFIG:  # which core proved valid at import
            require_valid_config(merged)
    except ValidationError as exc:
        # a breach the header brings is the scenario's fault: one of a key it
        # sets, or one that cfg alone does not have; any other is cfg's
        own = validate_config(cfg)
        raise ValidationError([(f"{sc.name}: {name}" if name in sc.config or (name, why) not in own
                                else name, why) for name, why in exc.violations]) from exc
    clock = VirtualClock()
    modem = FakeModem(clock)
    # no power-on init: the first drain that has a message brings the modem up
    client = ModemClient(modem)
    state = ControllerState()
    log = EventLog([ModeChange(0, Mode.PARKED)])
    records = log.records
    for t_ms, group in groupby(sc.events, key=attrgetter("t_ms")):
        try:
            advance(merged, state, t_ms, list(group))
        except ContractViolation as exc:
            raise ContractViolation(f"{sc.name}: at t={t_ms}: {exc}") from exc
        records += state.alerts
        records += state.commands
        records += state.changes
        if state.router.pending_sms:
            # only the modem and its client read the clock, and t_ms never
            # decreases, so bringing it up only before a drain reads the same
            clock.advance_to(t_ms)
            state.router, _, _ = drain_sms(state.router, client)
    return log


# --- log serialization -----------------------------------------------------

_ACTION_TAGS = {Buzzer: "buzzer", IgnitionInhibit: "ignition_inhibit",
                SolenoidLock: "solenoid_lock", SmsSend: "sms_send"}

# Each line shape is one template: the json.dumps output of its keys in
# order, with strings through the encoder json.dumps itself uses and every
# enum value and action tag rendered once here by json.dumps. The record
# constructors take only fields of exactly their declared types, so every
# record fits its shape's template.
_encode_str = json.encoder.encode_basestring_ascii
_JSON_BOOL = (json.dumps(False), json.dumps(True))
_KIND_JSON = {kind: json.dumps(kind.value) for kind in AlertKind}
_SEVERITY_JSON = {sev: json.dumps(sev.label) for sev in Severity}
_MODE_JSON = {mode: json.dumps(mode.value) for mode in Mode}
_SMS_ACTION_JSON = json.dumps(_ACTION_TAGS[SmsSend])


def _flag_shape(cls: type) -> tuple[str, str]:
    """A one-flag action class's flag name, and its line text from the action
    tag up to the flag's value."""
    (flag,) = cls.__match_args__
    return flag, f"{json.dumps(_ACTION_TAGS[cls])}, {json.dumps(flag)}: "


_FLAG_ACTIONS = {cls: _flag_shape(cls) for cls in (Buzzer, IgnitionInhibit, SolenoidLock)}


def log_to_jsonl(log: EventLog) -> str:
    """Canonical one-record-per-line rendering; byte-stable across runs."""
    lines: list[str] = []
    append = lines.append
    for rec in log.records:
        cls = type(rec)
        if cls is Alert:
            append(f'{{"t_ms": {rec.t_ms}, "type": "alert", "kind": {_KIND_JSON[rec.kind]}, '
                   f'"severity": {_SEVERITY_JSON[rec.severity]}, '
                   f'"message": {_encode_str(rec.message)}}}')
        elif cls is ActuatorCommand:
            action = rec.action
            shape = _FLAG_ACTIONS.get(type(action))
            if shape is None:  # the one action that is not a flag
                append(f'{{"t_ms": {rec.t_ms}, "type": "command", "action": '
                       f'{_SMS_ACTION_JSON}, "to": {_encode_str(action.to)}, '
                       f'"body": {_encode_str(action.body)}}}')
            else:
                append(f'{{"t_ms": {rec.t_ms}, "type": "command", "action": '
                       f'{shape[1]}{_JSON_BOOL[getattr(action, shape[0])]}}}')
        elif cls is ModeChange:
            append(f'{{"t_ms": {rec.t_ms}, "type": "mode", "mode": {_MODE_JSON[rec.mode]}}}')
        else:
            raise ContractViolation(f"not a log record: {rec!r}")
    return "\n".join(lines) + "\n"


# --- expected-label matching and metrics ----------------------------------

class ConfusionMatrix(Record):
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _match(log: EventLog, expected: list[ExpectedLabel]
           ) -> tuple[ConfusionMatrix, list[Alert], list[ExpectedLabel]]:
    """Greedy windowed matching: each alert satisfies at most one label.

    Alerts come in time order, as every replay writes them; an alert earlier
    than the one before it is a ContractViolation. A positive window is a
    true positive when some alert of its kind lands inside it, matched
    earliest-window first. Alerts left over are false positives and windows
    left over false negatives; both are returned in input order. Negative
    labels count as true negatives unless violated.
    """
    alerts = log.alerts()
    for before, after in zip(alerts, alerts[1:]):
        if after.t_ms < before.t_ms:
            raise ContractViolation(
                f"alerts out of time order: {after.t_ms} ms after {before.t_ms} ms")
    positives = [lab for lab in expected if not lab.negative]
    strays: list[Alert] = []
    matched: set[int] = set()
    # per kind, the windows still unmatched as (start, end, index), sorted
    # latest first so that the scan takes them off the end of the list
    unmatched: dict[AlertKind, list[tuple[int, int, int]]] = {}
    for idx, lab in enumerate(positives):
        unmatched.setdefault(lab.kind, []).append((lab.start_ms, lab.end_ms, idx))
    for windows in unmatched.values():
        windows.sort(reverse=True)
    for alert in alerts:
        t_ms = alert.t_ms
        windows = unmatched.get(alert.kind, [])
        # a window that closed before t_ms is closed to every later alert too
        while windows and windows[-1][1] < t_ms:
            windows.pop()
        # later windows open no earlier than the front one
        if windows and windows[-1][0] <= t_ms:
            matched.add(windows.pop()[2])
        else:
            strays.append(alert)
    missed = [lab for idx, lab in enumerate(positives) if idx not in matched]
    seen_kinds = {a.kind for a in alerts}
    tn = sum(1 for lab in expected if lab.negative and lab.kind not in seen_kinds)
    cm = ConfusionMatrix(tp=len(matched), tn=tn, fp=len(strays), fn=len(missed))
    return cm, strays, missed


def match_alerts(log: EventLog, expected: list[ExpectedLabel]) -> ConfusionMatrix:
    """Score a log against its labels with the greedy windowed matcher."""
    return _match(log, expected)[0]


def accuracy(cm: ConfusionMatrix) -> float:
    """(TP + TN) / (TP + TN + FN + FP) x 100; raw value, no rounding."""
    if cm.total == 0:
        raise UndefinedMetric("no labeled outcomes")
    return (cm.tp + cm.tn) * 100 / cm.total


def error_rate(cm: ConfusionMatrix) -> float:
    """(FP + FN) / (TP + TN + FN + FP) x 100; raw value, no rounding."""
    if cm.total == 0:
        raise UndefinedMetric("no labeled outcomes")
    return (cm.fp + cm.fn) * 100 / cm.total


# --- corpus evaluation and reporting ---------------------------------------

class CaseResult(MutableRecord):
    case_id: str
    name: str
    objective: str
    event_count: int
    expected_summary: str
    cm: ConfusionMatrix
    passed: bool
    incidents: list[str]
    worst_severity: Severity | None


def _label_text(lab: ExpectedLabel) -> str:
    if lab.negative:
        return f"no {lab.kind.value}"
    return f"{lab.kind.value}[{lab.start_ms}..{lab.end_ms}]"


def evaluate_scenarios(scenarios: list[Scenario],
                       cfg: ControllerConfig = DEFAULT_CONFIG) -> list[CaseResult]:
    """Run and score scenarios in deterministic (name) order."""
    results: list[CaseResult] = []
    ordered = sorted(scenarios, key=lambda sc: sc.name)
    for pos, sc in enumerate(ordered, start=1):
        cm, strays, missed = _match(run(sc, cfg), sc.expected)
        incidents = ([f"unexpected {a.kind.value} alert at t={a.t_ms}ms" for a in strays]
                     + [f"missed {lab.kind.value} alert in [{lab.start_ms}..{lab.end_ms}]ms"
                        for lab in missed])
        kinds = [a.kind for a in strays] + [lab.kind for lab in missed]
        results.append(CaseResult(
            case_id=f"TC-{pos:02d}",
            name=sc.name,
            objective=sc.description or sc.name,
            event_count=len(sc.events),
            expected_summary="; ".join(_label_text(lab) for lab in sc.expected) or "none",
            cm=cm,
            passed=cm.fp == 0 and cm.fn == 0,
            incidents=incidents,
            worst_severity=max(map(severity_of, kinds), default=None),
        ))
    return results


def _pct(part: int, whole: int) -> str:
    if whole == 0:
        return "0%"
    value = part * 100 / whole
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{text}%"


_INCIDENT_SEVERITY = {Severity.HIGH: ("Severity 1", "High"),
                      Severity.MEDIUM: ("Severity 2", "Medium"),
                      Severity.LOW: ("Severity 3", "Low")}


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows]


def _summary(results: list[CaseResult]) -> tuple[int, int, ConfusionMatrix]:
    """Cases run, cases passed, and the confusion matrix summed over cases."""
    passed = sum(1 for r in results if r.passed)
    agg = ConfusionMatrix(tp=sum(r.cm.tp for r in results), tn=sum(r.cm.tn for r in results),
                          fp=sum(r.cm.fp for r in results), fn=sum(r.cm.fn for r in results))
    return len(results), passed, agg


def render_report(results: list[CaseResult]) -> str:
    """Plain-text report: per-case table, execution summary, incident log."""
    lines: list[str] = ["TEST CASE RESULTS"]
    if not results:
        lines.append("(no cases)")
    else:
        rows = [["ID", "NAME", "OBJECTIVE", "ACTIONS", "EXPECTED", "STATUS"]]
        for r in results:
            rows.append([r.case_id, r.name, r.objective, f"{r.event_count} events",
                         r.expected_summary, "Passed" if r.passed else "Failed"])
        lines.extend(_table(rows))

    total, passed, agg = _summary(results)
    failed = total - passed
    lines += ["", "TEST EXECUTION SUMMARY",
              f"No of TC Executed {_pct(total, total)} ({total} of {total})",
              f"Successful {_pct(passed, total)} ({passed} of {total})",
              f"Failed {_pct(failed, total)} ({failed} of {total})",
              f"No of TC Not Executed 0% (0 of {total})"]

    lines += ["", "DETECTION METRICS",
              f"tp={agg.tp} tn={agg.tn} fp={agg.fp} fn={agg.fn}"]
    if agg.total == 0:
        lines.append("Accuracy undefined (no labeled outcomes)")
    else:
        lines.append(f"Accuracy {accuracy(agg):.2f}%")
        lines.append(f"Error {error_rate(agg):.2f}%")

    lines += ["", "TEST INCIDENT LOG"]
    failures = [r for r in results if not r.passed]
    incident_rows = [["No.", "Description", "Test Case Reference", "Severity", "Priority"]]
    for number, r in enumerate(failures, start=1):
        sev_text, priority = _INCIDENT_SEVERITY[r.worst_severity or Severity.MEDIUM]
        incident_rows.append([str(number), "; ".join(r.incidents),
                              f"{r.case_id} {r.name}", sev_text, priority])
    lines.extend(_table(incident_rows) if failures else ["(no incidents)"])
    return "\n".join(lines) + "\n"


def report_json(results: list[CaseResult]) -> dict:
    """Machine-readable mirror of render_report."""
    total, passed, agg = _summary(results)
    summary = {"total": total, "executed": total, "passed": passed, "failed": total - passed,
               "pass_pct": (passed * 100 / total) if total else None,
               "tp": agg.tp, "tn": agg.tn, "fp": agg.fp, "fn": agg.fn,
               "accuracy": accuracy(agg) if agg.total else None,
               "error": error_rate(agg) if agg.total else None}
    cases = [{"id": r.case_id, "name": r.name, "objective": r.objective,
              "events": r.event_count, "expected": r.expected_summary,
              "tp": r.cm.tp, "tn": r.cm.tn, "fp": r.cm.fp, "fn": r.cm.fn,
              "passed": r.passed, "incidents": r.incidents}
             for r in results]
    return {"schema": "motoguard-eval-v1", "summary": summary, "cases": cases}


def _case_json(case: dict) -> str:
    """One report_json case as json.dumps(..., indent=2) lays it out in the cases list."""
    incidents = case["incidents"]
    listed = ("[\n" + ",\n".join(["        " + _encode_str(text) for text in incidents])
              + "\n      ]") if incidents else "[]"
    return (f'    {{\n      "id": {_encode_str(case["id"])},\n'
            f'      "name": {_encode_str(case["name"])},\n'
            f'      "objective": {_encode_str(case["objective"])},\n'
            f'      "events": {case["events"]},\n'
            f'      "expected": {_encode_str(case["expected"])},\n'
            f'      "tp": {case["tp"]},\n      "tn": {case["tn"]},\n'
            f'      "fp": {case["fp"]},\n      "fn": {case["fn"]},\n'
            f'      "passed": {_JSON_BOOL[case["passed"]]},\n'
            f'      "incidents": {listed}\n    }}')


def report_json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\\n" for a report_json document, byte for byte.

    indent sends json to its pure-Python encoder, so each line shape is one
    template here, with strings through the encoder json.dumps itself uses,
    as in log_to_jsonl.
    """
    # every summary value is an int, a finite float or None
    summary = ",\n".join([f"    {_encode_str(key)}: {'null' if value is None else repr(value)}"
                          for key, value in doc["summary"].items()])
    cases = ",\n".join(map(_case_json, doc["cases"]))
    listed = f"[\n{cases}\n  ]" if cases else "[]"
    return (f'{{\n  "schema": {_encode_str(doc["schema"])},\n'
            f'  "summary": {{\n{summary}\n  }},\n  "cases": {listed}\n}}\n')
