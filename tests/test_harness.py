from __future__ import annotations

import json
import random
import tracemalloc
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from motoguard import controller, core, harness
from motoguard.core import (PHONE_PATTERN, ActuatorCommand, AlertKind, Auth, Buzzer,
                            ContractViolation, ControllerConfig, GasReading, GpsFix, GeoPoint,
                            DEFAULT_CONFIG, Ignition, IgnitionInhibit, LidarRange, PirMotion,
                            SensorEvent, Severity, SmsSend, SolenoidLock, ValidationError,
                            severity_of)
from motoguard.controller import Mode, drain_sms
from motoguard.gsm import FakeModem, ModemClient
from motoguard.harness import (Alert, CaseResult, ConfusionMatrix, EventLog,
                               ExpectedLabel, ModeChange, Scenario, SchemaError,
                               UndefinedMetric, _match, accuracy,
                               dumps_scenario, error_rate, evaluate_scenarios, line_chunks,
                               load_scenario, loads_scenario, log_to_jsonl, match_alerts,
                               render_report, report_json, report_json_text, run)
from oracles import (greedy_match, json_lines_reference, loads_scenario_reference,
                     log_to_jsonl_reference, run_reference)
from spec import beacon_breaches, cooldown_breaches, instants, run_breaches

HEADER = '{"name": "t"}'


def ev(t_ms: int, payload) -> SensorEvent:
    return SensorEvent(t_ms=t_ms, payload=payload)


def alert(t_ms: int, kind: AlertKind) -> Alert:
    return Alert(t_ms, kind, severity_of(kind), f"{kind.value} at {t_ms}")


def preamble() -> list[SensorEvent]:
    clean = GasReading(ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=0.0)
    return [ev(0, Auth(True)), ev(0, Ignition(True)),
            ev(100, clean), ev(2100, clean)]


# --- scenario files --------------------------------------------------------

def test_corpus_file_round_trips(corpus_dir: Path) -> None:
    path = corpus_dir / "theft_beacon_hourly.jsonl"
    sc = load_scenario(path)
    assert loads_scenario(dumps_scenario(sc)) == sc


def test_save_and_load_round_trip() -> None:
    sc = Scenario(
        name="round-trip",
        description="window and negative labels survive a round trip",
        config={"speed_limit_kph": 60.0},
        events=[ev(0, Ignition(True)),
                ev(500, GpsFix(GeoPoint(1.0, 2.0), 12.5, True))],
        expected=[ExpectedLabel(AlertKind.THEFT, 0, 1000),
                  ExpectedLabel(AlertKind.CRASH)])
    assert loads_scenario(dumps_scenario(sc)) == sc


def test_blank_lines_are_skipped() -> None:
    sc = loads_scenario('\n{"name": "t"}\n\n{"t_ms": 5, "sensor": "pir", "detected": true}\n\n')
    assert sc.name == "t"
    assert len(sc.events) == 1


PIR_AT = '{{"t_ms": {}, "sensor": "pir", "detected": true}}'


@pytest.mark.parametrize("text,line_no,fragment", [
    ("", 1, "missing header record"),
    ("   \n  \n", 1, "missing header record"),
    ("not json", 1, "invalid JSON"),
    ("[1, 2]", 1, "header must be an object"),
    ('{"name": "t", "director": "x"}', 1, "unknown header fields: director"),
    ('{"description": "no name"}', 1, "non-empty name"),
    ('{"name": ""}', 1, "non-empty name"),
    ('{"name": "t", "description": 7}', 1, "description must be a string"),
    ('{"name": "t", "config": []}', 1, "config must be an object"),
    ('{"name": "t", "expected": 5}', 1, "expected must be a list"),
    ('{"name": "t", "expected": [{"kind": "meteor"}]}', 1, "unknown alert kind"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": 5}]}', 1, "integer start_ms"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": "5", "end_ms": "9"}]}',
     1, "integer start_ms"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": true, "end_ms": 5}]}',
     1, "integer start_ms"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": 0, "end_ms": false}]}',
     1, "integer start_ms"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": 9, "end_ms": 5}]}',
     1, "bad window"),
    ('{"name": "t", "expected": [{"kind": "crash", "negative": true, "end_ms": 5}]}',
     1, "extra fields"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": 0, "end_ms": 5, "tag": 1}]}',
     1, "extra fields"),
    ('{"name": "t", "expected": [{"kind": "crash", "start_ms": 0, "end_ms": 5}, '
     '{"kind": "crash", "negative": true}]}', 1, "both expected and declared negative"),
    (HEADER + '\n{"t_ms": 1, "sensor": "sonar"}', 2, "unknown sensor tag"),
    (HEADER + '\n{"t_ms": 1, "sensor": ["lidar"], "range_m": 1.0}', 2,
     "unknown sensor tag: ['lidar']"),
    (HEADER + '\n{"t_ms": 1, "sensor": {"a": 1}}', 2, "unknown sensor tag: {'a': 1}"),
    ('\ufeff' + HEADER, 1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (HEADER + '\n{"t_ms": 1, "sensor": "pir"}', 2, "missing fields: detected"),
    (HEADER + '\n{"t_ms": 1, "sensor": "pir", "detected": true, "x": 1}', 2,
     "unexpected fields: x"),
    (HEADER + '\n{"t_ms": 1, "sensor": "pir", "detected": true}\nnope', 3, "invalid JSON"),
    pytest.param(HEADER + '\n{"t_ms": 1, "sensor": "lidar", "range_m": 1' + "0" * 4400 + "}",
                 2, "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
                 id="number_over_digit_limit"),
    pytest.param(HEADER + "\n" + "[" * 100_000, 2,
                 "invalid JSON: maximum recursion depth exceeded", id="deep_nesting"),
    pytest.param(HEADER + '\n{"t_ms": 1, "sensor": "lidar", "range_m": 1' + "0" * 400 + "}",
                 2, "range_m must be >= 0: 1" + "0" * 400, id="int_too_large_for_a_float"),
    pytest.param('{"name": "t", "director": "x"}\n{"t_ms": 1, "sensor": "sonar"}', 1,
                 "unknown header fields: director", id="bad_header_before_bad_event"),
    pytest.param(HEADER + "\n" + PIR_AT.format(100) + "\n" + PIR_AT.format(50), 3,
                 "t_ms 50 is earlier than the event before it (100)", id="event_out_of_order"),
    pytest.param(HEADER + "\n" + PIR_AT.format(100) + "\n" + PIR_AT.format(50) + "\n{", 3,
                 "t_ms 50 is earlier than the event before it (100)",
                 id="out_of_order_before_bad_json"),
])
def test_schema_errors_carry_line_numbers(text: str, line_no: int, fragment: str) -> None:
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
    assert err.value.line_no == line_no
    assert fragment in err.value.reason


PIR = '{"t_ms": 5, "sensor": "pir", "detected": true}'
LABELED = '{{"name": "t", "expected": [{}]}}'.format  # a header holding one label
WINDOW = "label window needs integer start_ms and end_ms"  # ExpectedLabel's one window text


JSON_LINE_CASES = {
    "leading_whitespace": (HEADER + "\n  " + PIR, None, None),
    "trailing_whitespace": (HEADER + "\n" + PIR + " \t", None, None),
    "padded_header": (" \t" + HEADER + "  \n" + PIR, None, None),
    "tab_only_line": (HEADER + "\n\t\n" + PIR, None, None),
    "trailing_word": (HEADER + '\n{"a": 1} x', 2, "invalid JSON: Extra data"),
    "two_objects": (HEADER + "\n{} {}", 2, "invalid JSON: Extra data"),
    "trailing_number": (HEADER + "\n" + PIR + " 7", 2, "invalid JSON: Extra data"),
    "bom_on_event_line": (HEADER + "\n\ufeff" + PIR, 2,
                          "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "unclosed_object": (HEADER + "\n" + PIR + "\n{", 3,
                        "invalid JSON: Expecting property name enclosed in double quotes"),
    # no value starts the line: the scanner's no-value path
    "close_bracket": (HEADER + "\n]", 2, "invalid JSON: Expecting value"),
    "lone_minus": (HEADER + "\n-", 2, "invalid JSON: Expecting value"),
    # the non-finite literals JSON decoding accepts reach the payload bounds
    "nan_range": (HEADER + '\n{"t_ms": 5, "sensor": "lidar", "range_m": NaN}', 2,
                  "range_m must be >= 0: nan"),
    "infinite_range": (HEADER + '\n{"t_ms": 5, "sensor": "lidar", "range_m": Infinity}', 2,
                       "range_m must be >= 0: inf"),
    "label_kind_missing": (LABELED('{"start_ms": 0, "end_ms": 5}'), 1, "unknown alert kind None"),
    "label_kind_null": (LABELED('{"kind": null}'), 1, "unknown alert kind None"),
    "label_kind_int": (LABELED('{"kind": 1}'), 1, "unknown alert kind 1"),
    "label_kind_bool": (LABELED('{"kind": true}'), 1, "unknown alert kind True"),
    "label_kind_list": (LABELED('{"kind": ["crash"]}'), 1, "unknown alert kind ['crash']"),
    "label_kind_object": (LABELED('{"kind": {"crash": 1}}'), 1,
                          "unknown alert kind {'crash': 1}"),
    "label_kind_capitalised": (LABELED('{"kind": "Collision"}'), 1,
                               "unknown alert kind 'Collision'"),
    "label_kind_unknown": (LABELED('{"kind": "meteor"}'), 1, "unknown alert kind 'meteor'"),
    "label_negative_string_false": (LABELED('{"kind": "crash", "negative": "false"}'), 1,
                                    "label negative must be true or false"),
    "label_negative_string_no": (LABELED('{"kind": "crash", "negative": "no"}'), 1,
                                 "label negative must be true or false"),
    "label_negative_one": (LABELED('{"kind": "crash", "negative": 1}'), 1,
                           "label negative must be true or false"),
    "label_negative_zero": (LABELED('{"kind": "crash", "negative": 0, "start_ms": 0, '
                                    '"end_ms": 5}'), 1, "label negative must be true or false"),
    "label_negative_null": (LABELED('{"kind": "crash", "negative": null, "start_ms": 0, '
                                    '"end_ms": 5}'), 1, "label negative must be true or false"),
    "label_negative_list": (LABELED('{"kind": "crash", "negative": [], "start_ms": 0, '
                                    '"end_ms": 5}'), 1, "label negative must be true or false"),
    "label_not_an_object": (LABELED('"crash"'), 1, "expected label must be an object"),
    "label_no_window": (LABELED('{"kind": "crash"}'), 1, WINDOW),
    "label_negative_false_no_window": (LABELED('{"kind": "crash", "negative": false}'), 1, WINDOW),
    "label_null_bounds": (LABELED('{"kind": "crash", "start_ms": null, "end_ms": null}'), 1,
                          WINDOW),
    "label_null_start": (LABELED('{"kind": "crash", "start_ms": null, "end_ms": 5}'), 1, WINDOW),
    "label_end_only": (LABELED('{"kind": "crash", "end_ms": 5}'), 1, WINDOW),
    "label_float_start": (LABELED('{"kind": "crash", "start_ms": 0.0, "end_ms": 5}'), 1, WINDOW),
    "label_end_before_start": (LABELED('{"kind": "crash", "start_ms": 9, "end_ms": 5}'), 1,
                               "bad window [9, 5]"),
    "label_extra_key": (LABELED('{"kind": "crash", "start_ms": 0, "end_ms": 5, "tag": 1}'), 1,
                        "label has extra fields: ['tag']"),
    "negative_label_extra_key": (LABELED('{"kind": "crash", "negative": true, "end_ms": 5}'), 1,
                                 "negative label has extra fields: ['end_ms']"),
    # only space, tab and CR make a line blank; str.isspace() holds for these
    # too, but none is JSON whitespace
    **{f"only_{ord(c):x}_line": (HEADER + "\n" + c + "\n" + PIR, 2,
                                 "invalid JSON: Expecting value")
       for c in ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
                 "\u3000"]},
    "space_tab_cr_line": (HEADER + "\n \t\r\n" + PIR, None, None),
}


@pytest.mark.parametrize("text,line_no,reason", JSON_LINE_CASES.values(),
                         ids=JSON_LINE_CASES.keys())
def test_json_line_outcomes_are_exact(text: str, line_no: int | None,
                                      reason: str | None) -> None:
    # line_no None: the text is accepted, with the one pir event
    if line_no is None:
        assert loads_scenario(text).events == [ev(5, PirMotion(True))]
        return
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)


def test_negative_false_with_a_window_is_a_positive_label() -> None:
    sc = loads_scenario(LABELED('{"kind": "crash", "negative": false, "start_ms": 0, '
                                '"end_ms": 5}'))
    assert sc.expected == [ExpectedLabel(AlertKind.CRASH, 0, 5)]


def test_every_alert_kind_value_is_a_label_kind() -> None:
    labels = [{"kind": kind.value, "negative": True} for kind in AlertKind]
    sc = loads_scenario(json.dumps({"name": "t", "expected": labels}))
    assert [lab.kind for lab in sc.expected] == list(AlertKind)


EVENT_LINES = [PIR, '{"t_ms": 5, "sensor": "lidar", "range_m": 3.5}',
               '{"t_ms": 5, "sensor": "lidar", "range_m": -1}',
               '{"t_ms": 5, "sensor": "pir"}', '{"sensor": "sonar"}', "[]", "7"]


@st.composite
def scenario_lines(draw) -> str:
    """One line: an event record (good or bad) or JSON-ish noise, cut short,
    padded with whitespace, prefixed with a byte-order mark or followed by
    extra data."""
    line = draw(st.one_of(
        st.sampled_from(EVENT_LINES),
        st.text(st.sampled_from('{}[]",:0123456789.-eEtruflsn \t\ufeff'), max_size=12)))
    if draw(st.booleans()):
        line = line[:draw(st.integers(0, len(line)))]
    pad = st.text(st.sampled_from(" \t"), max_size=2)
    line = draw(pad) + line + draw(pad)
    line = draw(st.sampled_from(["", "", "", "\ufeff"])) + line
    return line + draw(st.sampled_from(["", "", "", " x", " {}", "]", "1"]))


@given(st.lists(scenario_lines(), max_size=8), st.sampled_from([HEADER, " " + HEADER + "\t"]))
def test_loads_scenario_agrees_with_json_loads_per_line(lines, header) -> None:
    text = "\n".join([header] + lines)
    try:
        want = json_lines_reference(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            loads_scenario(text)
        assert (err.value.line_no, err.value.reason) == (exc.line_no, exc.reason)
    else:
        assert loads_scenario(text).events == want


CHUNKED_LINES = [
    HEADER, '{"name": "t", "description": "a\u2028b"}', PIR_AT.format(5), PIR_AT.format(9),
    '{"t_ms": 7, "sensor": "lidar", "range_m": 1.' + "0" * 150 + "}",  # longer than some chunks
    "", " ", "\t", "\r", " \t\r", "{", "\x1c", "\u3000", "[]", '{"t_ms": 1, "sensor": "sonar"}']


@st.composite
def chunked_texts(draw) -> str:
    """A scenario text of headers, events (some out of order), blank lines and
    bad lines, with LF or CR LF line ends and with or without a final LF."""
    lines = draw(st.lists(st.sampled_from(CHUNKED_LINES), max_size=30))
    lines = [line + draw(st.sampled_from(["", "\r"])) for line in lines]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _decode_outcome(text: str):
    try:
        return loads_scenario(text)
    except SchemaError as exc:
        return exc.line_no, exc.reason


@given(chunked_texts(), st.integers(1, 200))
def test_chunked_decode_agrees_with_one_split(text: str, chunk_chars: int) -> None:
    assert list(line_chunks(text)) == [text.split("\n")]  # shorter than one chunk: one split
    whole = _decode_outcome(text)
    with mock.patch.object(harness, "_CHUNK_CHARS", chunk_chars):
        assert [line for lines in line_chunks(text) for line in lines] == text.split("\n")
        assert _decode_outcome(text) == whole


# --- one scanner call per chunk of event lines, against the line walk --------

# every decodable field's JSON texts: int-valued numbers as ints and floats
GOOD_VALUES = {float: st.one_of(st.integers(0, 90).map(str), st.integers(0, 90).map("{}.0".format),
                                st.sampled_from(["0.5", "1e1", "-0.0", "12.25"])),
               bool: st.sampled_from(["true", "false"])}
BAD_VALUES = st.sampled_from(["-1", "200", '"3"', "null", "[]", "{}", "[{}]", "1e400", "NaN",
                              '"},{"', "true", "1", "1" * 5000])
# what may be wrong with one line; None: nothing
LINE_FAULTS = [None] * 8 + ["bad_value", "missing", "extra", "back", "crlf", "blank", "pad",
                            "bad_line"]


def _escaped(text: str) -> str:
    """text as a JSON string with its first character \\u-escaped."""
    return f'"\\u{ord(text[0]):04x}{text[1:]}"'


@st.composite
def event_line(draw, t_ms: int, fault: str | None, twice: st.SearchStrategy) -> str:
    """One event record of any tag, as text: keys and tag maybe \\u-escaped,
    spaces around values, and keys given twice, the first time with a value
    drawn from twice and the second with the value that is kept."""
    tag = draw(st.sampled_from(sorted(core._DECODERS)))
    fields = [("t_ms", str(t_ms)), ("sensor", _escaped(tag) if draw(st.booleans()) else f'"{tag}"')]
    fields += [(name, draw(GOOD_VALUES[core._FIELD_RULES[name][0]]))
               for name in core._DECODERS[tag][0]]
    fields = draw(st.permutations(fields))
    if fault == "bad_value":
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = (fields[i][0], draw(BAD_VALUES))
    elif fault == "missing":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif fault == "extra":
        fields.append(("extra", "1"))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # a key twice: the later value wins
        i = draw(st.integers(0, len(fields) - 1))
        fields.insert(i, (fields[i][0], draw(twice)))
    escapes = draw(st.integers(0, 2 ** len(fields) - 1))  # bit i: key i is escaped
    keys = [_escaped(key) if escapes >> i & 1 else f'"{key}"' for i, (key, _) in enumerate(fields)]
    colon, after = draw(st.sampled_from([(": ", ""), (":", ""), (" : ", " "), (":  ", "  ")]))
    return "{" + ", ".join(f"{key}{colon}{value}{after}"
                           for key, (_, value) in zip(keys, fields)) + "}"


@st.composite
def event_texts(draw) -> str:
    """A header, then event lines of all nine tags with the faults above, a
    record maybe split over two lines and two maybe on one, and a final LF,
    CR LF or none. A clean text has none of these, and no brace but each
    record's own, so its chunks take the scan."""
    clean = draw(st.booleans())
    twice = st.sampled_from(["-1", "0", "true", '"x"', "null"]) if clean else BAD_VALUES
    lines: list[str] = []
    t_ms = 0
    for _ in range(draw(st.integers(0, 12))):
        fault = None if clean else draw(st.sampled_from(LINE_FAULTS))
        if fault == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\r", " \t"])))
            continue
        if fault == "bad_line":
            lines.append(draw(st.sampled_from(["{", "[]", "x", "{}", "{\"t_ms\": 1}"])))
            continue
        t_ms = max(0, t_ms + draw(st.sampled_from([0, 0, 1, 7, 30])) - 40 * (fault == "back"))
        line = draw(event_line(t_ms, fault, twice))
        if fault == "crlf":
            line += "\r"
        elif fault == "pad":
            line = draw(st.sampled_from([" ", "\t"])) + line
        lines.append(line)
    rarely = st.just(False) if clean else st.sampled_from([False, False, False, True])
    if len(lines) >= 2 and draw(rarely):  # two records on one line
        i = draw(st.integers(0, len(lines) - 2))
        lines[i:i + 2] = [lines[i] + draw(st.sampled_from([",", ", "])) + lines[i + 1]]
    if lines and draw(rarely):  # one record over two lines
        i = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(1, max(1, len(lines[i]) - 1)))
        lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
    return "\n".join([HEADER, *lines]) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _typed_outcome(loads, text: str):
    """The events, each as its repr (which tells 3 from 3.0), or the SchemaError."""
    try:
        return [repr(event) for event in loads(text).events]
    except SchemaError as exc:
        return exc.line_no, exc.reason


SPLIT_RECORD = ['{"t_ms": 1, "sensor": "pir", "detected": [{}', '{}], "detected": true}']
TWO_RECORDS = [PIR_AT.format(2) + ", " + PIR_AT.format(3)]
BRACE_TAG = ['{"t_ms": 1, "sensor": "pir", "detected": true, "sensor": "x}',
             '{", "sensor": "pir"}']
# two records' braces over two lines, one line without its own
TWO_THEN_SPLIT = [PIR_AT.format(2) + ', {"t_ms": 3, "sensor": "pir"', ' "detected": true}']
# a string holding "}" or "}," leaves each line one record: the scan holds
STRING_CLOSING = [PIR_AT.format(2)[:-1] + ', "detected": "}", "detected": true}',
                  '{"t_ms": 3, "sensor": "pir", "detected": "},", "detected": false}']
# each line starts with "{" and ends with "}", yet is not one record
NOT_ONE_RECORD_A_LINE = {"split_record": SPLIT_RECORD, "two_records": TWO_RECORDS,
                         "split_and_two": SPLIT_RECORD + TWO_RECORDS,
                         "tag_holding_brace_comma_brace": BRACE_TAG,
                         "brace_tag_and_two": BRACE_TAG + TWO_RECORDS,
                         "two_then_split": TWO_THEN_SPLIT,
                         "array_closed_early": [PIR_AT.format(2), PIR_AT.format(3) + "]"],
                         "array_closed_early_brace": [PIR_AT.format(2), PIR_AT.format(3) + "]}"]}


@given(event_texts(), st.integers(1, 200))
@example("\n".join([HEADER, *SPLIT_RECORD]), 200)
@example("\n".join([HEADER, *TWO_RECORDS]), 200)
@example("\n".join([HEADER, *SPLIT_RECORD, *TWO_RECORDS]), 200)
@example("\n".join([HEADER, *BRACE_TAG]), 200)
@example("\n".join([HEADER, *BRACE_TAG, *TWO_RECORDS]), 200)
@example("\n".join([HEADER, *TWO_THEN_SPLIT]), 200)
@example("\n".join([HEADER, *STRING_CLOSING]), 200)
@example("\n".join([HEADER, PIR_AT.format(2), PIR_AT.format(3) + "]"]), 200)
@example("\n".join([HEADER, PIR_AT.format(2), PIR_AT.format(3) + "]}"]), 200)
@example("\n".join([HEADER, PIR_AT.format(5), PIR_AT.format(4)]), 200)
@example("\n".join([HEADER, PIR_AT.format(5), PIR_AT.format(4)]), 1)  # a chunk a line
def test_chunk_scan_agrees_with_the_line_walk(text: str, chunk_chars: int) -> None:
    want = _typed_outcome(loads_scenario_reference, text)
    assert _typed_outcome(loads_scenario, text) == want
    with mock.patch.object(harness, "_CHUNK_CHARS", chunk_chars):
        assert _typed_outcome(loads_scenario, text) == want


@pytest.mark.parametrize("lines", NOT_ONE_RECORD_A_LINE.values(), ids=NOT_ONE_RECORD_A_LINE.keys())
def test_a_chunk_whose_lines_are_not_one_record_each_takes_the_walk(lines: list[str]) -> None:
    # every line looks like "{...}" and most scans give events, yet a line
    # alone is not one record: the walk names it
    assert harness._scanned_events("\n".join(lines), len(lines), 0) is None
    text = "\n".join([HEADER, *lines])
    outcome = _typed_outcome(loads_scenario, text)
    assert outcome == _typed_outcome(loads_scenario_reference, text)
    assert isinstance(outcome, tuple)  # a SchemaError


def test_a_string_holding_a_closing_brace_takes_the_scan() -> None:
    events = harness._scanned_events("\n".join(STRING_CLOSING), 2, 0)
    assert events == loads_scenario("\n".join([HEADER, *STRING_CLOSING])).events
    assert [event.payload.detected for event in events] == [True, False]


def test_one_scanner_call_and_one_kernel_call_read_each_chunk() -> None:
    text = "\n".join([HEADER] + [PIR_AT.format(t) for t in range(100)]) + "\n"
    scans, kernels, decodes, walks = [], [], [], []
    scan, kernel, decode, walk = (harness._scan, harness.decode_records,
                                  harness.event_from_record, harness._walk)
    with mock.patch.object(harness, "_CHUNK_CHARS", 1000), \
            mock.patch.object(harness, "_scan", lambda *a: scans.append(a) or scan(*a)), \
            mock.patch.object(harness, "decode_records",
                              lambda *a: kernels.append(a) or kernel(*a)), \
            mock.patch.object(harness, "event_from_record",
                              lambda rec: decodes.append(rec) or decode(rec)), \
            mock.patch.object(harness, "_walk", lambda *a: walks.append(a) or walk(*a)):
        sc = loads_scenario(text)
    # the header's line, then each chunk's lines as one list
    header, *chunks = scans
    assert header == (HEADER, 0) and [args[0][:1] for args in chunks] == ["["] * len(chunks)
    assert len(sc.events) == 100 and len(chunks) == len(kernels) > 1
    assert sum(len(records) for records, _ in kernels) == 100
    assert [prev_ms for _, prev_ms in kernels] == [0] + [
        records[-1]["t_ms"] for records, _ in kernels[:-1]]
    assert decodes == walks == []  # a plain LF ride never decodes one record alone


REFUSED = '{"t_ms": 1, "sensor": "lidar", "range_m": -1.0}'
# lines the kernel refuses, with the SchemaError the line walk names
KERNEL_REFUSALS = {
    "refused_first": ([REFUSED, PIR_AT.format(1), PIR_AT.format(2)],
                      (2, "range_m must be >= 0: -1.0")),
    "refused_mid_chunk": ([PIR_AT.format(1), '{"t_ms": 1, "sensor": "pir", "detected": 1}',
                           PIR_AT.format(2)], (3, "detected must be a bool")),
    "refused_last": ([PIR_AT.format(1), PIR_AT.format(2), PIR_AT.format(-1)],
                     (4, "t_ms must be a non-negative int: -1")),
    "extra_key": ([PIR_AT.format(1), '{"t_ms": 1, "sensor": "pir", "detected": true, "x": 1}'],
                  (3, "unexpected fields: x")),
    "missing_key": ([PIR_AT.format(1), '{"t_ms": 2, "sensor": "gas", "ethanol_ppm": 0.0, '
                                       '"lpg_ppm": 0.0}'], (3, "missing fields: co_ppm")),
    "missing_tag": (['{"t_ms": 1, "detected": true}'], (2, "unknown sensor tag: None")),
    "list_tag": (['{"t_ms": 1, "sensor": ["pir"], "detected": true}'],
                 (2, "unknown sensor tag: ['pir']")),
    "dict_tag": (['{"t_ms": 1, "sensor": {"pir": 1}, "detected": true}'],
                 (2, "unknown sensor tag: {'pir': 1}")),
    "int_tag": (['{"t_ms": 1, "sensor": 3, "detected": true}'], (2, "unknown sensor tag: 3")),
    "time_back_in_chunk": ([PIR_AT.format(5), PIR_AT.format(7), PIR_AT.format(6)],
                           (4, "t_ms 6 is earlier than the event before it (7)")),
}


@pytest.mark.parametrize("lines,error", KERNEL_REFUSALS.values(), ids=KERNEL_REFUSALS.keys())
def test_a_record_the_kernel_refuses_sends_its_chunk_to_the_walk(lines: list[str],
                                                                  error: tuple) -> None:
    assert harness._scanned_events("\n".join(lines), len(lines), 0) is None
    text = "\n".join([HEADER, *lines])
    assert _typed_outcome(loads_scenario, text) == error
    assert _typed_outcome(loads_scenario_reference, text) == error


@pytest.mark.parametrize("record", [[], ["sensor", "t_ms"], 5, "sensor", None])
def test_the_kernel_refuses_a_record_that_is_not_a_dict(record) -> None:
    assert core.decode_records([json.loads(PIR_AT.format(1)), record], 0) is None


def test_a_chunk_earlier_than_the_one_before_it_is_refused() -> None:
    lines = [PIR_AT.format(4), PIR_AT.format(9)]
    assert harness._scanned_events("\n".join(lines), 2, 4) is not None
    assert harness._scanned_events("\n".join(lines), 2, 5) is None
    text = "\n".join([HEADER, PIR_AT.format(5), *lines])
    with mock.patch.object(harness, "_CHUNK_CHARS", 1):  # a chunk a line
        assert _typed_outcome(loads_scenario, text) == (
            3, "t_ms 4 is earlier than the event before it (5)")


def test_decode_holds_one_chunk_of_lines_not_the_whole_file() -> None:
    # a split of the whole file holds about 2 bytes per input character
    # beside the decoded events; one chunk's lines are a small fraction of that
    rng = random.Random(1)
    text = "\n".join([HEADER] + [f'{{"t_ms": {t}, "sensor": "lidar", "range_m": '
                                 f'{rng.uniform(0, 40):.3f}}}' for t in range(22_000)]) + "\n"
    assert len(text) > 1_000_000
    loads_scenario(text[:text.index("\n", 1000)])  # first calls fill the interpreter's caches
    tracemalloc.start()
    try:
        sc = loads_scenario(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sc.events) == 22_000
    assert (peak - held) / len(text) < 0.5


def test_unsorted_events_name_the_offender() -> None:
    text = (HEADER
            + '\n{"t_ms": 100, "sensor": "pir", "detected": true}'
            + '\n{"t_ms": 50, "sensor": "pir", "detected": false}')
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
    assert err.value.line_no == 3


# --- replay ----------------------------------------------------------------

def test_empty_scenario_logs_only_the_initial_mode(monkeypatch) -> None:
    frames: list[bytes] = []
    write = FakeModem.write

    def recorded(modem: FakeModem, data: bytes) -> None:
        frames.append(data)
        write(modem, data)

    monkeypatch.setattr(FakeModem, "write", recorded)
    log = run(Scenario(name="empty"))
    assert log.records == [ModeChange(0, Mode.PARKED)]
    assert frames == []  # no power-on init: nothing to send, nothing written


def test_replay_brings_the_modem_up_only_to_send(corpus_dir: Path, monkeypatch) -> None:
    inits: list[ModemClient] = []
    queued: list[int] = []  # the queue length at each drain
    modem_init = ModemClient.modem_init

    def counted(client: ModemClient) -> bool:
        inits.append(client)
        return modem_init(client)

    def counted_drain(rs, client):
        queued.append(len(rs.pending_sms))
        return drain_sms(rs, client)

    monkeypatch.setattr(ModemClient, "modem_init", counted)
    monkeypatch.setattr("motoguard.harness.drain_sms", counted_drain)
    counts, expected, drains, sms_steps = {}, {}, {}, {}
    for path in sorted(corpus_dir.glob("*.jsonl")):
        inits.clear()
        queued.clear()
        log = run(load_scenario(path))
        counts[path.stem] = len(inits)
        sent_at = {r.t_ms for r in log.records
                   if isinstance(r, ActuatorCommand) and isinstance(r.action, SmsSend)}
        expected[path.stem] = int(bool(sent_at))
        assert 0 not in queued, path.stem  # no step drains an empty queue
        # the compliant modem empties the queue at every drain, so exactly the
        # steps that queue a message end with one queued
        drains[path.stem] = len(queued)
        sms_steps[path.stem] = len(sent_at)
    assert len(counts) == 22
    assert counts == expected
    assert sum(counts.values()) == 8
    assert drains == sms_steps
    assert sum(drains.values()) == 9  # theft_beacon_hourly sends at two steps


def test_run_calls_no_advance_and_drains_only_a_queue(corpus_dir: Path) -> None:
    sc = load_scenario(corpus_dir / "theft_beacon_hourly.jsonl")
    assert len({e.t_ms for e in sc.events}) > 2
    advanced, queued = [], []
    drain = harness.drain_sms
    with mock.patch.object(harness, "advance", lambda *args: advanced.append(args)), \
            mock.patch.object(harness, "drain_sms",
                              lambda rs, client: queued.append(len(rs.pending_sms))
                              or drain(rs, client)):
        log = run(sc)
    assert advanced == []
    assert queued and 0 not in queued  # theft_beacon_hourly sends at two instants
    assert log == run_reference(sc)


# What advance refuses, run refuses, wrapped with the scenario's name and the
# time of the instant: a time earlier than the one before it, a time that is
# not an exact non-negative int, and whatever a handler refuses.

def refusal(events: list[SensorEvent]) -> str:
    with pytest.raises(ContractViolation) as err:
        run(Scenario(name="bad", events=events))
    return str(err.value)


@pytest.mark.parametrize("at", [1, 2, 4], ids=["second", "middle", "last"])
def test_run_refuses_an_instant_earlier_than_the_one_before_it(at: int) -> None:
    times = [100, 200, 200, 300, 400]  # the instants 100, 200, 300 and 400
    times[at] = times[at - 1] - 1
    events = [ev(t, PirMotion(False)) for t in times]
    t, last = times[at], times[at - 1]
    assert refusal(events) == f"bad: at t={t}: step at t={t} after t={last}"


@pytest.mark.parametrize("stamp", [5.0, True, -1])
@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_run_refuses_a_time_that_is_not_a_non_negative_int(stamp, at: int) -> None:
    events = [ev(t, PirMotion(False)) for t in (0, 3, 8)]
    events[at] = SensorEvent._unchecked(stamp, PirMotion(False))
    assert refusal(events) == f"bad: at t={stamp}: t_ms must be a non-negative int: {stamp!r}"


def test_run_names_the_scenario_and_time_of_a_handler_refusal(monkeypatch) -> None:
    def refuse(cfg, state, t_ms, payload):
        raise ContractViolation(f"refused {payload!r}")

    monkeypatch.setitem(controller._HANDLERS, PirMotion, refuse)
    events = [ev(0, Auth(True)), ev(100, Auth(False)), ev(100, PirMotion(True)),
              ev(200, PirMotion(False))]
    with pytest.raises(ContractViolation) as err:
        run(Scenario(name="bad", events=events))
    assert str(err.value) == "bad: at t=100: refused PirMotion(detected=True)"
    assert str(err.value.__cause__) == "refused PirMotion(detected=True)"


def test_log_record_shapes() -> None:
    sc = Scenario(name="lockdown", events=[ev(0, Ignition(True))])
    log = run(sc)
    lines = log_to_jsonl(log).splitlines()
    assert lines[0] == '{"t_ms": 0, "type": "mode", "mode": "parked"}'
    first = json.loads(lines[1])
    assert first == {"t_ms": 0, "type": "alert", "kind": "theft",
                     "severity": "high", "message": "THEFT unauthorized ignition attempt"}
    kinds = [json.loads(line)["type"] for line in lines]
    assert kinds == ["mode", "alert", "command", "command", "command", "mode"]
    assert json.loads(lines[-1]) == {"t_ms": 0, "type": "mode", "mode": "theft_suspected"}
    solenoid = json.loads(lines[2])
    assert solenoid == {"t_ms": 0, "type": "command", "action": "solenoid_lock",
                        "engaged": True}
    sms = json.loads(lines[4])
    assert sms["action"] == "sms_send" and sms["to"] == "+639171234567"


def mode_lines(log: EventLog) -> list[tuple[int, str]]:
    return [(rec.t_ms, rec.mode.value) for rec in log.records if isinstance(rec, ModeChange)]


# Several changes in one step each get a line, in order, after the step's
# alerts and commands: none hides behind the step's net change.

def test_ignition_cycled_in_one_step_while_riding_logs_both_changes() -> None:
    sc = Scenario(name="t", events=preamble() + [ev(3000, Ignition(False)),
                                                 ev(3000, Ignition(True))])
    assert mode_lines(run(sc)) == [(0, "parked"), (0, "pre_ride"), (2100, "riding"),
                                   (3000, "parked"), (3000, "pre_ride")]


def test_a_ride_that_starts_and_ends_in_one_step_is_logged() -> None:
    clean = GasReading(ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=0.0)
    sc = Scenario(name="t", events=preamble()[:3] + [ev(2100, clean),
                                                     ev(2100, Ignition(False))])
    log = run(sc)
    assert mode_lines(log) == [(0, "parked"), (0, "pre_ride"), (2100, "riding"),
                               (2100, "parked")]
    # the passing check's command comes before the step's mode lines
    assert log.records[-3] == ActuatorCommand(2100, IgnitionInhibit(on=False))


def test_ignition_cycled_in_one_step_during_pre_ride_restarts_the_window() -> None:
    clean = GasReading(ethanol_ppm=0.0, co_ppm=0.0, lpg_ppm=0.0)
    sc = Scenario(name="t", events=preamble()[:3] + [
        ev(500, Ignition(False)), ev(500, Ignition(True)),
        ev(2100, clean), ev(2500, clean)])
    # the window reopened at 500, so it closes at 2500, not at 2100
    assert mode_lines(run(sc)) == [(0, "parked"), (0, "pre_ride"), (500, "parked"),
                                   (500, "pre_ride"), (2500, "riding")]


# --- log serialization: the per-shape templates agree with json.dumps ---------

class _Int(int):
    """An int whose own text differs from its value's: a template would write
    the text where json.dumps writes the value, so no log record takes one."""

    def __repr__(self) -> str:
        return "_Int"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return "_Int"


class _Str(str):
    pass


PHONE = "+639171234567"


# Every value a log record constructor rejects: a time that is not an exact
# int, a kind, severity or mode that is not its enum, a text that is not an
# exact str, a flag that is not a bool, and an action of no action class.
@pytest.mark.parametrize("build,reason", [
    (lambda: Alert(_Int(5), AlertKind.THEFT, Severity.HIGH, "t"),
     "t_ms must be a non-negative int: _Int"),
    (lambda: Alert(0, "crash", 3, None), "kind must be an AlertKind: 'crash'"),
    (lambda: Alert(0, AlertKind.CRASH, 3, "c"), "severity must be a Severity: 3"),
    (lambda: Alert(0, AlertKind.CRASH, Severity.HIGH, None), "message must be a str: None"),
    (lambda: Alert(0, AlertKind.GAS_LEAK, Severity.HIGH, _Str("leak")),
     "message must be a str: 'leak'"),
    (lambda: ActuatorCommand(_Int(5), Buzzer(True)), "t_ms must be a non-negative int: _Int"),
    (lambda: ActuatorCommand(0, None),
     "action must be a Buzzer, IgnitionInhibit, SolenoidLock or SmsSend: None"),
    (lambda: ActuatorCommand(0, Ignition(True)),
     "action must be a Buzzer, IgnitionInhibit, SolenoidLock or SmsSend: Ignition(on=True)"),
    (lambda: Buzzer(1), "on must be a bool"),
    (lambda: IgnitionInhibit(0), "on must be a bool"),
    (lambda: SolenoidLock(1), "engaged must be a bool"),
    (lambda: SolenoidLock(0), "engaged must be a bool"),
    (lambda: SmsSend(123, "b"), "bad phone number: 123"),
    (lambda: SmsSend(639171234567, "b"), "bad phone number: 639171234567"),
    (lambda: SmsSend(_Str(PHONE), "b"), "bad phone number: '+639171234567'"),
    (lambda: SmsSend(PHONE, None), "body must be a str: None"),
    (lambda: SmsSend(PHONE, _Str("b")), "body must be a str: 'b'"),
    (lambda: ModeChange(_Int(5), Mode.RIDING), "t_ms must be a non-negative int: _Int"),
])
def test_log_records_reject_bad_fields(build, reason: str) -> None:
    with pytest.raises(ContractViolation) as err:
        build()
    assert str(err.value) == reason


@pytest.mark.parametrize("args,reason", [
    (("collision", 0, 5), "kind must be an AlertKind: 'collision'"),
    (("collision",), "kind must be an AlertKind: 'collision'"),
    ((AlertKind.CRASH, True, 5), WINDOW),
    ((AlertKind.CRASH, "0", "5"), WINDOW),
    ((AlertKind.CRASH, 0, 5.0), WINDOW),
    ((AlertKind.CRASH, 0, _Int(5)), WINDOW),
    ((AlertKind.CRASH, 0), WINDOW),
    ((AlertKind.CRASH, None, 5), WINDOW),
    ((AlertKind.CRASH, 9, 5), "bad window [9, 5]"),
    ((AlertKind.CRASH, -1, 5), "bad window [-1, 5]"),
], ids=["str_kind", "str_kind_negative", "bool_start", "str_bounds", "float_end",
        "int_subclass_end", "start_only", "end_only", "end_before_start", "negative_start"])
def test_expected_label_rejects_bad_fields(args: tuple, reason: str) -> None:
    with pytest.raises(ContractViolation) as err:
        ExpectedLabel(*args)
    assert str(err.value) == reason


def test_log_to_jsonl_rejects_a_record_of_no_log_type() -> None:
    foreign = SensorEvent(0, Ignition(True))
    with pytest.raises(ContractViolation) as err:
        log_to_jsonl(EventLog([ModeChange(0, Mode.PARKED), foreign]))
    assert str(err.value) == "not a log record: SensorEvent(t_ms=0, payload=Ignition(on=True))"


@pytest.mark.parametrize("t_ms,mode,reason", [
    (True, Mode.PARKED, "t_ms must be a non-negative int: True"),
    (-5, Mode.RIDING, "t_ms must be a non-negative int: -5"),
    (1.0, Mode.RIDING, "t_ms must be a non-negative int: 1.0"),
    (0, "parked", "mode must be a Mode: 'parked'"),
    (0, None, "mode must be a Mode: None"),
])
def test_mode_change_rejects_bad_fields(t_ms, mode, reason: str) -> None:
    with pytest.raises(ContractViolation) as err:
        ModeChange(t_ms, mode)
    assert str(err.value) == reason


# a quote, a backslash, control characters, U+2028, non-ASCII text, a lone
# surrogate and an escaped pair: no golden log holds any of them
ODD_TEXTS = ['"', "\\", "\x00\x08\t\n\x1f\x7f", "\u2028", "caf\u00e9 \u2713 \U0001d11e", "\ud800",
             'a"b\\c\u2028d\udc00']

texts = st.one_of(st.text(st.characters(exclude_categories=())), st.sampled_from(ODD_TEXTS))
# what an SMS body may hold: ASCII without the Ctrl-Z and ESC that end a send
SMS_TEXTS = [text for text in ODD_TEXTS if text.isascii()]
sms_texts = st.one_of(st.text(st.characters(max_codepoint=127, exclude_categories=(),
                                            exclude_characters="\x1a\x1b")),
                      st.sampled_from(SMS_TEXTS))
log_times = st.integers(0, 10**13)
flags = st.booleans()
log_records = st.one_of(
    st.builds(Alert, log_times, st.sampled_from(AlertKind), st.sampled_from(Severity), texts),
    st.builds(ActuatorCommand, log_times, st.one_of(
        st.builds(Buzzer, flags), st.builds(IgnitionInhibit, flags), st.builds(SolenoidLock, flags),
        st.builds(SmsSend, st.from_regex(PHONE_PATTERN, fullmatch=True), sms_texts))),
    st.builds(ModeChange, log_times, st.sampled_from(Mode)),
)


def _render_outcome(render, log: EventLog) -> tuple:
    try:
        return "text", render(log)
    except Exception as exc:  # the exception type and text are part of the contract
        return type(exc), str(exc)


@settings(max_examples=500)
@given(st.lists(log_records, max_size=8).map(EventLog))
@example(EventLog([]))
@example(EventLog([Alert(0, AlertKind.CRASH, Severity.HIGH, text) for text in ODD_TEXTS]))
@example(EventLog([ActuatorCommand(0, SmsSend(PHONE, text)) for text in SMS_TEXTS]))
@example(EventLog([Alert(0, AlertKind.BEACON, Severity.HIGH, "b"),
                   Alert(0, AlertKind.CRASH, Severity.LOW, "c")]))
@example(EventLog([ActuatorCommand(0, Buzzer(on=False)),
                   ActuatorCommand(0, SolenoidLock(engaged=False))]))
@example(EventLog([Alert(10**5000, AlertKind.CRASH, Severity.HIGH, "c")]))
def test_log_to_jsonl_agrees_with_json_dumps(log: EventLog) -> None:
    assert _render_outcome(log_to_jsonl, log) == _render_outcome(log_to_jsonl_reference, log)


def test_emitted_records_render_as_json_dumps(corpus_dir: Path) -> None:
    # a closing target with a 1 ms cooldown: an alert, a buzzer and an SMS per sample
    closing = [ev(3000 + 100 * i, LidarRange(40.0 - i)) for i in range(40)]
    storm = Scenario(name="storm", config={"sms_cooldown_ms": 1},
                     events=preamble() + [ev(2500, GpsFix(GeoPoint(14.6, 121.0), 60.0, True)),
                                          *closing])
    logs = [run(load_scenario(path)) for path in sorted(corpus_dir.glob("*.jsonl"))]
    logs.append(run(storm))
    want = [log_to_jsonl_reference(log) for log in logs]
    shapes = {(obj["type"], obj.get("action")) for text in want
              for obj in map(json.loads, text.splitlines())}
    assert shapes == {("alert", None), ("mode", None), ("command", "buzzer"),
                      ("command", "ignition_inhibit"), ("command", "solenoid_lock"),
                      ("command", "sms_send")}
    assert len(logs) == 23 and want[-1].count('"sms_send"') > 10
    assert [log_to_jsonl(log) for log in logs] == want


def test_header_config_overrides_apply() -> None:
    events = preamble() + [ev(3000, GpsFix(GeoPoint(0.0, 0.0), 70.0, True))]
    quiet = run(Scenario(name="limit80", events=events))
    assert [a.kind for a in quiet.alerts()] == []
    loud = run(Scenario(name="limit60", config={"speed_limit_kph": 60.0}, events=events))
    assert [a.kind for a in loud.alerts()] == [AlertKind.OVERSPEED]


def test_bad_header_config_is_rejected_at_run_time() -> None:
    with pytest.raises(ValidationError):
        run(Scenario(name="bad", config={"speed_limit_kph": -5.0}))
    with pytest.raises(ValidationError):
        run(Scenario(name="unknown", config={"warp_factor": 9}))


def test_cross_field_breach_names_the_scenario_only_when_its_header_brings_it() -> None:
    with pytest.raises(ValidationError) as err:
        run(Scenario(name="slow", config={"speed_limit_kph": 5.0}))
    assert err.value.violations == [("slow: speed_hysteresis_kph", "must be < speed_limit_kph")]
    base = ControllerConfig(sms_cooldown_ms=3_600_000)
    with pytest.raises(ValidationError) as err:
        run(Scenario(name="fast", config={"speed_limit_kph": 90.0}), base)
    assert err.value.violations == [("sms_cooldown_ms", "must be < beacon_period_ms")]
    with pytest.raises(ValidationError) as err:
        run(Scenario(name="short", config={"beacon_period_ms": 60_000}),
            ControllerConfig(sms_cooldown_ms=60_000))
    assert err.value.violations == [("short: sms_cooldown_ms", "must be < beacon_period_ms")]


def _replay_outcome(replay, sc: Scenario, cfg: ControllerConfig) -> tuple:
    try:
        return "log", log_to_jsonl(replay(sc, cfg))
    except ValidationError as exc:
        return "refused", exc.violations


def test_a_config_equal_to_the_default_is_still_checked(corpus_dir: Path) -> None:
    # run skips the check only for DEFAULT_CONFIG itself; this one compares and
    # hashes equal to it, yet holds a float where an int belongs
    sc = load_scenario(corpus_dir / "quiet_parked.jsonl")
    equal = ControllerConfig(mag_persist_samples=3.0)
    assert equal == DEFAULT_CONFIG and hash(equal) == hash(DEFAULT_CONFIG)
    refused = ("refused", [("mag_persist_samples", "must be an integer")])
    replayed = _replay_outcome(run_reference, sc, DEFAULT_CONFIG)
    assert replayed[0] == "log"
    for _ in range(2):  # also right after a DEFAULT_CONFIG replay, which skips the check
        assert _replay_outcome(run, sc, DEFAULT_CONFIG) == replayed
        assert _replay_outcome(run, sc, equal) == refused
    assert _replay_outcome(run_reference, sc, equal) == refused  # it checks every replay


def test_an_invalid_base_is_refused_case_by_case_in_name_order() -> None:
    base = ControllerConfig(mag_persist_samples=3.0)
    fixed = Scenario(name="a_fixed", config={"mag_persist_samples": 3},
                     events=[ev(0, Ignition(True))], expected=[ExpectedLabel(AlertKind.THEFT, 0, 0)])
    plain = Scenario(name="b_plain", events=[ev(0, Auth(True))])
    faster = Scenario(name="c_faster", config={"speed_limit_kph": 60.0})
    cases = [faster, plain, fixed]
    # per case, in name order: the one that sets the bad key replays, the others are refused
    outcomes = [_replay_outcome(run, sc, base) for sc in (fixed, plain, faster)]
    assert [kind for kind, _ in outcomes] == ["log", "refused", "refused"]
    assert outcomes == [_replay_outcome(run_reference, sc, base) for sc in (fixed, plain, faster)]
    [result] = evaluate_scenarios([fixed], base)
    assert result.passed
    with pytest.raises(ValidationError) as err:
        evaluate_scenarios(cases, base)  # b_plain is the first case refused
    assert str(err.value) == "mag_persist_samples: must be an integer"
    assert err.value.violations == outcomes[1][1]


# --- matching and metrics --------------------------------------------------

def test_match_window_bounds_are_inclusive() -> None:
    labels = [ExpectedLabel(AlertKind.OVERSPEED, 1000, 2000)]
    for t in (1000, 2000):
        cm = match_alerts(EventLog([alert(t, AlertKind.OVERSPEED)]), labels)
        assert (cm.tp, cm.fp, cm.fn) == (1, 0, 0)
    cm = match_alerts(EventLog([alert(2001, AlertKind.OVERSPEED)]), labels)
    assert (cm.tp, cm.fp, cm.fn) == (0, 1, 1)


def test_match_is_greedy_earliest_window_first() -> None:
    labels = [ExpectedLabel(AlertKind.CRASH, 5000, 6000),
              ExpectedLabel(AlertKind.CRASH, 0, 10_000)]
    cm = match_alerts(EventLog([alert(5500, AlertKind.CRASH)]), labels)
    assert (cm.tp, cm.fn, cm.fp) == (1, 1, 0)


def test_second_alert_in_a_matched_window_is_a_false_positive() -> None:
    labels = [ExpectedLabel(AlertKind.OVERSPEED, 0, 10_000)]
    log = EventLog([alert(1000, AlertKind.OVERSPEED), alert(2000, AlertKind.OVERSPEED)])
    cm = match_alerts(log, labels)
    assert (cm.tp, cm.fp, cm.fn) == (1, 1, 0)


def test_negative_labels_score_true_negatives() -> None:
    labels = [ExpectedLabel(AlertKind.CRASH), ExpectedLabel(AlertKind.THEFT)]
    cm = match_alerts(EventLog([alert(1000, AlertKind.THEFT)]), labels)
    assert (cm.tn, cm.fp) == (1, 1)  # crash stayed quiet; theft violated its label


def test_kind_must_match_the_window() -> None:
    labels = [ExpectedLabel(AlertKind.CRASH, 0, 10_000)]
    cm = match_alerts(EventLog([alert(1000, AlertKind.THEFT)]), labels)
    assert (cm.tp, cm.fp, cm.fn) == (0, 1, 1)


MATCH_KINDS = [AlertKind.CRASH, AlertKind.THEFT, AlertKind.OVERSPEED]


@st.composite
def label_lists(draw) -> list[ExpectedLabel]:
    """Positive windows (zero-width and overlapping included) and negative
    labels over a few kinds, with some labels repeated, in any order."""
    kinds = st.sampled_from(MATCH_KINDS)
    windows = st.builds(lambda kind, start, width: ExpectedLabel(kind, start, start + width),
                        kinds, st.integers(0, 50), st.sampled_from([0, 0, 1, 3, 10, 40]))
    labels = draw(st.lists(st.one_of(windows, st.builds(ExpectedLabel, kinds)), max_size=10))
    repeats = draw(st.lists(st.sampled_from(labels), max_size=3)) if labels else []
    return draw(st.permutations(labels + repeats))


# n windows that close unmatched, then n stray alerts of the same kind: the
# shape that made the matcher rescan every dead window for every alert
@example([(100 + i, AlertKind.CRASH) for i in range(200)],
         [ExpectedLabel(AlertKind.CRASH, i, i) for i in range(200)])
@example(sorted((100 + i % 7, AlertKind.CRASH) for i in range(50)),
         [ExpectedLabel(AlertKind.CRASH, i, i + 3) for i in range(50)]
         + [ExpectedLabel(AlertKind.CRASH, 103, 103)])
@given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(MATCH_KINDS)), max_size=15)
       .map(lambda specs: sorted(specs, key=itemgetter(0))),
       label_lists())
def test_match_agrees_with_the_quadratic_oracle(alert_specs, labels) -> None:
    # alerts come in time order, as every log holds them; kinds and ties are mixed
    alerts = [alert(t, kind) for t, kind in alert_specs]
    cm, strays, missed = _match(EventLog(list(alerts)), labels)
    want_counts, want_strays, want_missed = greedy_match(alerts, labels)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == want_counts
    assert strays == want_strays
    assert missed == want_missed


@pytest.mark.parametrize("alert_specs, labels, times", [
    ([(10, AlertKind.CRASH), (5, AlertKind.CRASH)], [ExpectedLabel(AlertKind.CRASH, 0, 6)],
     "5 ms after 10 ms"),
    ([(20, AlertKind.CRASH), (3, AlertKind.CRASH)],
     [ExpectedLabel(AlertKind.CRASH, 1, 6), ExpectedLabel(AlertKind.CRASH, 0, 5)],
     "3 ms after 20 ms"),
    # the order is the whole log's, not each kind's
    ([(7, AlertKind.THEFT), (6, AlertKind.CRASH)], [], "6 ms after 7 ms"),
])
def test_match_refuses_alerts_out_of_time_order(alert_specs, labels, times) -> None:
    log = EventLog([alert(t, kind) for t, kind in alert_specs])
    with pytest.raises(ContractViolation, match=f"^alerts out of time order: {times}$"):
        match_alerts(log, labels)


def test_accuracy_and_error() -> None:
    cm = ConfusionMatrix(tp=8, tn=7, fp=3, fn=2)
    assert accuracy(cm) == 75.0
    assert error_rate(cm) == 25.0
    with pytest.raises(UndefinedMetric):
        accuracy(ConfusionMatrix(0, 0, 0, 0))
    with pytest.raises(UndefinedMetric):
        error_rate(ConfusionMatrix(0, 0, 0, 0))


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
def test_accuracy_and_error_always_sum_to_exactly_100(tp, tn, fp, fn) -> None:
    cm = ConfusionMatrix(tp, tn, fp, fn)
    if cm.total == 0:
        return
    assert accuracy(cm) == (tp + tn) * 100 / cm.total
    assert error_rate(cm) == (fp + fn) * 100 / cm.total
    assert accuracy(cm) + error_rate(cm) == 100.0


# --- corpus evaluation and report ------------------------------------------

def two_results() -> list[CaseResult]:
    good = Scenario(name="a_lockdown",
                    description="unauthorized start is refused",
                    events=[ev(0, Ignition(True))],
                    expected=[ExpectedLabel(AlertKind.THEFT, 0, 0)])
    bad = Scenario(name="b_ghost_crash",
                   description="expects a crash that never happens",
                   events=[ev(0, Auth(True))],
                   expected=[ExpectedLabel(AlertKind.CRASH, 0, 5000)])
    return evaluate_scenarios([bad, good])


def test_evaluate_orders_by_name_and_scores() -> None:
    results = two_results()
    assert [r.case_id for r in results] == ["TC-01", "TC-02"]
    assert [r.name for r in results] == ["a_lockdown", "b_ghost_crash"]
    assert [r.passed for r in results] == [True, False]
    assert results[1].incidents == ["missed crash alert in [0..5000]ms"]


def test_render_report_all_passing(corpus_dir: Path) -> None:
    scenarios = [load_scenario(p) for p in sorted(corpus_dir.glob("*.jsonl"))]
    results = evaluate_scenarios(scenarios)
    text = render_report(results)
    n = len(scenarios)
    assert f"Successful 100% ({n} of {n})" in text
    assert f"Failed 0% (0 of {n})" in text
    assert "(no incidents)" in text
    assert "Accuracy 100.00%" in text
    assert "Error 0.00%" in text
    assert text.startswith("TEST CASE RESULTS\n")


def test_render_report_with_a_failure() -> None:
    text = render_report(two_results())
    assert "Successful 50% (1 of 2)" in text
    assert "Failed 50% (1 of 2)" in text
    assert "TC-02 b_ghost_crash" in text
    assert "Severity 1" in text and "High" in text
    assert "missed crash alert in [0..5000]ms" in text
    assert "tp=1 tn=0 fp=0 fn=1" in text
    assert "Accuracy 50.00%" in text


def test_render_report_empty_corpus() -> None:
    text = render_report([])
    assert "(no cases)" in text
    assert "No of TC Executed 0% (0 of 0)" in text
    assert "Accuracy undefined (no labeled outcomes)" in text


def test_report_json_mirrors_the_text() -> None:
    results = two_results()
    obj = report_json(results)
    assert obj["schema"] == "motoguard-eval-v1"
    assert obj["summary"]["passed"] == 1
    assert obj["summary"]["failed"] == 1
    assert obj["summary"]["accuracy"] == 50.0
    assert len(obj["cases"]) == 2
    assert obj["cases"][1]["incidents"] == ["missed crash alert in [0..5000]ms"]
    json.dumps(obj)  # must be serializable as-is


def _indented_dump(results: list[CaseResult]) -> str:
    return json.dumps(report_json(results), indent=2) + "\n"


@pytest.mark.parametrize("directory", [Path(__file__).parent.parent / "scenarios",
                                       Path(__file__).parent / "golden" / "failing_set", None],
                         ids=["corpus", "failing_set", "no_cases"])
def test_report_json_text_is_the_indented_dump(directory: Path | None) -> None:
    paths = sorted(directory.glob("*.jsonl")) if directory else []
    results = evaluate_scenarios([load_scenario(p) for p in paths])
    assert report_json_text(report_json(results)) == _indented_dump(results)


case_results = st.builds(
    CaseResult, case_id=texts, name=texts, objective=texts, event_count=st.integers(0, 10**9),
    expected_summary=texts, cm=st.builds(ConfusionMatrix, *[st.integers(0, 10**6)] * 4),
    passed=st.booleans(), incidents=st.lists(texts, max_size=3),
    worst_severity=st.none() | st.sampled_from(Severity))


@settings(max_examples=300)
@given(st.lists(case_results, max_size=4))
@example([])
@example([CaseResult(text, text, text, 0, text, ConfusionMatrix(0, 0, 0, 0), True, [], None)
          for text in ODD_TEXTS])
@example([CaseResult("TC-01", "x", "y", 1, "none", ConfusionMatrix(1, 2, 3, 4), False,
                     ODD_TEXTS, Severity.HIGH)])
def test_report_json_text_agrees_with_json_dumps(results: list[CaseResult]) -> None:
    assert report_json_text(report_json(results)) == _indented_dump(results)


# --- corpus-wide invariants ------------------------------------------------

def test_corpus_logs_keep_every_run_property(corpus_dir: Path) -> None:
    paths = sorted(corpus_dir.glob("*.jsonl"))
    assert len(paths) == 22
    for path in paths:
        sc = load_scenario(path)
        assert run_breaches(run(sc), core.apply_overrides(DEFAULT_CONFIG, sc.config)) == [], \
            path.name


def test_corpus_respects_per_kind_cooldown(corpus_dir: Path) -> None:
    for path in sorted(corpus_dir.glob("*.jsonl")):
        sc = load_scenario(path)
        cfg = core.apply_overrides(DEFAULT_CONFIG, sc.config)
        assert cooldown_breaches({}, run(sc).alerts(), cfg) == [], path.name


def test_corpus_beacons_only_while_parked_or_lockdown(corpus_dir: Path) -> None:
    for path in sorted(corpus_dir.glob("*.jsonl")):
        breaches = [b for mode, group in instants(run(load_scenario(path)))
                    for b in beacon_breaches(mode, [r for r in group if type(r) is Alert])]
        assert breaches == [], path.name
