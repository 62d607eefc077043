"""Replay logs and eval reports compared byte for byte with committed goldens.

The files in tests/golden/ were written by the CLI itself:

    motoguard simulate --scenario scenarios/<name>.jsonl --out tests/golden/<name>.log.jsonl
    motoguard eval --scenario-dir scenarios --report tests/golden/corpus_report.txt
    motoguard eval --scenario-dir tests/golden/failing_set --report tests/golden/failing_report.txt
    motoguard nmea --file tests/golden/nmea_sentences.txt > tests/golden/nmea_report.txt

They pin behaviour across refactors, so they change only with a deliberate,
versioned bump of the log or report schema, never to make a test pass.

Each scenario is replayed as committed to stdout and to --out (which must
leave stdout empty), and to stdout with CRLF line ends, with each integral
float of its event records as a JSON int, and with a --config file of every
default. Each eval runs with and without that file, and nmea also reads its
sentences with CRLF line ends. CI runs the installed console script.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from motoguard.cli import main
from motoguard.core import DEFAULT_CONFIG, ControllerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden"
SCENARIOS = sorted((REPO_ROOT / "scenarios").glob("*.jsonl"))


def _integral_floats_as_ints(data: bytes) -> bytes:
    header, *events = data.decode("utf-8").splitlines()
    events = [json.dumps({key: int(value) if type(value) is float and value.is_integer() else value
                          for key, value in json.loads(line).items()}) for line in events]
    return "".join(f"{line}\n" for line in (header, *events)).encode("utf-8")


VARIANTS = {"committed": lambda data: data, "crlf": lambda data: data.replace(b"\n", b"\r\n"),
            "ints": _integral_floats_as_ints}


@pytest.fixture(scope="module", params=["none", "defaults"])
def config(request, tmp_path_factory) -> list[str]:
    """No --config, or one naming a file that sets every key to its default."""
    if request.param == "none":
        return []
    path = tmp_path_factory.mktemp("config") / "defaults.cfg"
    path.write_text("".join(f"{name} = {getattr(DEFAULT_CONFIG, name)}\n"
                            for name in ControllerConfig.__match_args__), encoding="utf-8")
    return ["--config", str(path)]


def test_every_scenario_has_exactly_one_golden_log() -> None:
    logs = sorted(path.name for path in GOLDEN.glob("*.log.jsonl"))
    assert logs == [f"{path.stem}.log.jsonl" for path in SCENARIOS]
    assert len(logs) == 22


# (variant, config, sink): the axes exercise independent code, so each value once
FORMS = [("committed", "none", "stdout"), ("committed", "none", "out"), ("crlf", "none", "stdout"),
         ("ints", "none", "stdout"), ("committed", "defaults", "stdout")]


@pytest.mark.parametrize("variant,config,sink", FORMS, indirect=["config"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_replay_log_matches_golden(path: Path, variant: str, config: list[str], sink: str,
                                   tmp_path: Path, capsys) -> None:
    scenario, out = tmp_path / path.name, tmp_path / "log.jsonl"
    scenario.write_bytes(VARIANTS[variant](path.read_bytes()))
    argv = ["simulate", "--scenario", str(scenario), *config]
    assert main(argv if sink == "stdout" else [*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    log = stdout if sink == "stdout" else out.read_bytes()
    assert log == (GOLDEN / f"{path.stem}.log.jsonl").read_bytes()
    assert sink == "stdout" or stdout == b""


@pytest.mark.parametrize("directory,name,code", [
    (REPO_ROOT / "scenarios", "corpus_report", 0),
    # one stray alert and two missed labels in one case, listed out of time
    # order, pin the incident order and the worst-severity pick
    (GOLDEN / "failing_set", "failing_report", 1),
], ids=["corpus", "failing_set"])
def test_eval_reports_match_golden(directory: Path, name: str, code: int, config: list[str],
                                   tmp_path: Path, capsys) -> None:
    report = tmp_path / "report.txt"
    assert main(["eval", "--scenario-dir", str(directory), *config,
                 "--report", str(report)]) == code
    text = (GOLDEN / f"{name}.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == text
    assert report.read_bytes() == text
    assert report.with_suffix(".json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("variant", ["committed", "crlf"])
def test_nmea_file_output_matches_golden(variant: str, tmp_path: Path, capsys) -> None:
    # one line per ParseError subclass and per MalformedNumber field, range and
    # hemisphere failures included, valid A/V/GNRMC lines and a blank line
    sentences = tmp_path / "nmea_sentences.txt"
    sentences.write_bytes(VARIANTS[variant]((GOLDEN / "nmea_sentences.txt").read_bytes()))
    assert main(["nmea", "--file", str(sentences)]) == 1
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "nmea_report.txt").read_bytes()


def test_no_corpus_step_logs_two_mode_changes() -> None:
    # perfbench's Tracer.replay still logs a step's mode change by comparing
    # the mode before and after the step, and its --trace 1 corpus gate needs
    # its log byte-identical to run's. That holds only while no corpus step
    # makes more than one change (ROADMAP item 4 deletes the copy).
    for path in sorted(GOLDEN.glob("*.log.jsonl")):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        times = [rec["t_ms"] for rec in records if rec["type"] == "mode"][1:]
        assert len(times) == len(set(times)), (
            f"{path.name}: a step logs two mode lines, which Tracer.replay cannot "
            "reproduce, so the --trace 1 corpus gate would fail")
    assert len(list(GOLDEN.glob("*.log.jsonl"))) == 22
