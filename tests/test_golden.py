"""Replay logs and eval reports compared byte for byte with committed goldens.

The files in tests/golden/ were written by the CLI itself:

    motoguard simulate --scenario scenarios/<name>.jsonl --out tests/golden/<name>.log.jsonl
    motoguard eval --scenario-dir scenarios --report tests/golden/corpus_report.txt
    motoguard eval --scenario-dir tests/golden/failing_set --report tests/golden/failing_report.txt
    motoguard nmea --file tests/golden/nmea_sentences.txt > tests/golden/nmea_report.txt

They pin behaviour across refactors, so they change only with a deliberate,
versioned bump of the log or report schema, never to make a test pass.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from motoguard.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden"
SCENARIOS = sorted((REPO_ROOT / "scenarios").glob("*.jsonl"))


def test_every_scenario_has_exactly_one_golden_log() -> None:
    logs = sorted(path.name for path in GOLDEN.glob("*.log.jsonl"))
    assert logs == [f"{path.stem}.log.jsonl" for path in SCENARIOS]
    assert len(logs) == 22


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_replay_log_matches_golden(path: Path, tmp_path: Path) -> None:
    out = tmp_path / "log.jsonl"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{path.stem}.log.jsonl").read_bytes()


@pytest.mark.parametrize("directory,name,code", [
    (REPO_ROOT / "scenarios", "corpus_report", 0),
    # one stray alert and two missed labels in one case, listed out of time
    # order, pin the incident order and the worst-severity pick
    (GOLDEN / "failing_set", "failing_report", 1),
], ids=["corpus", "failing_set"])
def test_eval_reports_match_golden(directory: Path, name: str, code: int,
                                   tmp_path: Path, capsys) -> None:
    report = tmp_path / "report.txt"
    assert main(["eval", "--scenario-dir", str(directory), "--report", str(report)]) == code
    text = (GOLDEN / f"{name}.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == text
    assert report.read_bytes() == text
    assert report.with_suffix(".json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_nmea_file_output_matches_golden(capsys) -> None:
    # one line per ParseError subclass and per MalformedNumber field, range and
    # hemisphere failures included, valid A/V/GNRMC lines and a blank line
    assert main(["nmea", "--file", str(GOLDEN / "nmea_sentences.txt")]) == 1
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "nmea_report.txt").read_bytes()
