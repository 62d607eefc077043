from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import motoguard
from motoguard import cli, nmea
from motoguard.cli import main
from motoguard.harness import load_scenario, log_to_jsonl, match_alerts, run

GOOD_RMC = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"


def write_failing_scenario(directory: Path) -> Path:
    path = directory / "zz_ghost_crash.jsonl"
    path.write_text(
        '{"name": "zz_ghost_crash", "description": "expects a crash that never happens", '
        '"expected": [{"kind": "crash", "start_ms": 0, "end_ms": 5000}]}\n'
        '{"t_ms": 0, "sensor": "auth", "authorized": true}\n',
        encoding="utf-8")
    return path


def write_unreadable(directory: Path, kind: str) -> Path:
    """A path that exists but cannot be read as UTF-8 text."""
    path = directory / "unreadable.jsonl"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "caf\xe9"}\n')
    return path


# --- simulate --------------------------------------------------------------

def test_simulate_writes_log_to_stdout(corpus_dir: Path, capsys) -> None:
    code = main(["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == '{"t_ms": 0, "type": "mode", "mode": "parked"}'
    for line in out.splitlines():
        json.loads(line)


def test_simulate_writes_log_to_file(corpus_dir: Path, tmp_path: Path, capsys) -> None:
    out_path = tmp_path / "log.jsonl"
    code = main(["simulate", "--scenario", str(corpus_dir / "crash_fall.jsonl"),
                 "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8").startswith('{"t_ms": 0, "type": "mode"')


def test_simulate_frees_each_stage_before_the_next(corpus_dir: Path, tmp_path: Path,
                                                  monkeypatch) -> None:
    # the scenario is gone before the log is rendered, and the log before the
    # text is written, so no two of them peak together
    refs, seen = {}, []

    def kept(name, fn):
        def call(*args):
            result = fn(*args)
            refs[name] = weakref.ref(result)
            return result
        return call

    def write(path, text):
        seen.append(("write", sorted(name for name, ref in refs.items() if ref() is not None)))

    def render(log):
        seen.append(("render", sorted(name for name, ref in refs.items() if ref() is not None)))
        return log_to_jsonl(log)

    monkeypatch.setattr(cli, "load_scenario", kept("scenario", load_scenario))
    monkeypatch.setattr(cli, "run", kept("log", run))
    monkeypatch.setattr(cli, "log_to_jsonl", render)
    monkeypatch.setattr(cli, "_write", write)
    assert main(["simulate", "--scenario", str(corpus_dir / "crash_fall.jsonl"),
                 "--out", str(tmp_path / "log.jsonl")]) == 0
    assert seen == [("render", ["log"]), ("write", [])]


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hard_link"])
def test_simulate_refuses_to_overwrite_its_scenario(spelling: str, corpus_dir: Path,
                                                    tmp_path: Path, capsys) -> None:
    scenario = tmp_path / "quiet_parked.jsonl"
    shutil.copy(corpus_dir / "quiet_parked.jsonl", scenario)
    before = scenario.read_bytes()
    out = {"same": scenario, "dotted": tmp_path / "." / scenario.name,
           "symlink": tmp_path / "link.jsonl", "hard_link": tmp_path / "hard.jsonl"}[spelling]
    if spelling == "symlink":
        out.symlink_to(scenario)
    elif spelling == "hard_link":
        os.link(scenario, out)
    # a missing --config shows that the refusal comes before anything is read
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out),
                 "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --out would overwrite the scenario file: {out}\n")
    assert scenario.read_bytes() == before


def test_simulate_overwrites_a_file_with_the_same_inode_on_another_device(
        corpus_dir: Path, tmp_path: Path, monkeypatch, capsys) -> None:
    # a file is its (device, inode) pair: inode numbers repeat across devices
    scenario = tmp_path / "quiet_parked.jsonl"
    shutil.copy(corpus_dir / "quiet_parked.jsonl", scenario)
    out = tmp_path / "log.jsonl"
    out.write_text("old\n", encoding="utf-8")
    real_stat = os.stat
    devices = {str(scenario): 1, str(out): 2}

    def stat(path, *args, **kwargs):
        st = real_stat(path, *args, **kwargs)
        if str(path) not in devices:
            return st
        fields = list(st[:10])
        fields[1:3] = [4242, devices[str(path)]]  # st_ino, st_dev
        return os.stat_result(fields)

    monkeypatch.setattr(os, "stat", stat)
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert capsys.readouterr() == ("", "")
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith('{"t_ms": 0, "type": "mode"')


def test_simulate_unwritable_out_is_io_error(corpus_dir: Path, tmp_path: Path,
                                             capsys) -> None:
    code = main(["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl"),
                 "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_simulate_missing_scenario_is_io_error(tmp_path: Path, capsys) -> None:
    missing = tmp_path / "nope.jsonl"
    code = main(["simulate", "--scenario", str(missing)])
    assert code == 3
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["scenario", "config"])
def test_simulate_missing_input_with_new_out_is_io_error(kind: str, corpus_dir: Path,
                                                         tmp_path: Path, capsys) -> None:
    # neither a missing input nor a new --out names a file, so the two are not the same
    (tmp_path / "c.cfg").write_text("speed_limit_kph = 80\n", encoding="utf-8")
    given = {"scenario": str(corpus_dir / "quiet_parked.jsonl"), "config": str(tmp_path / "c.cfg")}
    given[kind] = str(tmp_path / "absent")
    out = tmp_path / "out.jsonl"
    code = main(["simulate", "--scenario", given["scenario"], "--config", given["config"],
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: {kind} file not found: {given[kind]}\n")
    assert not out.exists()


def test_simulate_bad_schema_is_io_error(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "x"}\n{"t_ms": 1, "sensor": "sonar"}\n', encoding="utf-8")
    code = main(["simulate", "--scenario", str(bad)])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_simulate_unsorted_events_name_the_line(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "unsorted.jsonl"
    bad.write_text('{"name": "x"}\n{"t_ms": 100, "sensor": "pir", "detected": true}\n'
                   '{"t_ms": 50, "sensor": "pir", "detected": true}\n', encoding="utf-8")
    code = main(["simulate", "--scenario", str(bad)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: line 3: t_ms 50 is earlier than the event before it (100)\n")


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_non_string_sensor_tag_is_schema_error(command: str, tmp_path: Path, capsys) -> None:
    bad = tmp_path / "list_tag.jsonl"
    bad.write_text('{"name": "x"}\n{"t_ms": 1, "sensor": ["lidar"], "range_m": 1.0}\n',
                   encoding="utf-8")
    target = {"simulate": ["--scenario", str(bad)], "eval": ["--scenario-dir", str(tmp_path)]}
    code = main([command, *target[command]])
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad}: line 2: unknown sensor tag: ['lidar']\n"


# str.splitlines() also breaks at these; JSON allows the last three raw in a string
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY[-3:], ids=["x85", "u2028", "u2029"])
def test_simulate_splits_lines_only_at_lf(sep: str, tmp_path: Path, capsys) -> None:
    bad = tmp_path / "separator.jsonl"
    bad.write_text('{"name": "x", "description": "a' + sep + 'b"}\n'
                   '{"t_ms": 100, "sensor": "pir", "detected": true}\n'
                   '{"t_ms": 50, "sensor": "pir", "detected": true}\n', encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad)]) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: line 3: t_ms 50 is earlier than the event before it (100)\n")


HUGE = "1" + "0" * 400       # an int too large for a float


@pytest.mark.parametrize("lines,code,message", [
    (['{"name": "x"}', '{"t_ms": 1, "sensor": "lidar", "range_m": 1' + "0" * 4400 + "}"],
     3, "line 2: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    (['{"name": "x"}', "[" * 100_000], 3, "line 2: invalid JSON: maximum recursion depth exceeded"),
    (['{"name": "x"}', '{"t_ms": 1, "sensor": "lidar", "range_m": ' + HUGE + "}"],
     3, f"line 2: range_m must be >= 0: {HUGE}\n"),
    (['{"name": "x", "config": {"ttc_warn_s": ' + HUGE + "}}"],
     2, "error: bad config: x: ttc_warn_s: must be a finite number\n"),
], ids=["number_over_digit_limit", "deep_nesting", "huge_int_field", "huge_int_config"])
def test_oversize_numbers_and_nesting_are_reported(lines: list[str], code: int, message: str,
                                                   tmp_path: Path, capsys) -> None:
    bad = tmp_path / "oversize.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_simulate_bad_config_file_is_usage_error(corpus_dir: Path, tmp_path: Path,
                                                 capsys) -> None:
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed_limit_kph = -10\n", encoding="utf-8")
    code = main(["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl"),
                 "--config", str(cfg)])
    assert code == 2
    assert "bad config" in capsys.readouterr().err


def test_simulate_missing_config_file_is_io_error(corpus_dir: Path, tmp_path: Path,
                                                  capsys) -> None:
    code = main(["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl"),
                 "--config", str(tmp_path / "none.cfg")])
    assert code == 3


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
@pytest.mark.parametrize("flag", ["--scenario", "--config"])
def test_simulate_unreadable_input_is_io_error(flag: str, kind: str, corpus_dir: Path,
                                               tmp_path: Path, capsys) -> None:
    bad = write_unreadable(tmp_path, kind)
    argv = ["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl")]
    code = main(argv + [flag, str(bad)])          # a repeated flag keeps its last value
    assert code == 3
    assert f"cannot read {bad}" in capsys.readouterr().err


def test_simulate_honors_config_overrides(corpus_dir: Path, tmp_path: Path, capsys) -> None:
    # a permissive breath limit flips the lockout scenario's outcome
    cfg = tmp_path / "lenient.cfg"
    cfg.write_text("ethanol_lockout_ppm = 450\n", encoding="utf-8")
    main(["simulate", "--scenario", str(corpus_dir / "breath_lockout.jsonl")])
    strict_out = capsys.readouterr().out
    main(["simulate", "--scenario", str(corpus_dir / "breath_lockout.jsonl"),
          "--config", str(cfg)])
    lenient_out = capsys.readouterr().out
    assert "alcohol_lockout" in strict_out
    assert "alcohol_lockout" not in lenient_out


@pytest.mark.parametrize("sep", SPLITLINES_ONLY, ids=[f"{ord(c):x}" for c in SPLITLINES_ONLY])
def test_config_file_splits_lines_only_at_lf(sep: str, corpus_dir: Path, tmp_path: Path,
                                             capsys) -> None:
    # a comment keeps its separator, and CR LF line ends read as LF
    cfg = tmp_path / "note.cfg"
    scenario = str(corpus_dir / "breath_lockout.jsonl")
    cfg.write_bytes(f"# rider note{sep}second line of the note\r\n"
                    "ethanol_lockout_ppm = 450\r\n".encode())
    assert main(["simulate", "--scenario", scenario, "--config", str(cfg)]) == 0
    assert "alcohol_lockout" not in capsys.readouterr().out
    cfg.write_bytes(f"# rider note{sep}second line of the note\r\nbogus = 1\r\n".encode())
    assert main(["simulate", "--scenario", scenario, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad config: line 2: unknown key 'bogus'\n"


def test_config_file_with_a_byte_order_mark_is_named(corpus_dir: Path, tmp_path: Path,
                                                     capsys) -> None:
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes("\ufeffttc_warn_s = 2.5\n".encode())
    scenario = str(corpus_dir / "crash_fall.jsonl")
    assert main(["simulate", "--scenario", scenario, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad config: line 1: unexpected UTF-8 byte-order mark\n"


# --- eval ------------------------------------------------------------------

def test_eval_full_corpus_passes(corpus_dir: Path, tmp_path: Path, capsys) -> None:
    report = tmp_path / "report.txt"
    code = main(["eval", "--scenario-dir", str(corpus_dir), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    n = len(list(corpus_dir.glob("*.jsonl")))
    assert f"Successful 100% ({n} of {n})" in out
    assert "(no incidents)" in out
    assert report.read_text(encoding="utf-8") == out
    twin = json.loads(report.with_suffix(".json").read_text(encoding="utf-8"))
    assert twin["schema"] == "motoguard-eval-v1"
    assert twin["summary"]["failed"] == 0


def test_eval_reports_failures_with_exit_1(corpus_dir: Path, tmp_path: Path, capsys) -> None:
    work = tmp_path / "corpus"
    work.mkdir()
    for path in corpus_dir.glob("*.jsonl"):
        (work / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    write_failing_scenario(work)
    code = main(["eval", "--scenario-dir", str(work)])
    out = capsys.readouterr().out
    assert code == 1
    assert "zz_ghost_crash" in out
    assert "missed crash alert" in out
    assert "Severity 1" in out


@pytest.mark.parametrize("blocked", ["report.txt", "report.json"])
def test_eval_unwritable_report_names_the_file(blocked: str, corpus_dir: Path,
                                               tmp_path: Path, capsys) -> None:
    cases = tmp_path / "cases"
    cases.mkdir()
    shutil.copy(corpus_dir / "quiet_parked.jsonl", cases)
    (tmp_path / blocked).mkdir()
    report = tmp_path / "report.txt"
    code = main(["eval", "--scenario-dir", str(cases), "--report", str(report)])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.startswith(f"error: cannot write {tmp_path / blocked}: ")
    assert err.count("\n") == 1
    if blocked == "report.json":
        assert report.read_text(encoding="utf-8") == out


def test_eval_refuses_a_report_its_json_twin_would_overwrite(corpus_dir: Path,
                                                             tmp_path: Path, capsys) -> None:
    report = tmp_path / "r.json"
    code = main(["eval", "--scenario-dir", str(corpus_dir), "--report", str(report),
                 "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --report would be overwritten by its .json twin: {report}\n")
    assert list(tmp_path.iterdir()) == []


# argv ({c} the config file, {d} the scenario directory, {s} a scenario in it),
# then the refused flag, the kind of input it would overwrite and the path it names
OVERWRITES = {
    "simulate_out_config": (["simulate", "--scenario", "{s}", "--config", "{c}", "--out", "{c}"],
                            "--out", "config", "c.cfg"),
    "eval_report_scenario": (["eval", "--scenario-dir", "{d}", "--report", "{s}"],
                             "--report", "scenario", "d/quiet_parked.jsonl"),
    "eval_report_scenario_via_linked_dir": (["eval", "--scenario-dir", "dlink", "--report", "{s}"],
                                            "--report", "scenario", "d/quiet_parked.jsonl"),
    "eval_report_config": (["eval", "--scenario-dir", "{d}", "--config", "{c}", "--report", "{c}"],
                           "--report", "config", "c.cfg"),
    "eval_twin_config": (["eval", "--scenario-dir", "{d}", "--config", "c.json",
                          "--report", "c.txt"], "--report's .json twin", "config", "c.json"),
    "eval_twin_scenario": (["eval", "--scenario-dir", "{d}", "--report", "link.txt"],
                           "--report's .json twin", "scenario", "link.json"),
    "simulate_out_scenario_also_config": (["simulate", "--scenario", "{s}", "--config", "{s}",
                                           "--out", "{s}"], "--out", "scenario",
                                          "d/quiet_parked.jsonl"),
    "simulate_out_config_hard_link": (["simulate", "--scenario", "{s}", "--config", "{c}",
                                       "--out", "h.cfg"], "--out", "config", "h.cfg"),
    "eval_report_scenario_hard_link": (["eval", "--scenario-dir", "{d}", "--report", "h.txt"],
                                       "--report", "scenario", "h.txt"),
    "eval_twin_config_hard_link": (["eval", "--scenario-dir", "{d}", "--config", "{c}",
                                    "--report", "hc.txt"], "--report's .json twin", "config",
                                   "hc.json"),
}


@pytest.mark.parametrize("case", OVERWRITES)
def test_no_output_overwrites_an_input(case: str, corpus_dir: Path, tmp_path: Path,
                                       monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    shutil.copy(corpus_dir / "quiet_parked.jsonl", tmp_path / "d")
    for name in ("c.cfg", "c.json"):
        (tmp_path / name).write_text("speed_limit_kph = 80\n", encoding="utf-8")
    # a scenario the directory lists through a link whose target has a report twin's name
    shutil.copy(corpus_dir / "crash_fall.jsonl", tmp_path / "link.json")
    (tmp_path / "d" / "z_link.jsonl").symlink_to(tmp_path / "link.json")
    (tmp_path / "dlink").symlink_to(tmp_path / "d")
    # hard links: h.cfg and hc.json to the config, h.txt to a listed scenario
    os.link(tmp_path / "c.cfg", tmp_path / "h.cfg")
    os.link(tmp_path / "c.cfg", tmp_path / "hc.json")
    os.link(tmp_path / "d" / "quiet_parked.jsonl", tmp_path / "h.txt")
    argv, flag, kind, named = OVERWRITES[case]
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    code = main([arg.format(c="c.cfg", d="d", s="d/quiet_parked.jsonl") for arg in argv])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {flag} would overwrite the {kind} file: {named}\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("report", ["", "."])
def test_eval_nameless_report_path_is_io_error(report: str, corpus_dir: Path, tmp_path: Path,
                                               monkeypatch, capsys) -> None:
    # such a path has no .json twin; writing the report itself fails first
    monkeypatch.chdir(tmp_path)
    shutil.copy(corpus_dir / "quiet_parked.jsonl", tmp_path)
    assert main(["eval", "--scenario-dir", ".", "--report", report]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {report}: ")


@pytest.mark.parametrize("name", ["r.txt", "r", "r.jsonl", "r.json.txt"])
def test_eval_report_and_twin_are_both_written(name: str, corpus_dir: Path, tmp_path: Path,
                                               capsys) -> None:
    cases = tmp_path / "cases"
    cases.mkdir()
    shutil.copy(corpus_dir / "quiet_parked.jsonl", cases)
    report = tmp_path / name
    assert main(["eval", "--scenario-dir", str(cases), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert report.read_text(encoding="utf-8") == out
    twin = json.loads(report.with_suffix(".json").read_text(encoding="utf-8"))
    assert twin["cases"][0]["name"] == "quiet_parked"


def test_eval_empty_directory_is_usage_error(tmp_path: Path, capsys) -> None:
    code = main(["eval", "--scenario-dir", str(tmp_path)])
    assert code == 2
    assert "no scenario files" in capsys.readouterr().err


def test_eval_missing_directory_is_io_error(tmp_path: Path, capsys) -> None:
    code = main(["eval", "--scenario-dir", str(tmp_path / "absent")])
    assert code == 3


def test_eval_broken_scenario_is_io_error(tmp_path: Path, capsys) -> None:
    (tmp_path / "broken.jsonl").write_text("not json\n", encoding="utf-8")
    code = main(["eval", "--scenario-dir", str(tmp_path)])
    assert code == 3
    assert "broken.jsonl" in capsys.readouterr().err


def test_eval_bad_header_config_names_the_scenario(corpus_dir: Path, tmp_path: Path,
                                                   capsys) -> None:
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    path = work / "crash_fall.jsonl"
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    obj = json.loads(header)
    obj.setdefault("config", {})["ttc_warn_s"] = "x"
    path.write_text(json.dumps(obj) + "\n" + rest, encoding="utf-8")
    code = main(["eval", "--scenario-dir", str(work)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bad config: crash_fall: ttc_warn_s: must be a number\n")


def test_eval_bad_config_file_names_no_scenario(corpus_dir: Path, tmp_path: Path,
                                               capsys) -> None:
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed_limit_kph = -10\n", encoding="utf-8")
    code = main(["eval", "--scenario-dir", str(corpus_dir), "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == "error: bad config: speed_limit_kph: must be > 0\n"


def test_eval_header_breaking_a_cross_field_rule_names_the_scenario(
        corpus_dir: Path, tmp_path: Path, capsys) -> None:
    # the header sets only the limit, yet the breach is reported on the hysteresis
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    path = work / "crash_fall.jsonl"
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    obj = json.loads(header)
    obj.setdefault("config", {})["speed_limit_kph"] = 5.0
    path.write_text(json.dumps(obj) + "\n" + rest, encoding="utf-8")
    code = main(["eval", "--scenario-dir", str(work)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bad config: crash_fall: speed_hysteresis_kph: must be < speed_limit_kph\n")


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_eval_unreadable_scenario_is_io_error(kind: str, tmp_path: Path, capsys) -> None:
    bad = write_unreadable(tmp_path, kind)
    code = main(["eval", "--scenario-dir", str(tmp_path)])
    assert code == 3
    assert f"cannot read {bad}" in capsys.readouterr().err


# --- nmea ------------------------------------------------------------------

def test_nmea_line_ok(capsys) -> None:
    code = main(["nmea", "--line", GOOD_RMC])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("OK lat=48.117300 lon=11.516667 speed_kph=41.4848 ")
    assert "status=A" in out and "utc=123519" in out


def test_module_entry_point_runs_the_cli() -> None:
    package_parent = str(Path(motoguard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "motoguard.cli", "nmea", "--line", GOOD_RMC],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("OK lat=48.117300 lon=11.516667 ")


def test_nmea_line_rejected(capsys) -> None:
    code = main(["nmea", "--line", GOOD_RMC[:-2] + "00"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("REJECTED ChecksumMismatch:")


def test_nmea_file_mixed(tmp_path: Path, capsys) -> None:
    source = tmp_path / "mixed.nmea"
    source.write_text(GOOD_RMC + "\n\n$GPRMC,junk*00\n" + GOOD_RMC + "\n",
                      encoding="utf-8")
    code = main(["nmea", "--file", str(source)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[0] for line in lines] == ["OK", "REJECTED", "OK"]


def test_nmea_file_all_good(tmp_path: Path, capsys) -> None:
    source = tmp_path / "good.nmea"
    source.write_text(GOOD_RMC + "\n", encoding="utf-8")
    assert main(["nmea", "--file", str(source)]) == 0


def test_nmea_unreadable_file(tmp_path: Path, capsys) -> None:
    assert main(["nmea", "--file", str(tmp_path / "ghost.nmea")]) == 3


def test_nmea_file_errors_read_like_the_other_subcommands(tmp_path: Path, capsys) -> None:
    missing = tmp_path / "ghost.nmea"
    assert main(["nmea", "--file", str(missing)]) == 3
    assert capsys.readouterr().err == f"error: nmea file not found: {missing}\n"
    assert main(["nmea", "--file", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")


def test_nmea_corrupt_byte_rejects_only_its_sentence(tmp_path: Path, capsys) -> None:
    source = tmp_path / "corrupt.nmea"
    source.write_bytes(GOOD_RMC.encode("ascii") + b"\n$GPRMC,\xff*00\n"
                       + GOOD_RMC.encode("ascii") + b"\n")
    code = main(["nmea", "--file", str(source)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[0] for line in lines] == ["OK", "REJECTED", "OK"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY, ids=[f"{ord(c):x}" for c in SPLITLINES_ONLY])
def test_nmea_file_splits_sentences_only_at_lf(sep: str, tmp_path: Path, capsys) -> None:
    source = tmp_path / "separator.nmea"
    corrupt = GOOD_RMC[:-3] + sep + GOOD_RMC[-3:]  # just before the '*'
    source.write_text(f"{GOOD_RMC}\n{corrupt}\n{GOOD_RMC}\n", encoding="utf-8")
    assert main(["nmea", "--file", str(source)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["OK", "REJECTED", "OK"]
    assert lines[1] == f"REJECTED ParseError: invalid body character: {sep!r}"


def test_nmea_file_skips_only_space_tab_and_cr_lines(tmp_path: Path, capsys) -> None:
    # str.isspace() holds for every one of these, but only space, tab and CR
    # (a CR LF line end) make a line blank; the rest are rejected sentences
    not_blank = ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"]
    source = tmp_path / "spaces.nmea"
    source.write_text("\n".join([GOOD_RMC, " \t\r", *not_blank, "", GOOD_RMC]) + "\n",
                      encoding="utf-8")
    assert main(["nmea", "--file", str(source)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:-1] == ["REJECTED ParseError: sentence must start with '$'"] * len(not_blank)
    assert [lines[0].split()[0], lines[-1].split()[0]] == ["OK", "OK"]


# --- argparse plumbing -----------------------------------------------------

def test_usage_errors_exit_2(capsys) -> None:
    for argv in ([], ["simulate"], ["eval"], ["nmea"],
                 ["nmea", "--line", "x", "--file", "y"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def _usage_outcome(parse, argv: list[str], capsys) -> tuple:
    """The exit code, stdout and stderr of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as err:
        parse(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


def test_main_builds_the_parser_once_on_first_use(monkeypatch, capsys) -> None:
    built = []
    real = cli.build_parser

    def build():
        built.append(True)
        return real()

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_parser", None)
    for _ in range(3):
        assert main(["nmea", "--line", GOOD_RMC]) == 0
    assert built == [True]


def test_importing_the_cli_builds_no_parser() -> None:
    package_parent = str(Path(motoguard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c",
                           "import motoguard.cli as cli; assert cli._parser is None"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["eval"], ["simulate", "--scenario"],
                                  ["nmea", "--line", "x", "--file", "y"]])
def test_a_usage_error_after_a_command_reads_as_from_a_fresh_parser(argv: list[str],
                                                                   monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "_parser", None)
    first = _usage_outcome(main, argv, capsys)
    assert main(["nmea", "--line", GOOD_RMC]) == 0
    capsys.readouterr()
    assert first[0] == 2 and first[2].startswith("usage: motoguard")
    assert _usage_outcome(main, argv, capsys) == first
    assert _usage_outcome(cli.build_parser().parse_args, argv, capsys) == first


@pytest.mark.parametrize("command", [None, "simulate", "eval", "nmea"])
def test_help_reads_as_from_a_fresh_parser(command: str | None, capsys) -> None:
    argv = ([command] if command else []) + ["--help"]
    assert main(["nmea", "--line", GOOD_RMC]) == 0
    capsys.readouterr()
    outcome = _usage_outcome(main, argv, capsys)
    assert outcome[0] == 0 and outcome[1].startswith("usage: motoguard") and outcome[2] == ""
    assert _usage_outcome(cli.build_parser().parse_args, argv, capsys) == outcome
    if command is None:
        assert outcome[1] == cli.build_parser().format_help()


def test_consecutive_commands_each_reach_their_own_handler(corpus_dir: Path, capsys) -> None:
    golden = Path(__file__).parent / "golden"
    assert main(["nmea", "--line", GOOD_RMC]) == 0
    assert capsys.readouterr().out.startswith("OK lat=48.117300 ")
    assert main(["simulate", "--scenario", str(corpus_dir / "quiet_parked.jsonl")]) == 0
    assert capsys.readouterr().out == (golden / "quiet_parked.log.jsonl").read_text(encoding="utf-8")
    assert main(["eval", "--scenario-dir", str(corpus_dir)]) == 0
    assert capsys.readouterr().out == (golden / "corpus_report.txt").read_text(encoding="utf-8")
    assert main(["nmea", "--line", "x"]) == 1
    assert capsys.readouterr().out.startswith("REJECTED ")


# --- the cyclic collector --------------------------------------------------

@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("case", ["returns", "exit_error", "usage_error", "raises"])
def test_main_hands_the_collector_back_as_it_found_it(case: str, caller_enabled: bool,
                                                      corpus_dir: Path, tmp_path: Path,
                                                      monkeypatch, capsys) -> None:
    seen = []
    real = cli.cmd_simulate

    def command(args):
        seen.append(gc.isenabled())
        if case == "raises":
            raise RuntimeError("escaped the command")
        return real(args)

    monkeypatch.setattr(cli, "cmd_simulate", command)
    scenario = corpus_dir / "crash_fall.jsonl"
    if case == "exit_error":
        scenario = tmp_path / "absent.jsonl"
    argv = ["bogus"] if case == "usage_error" else ["simulate", "--scenario", str(scenario)]
    was_enabled = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        if case == "usage_error":
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        elif case == "raises":
            with pytest.raises(RuntimeError, match="escaped the command"):
                main(argv)
        else:
            assert main(argv) == {"returns": 0, "exit_error": 3}[case]
        assert gc.isenabled() is caller_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([] if case == "usage_error" else [False])


def test_replay_and_decode_make_no_reference_cycles(corpus_dir: Path) -> None:
    # cli.main pauses the collector for a whole command because of this: a
    # cycle kept in replay state would hold its memory until the command ends
    sentences = (Path(__file__).parent / "golden" / "nmea_sentences.txt").read_text(
        encoding="utf-8").split("\n")
    paths = sorted(corpus_dir.glob("*.jsonl"))
    assert len(paths) == 22
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for path in paths:
            scenario = load_scenario(path)
            log = run(scenario)
            log_to_jsonl(log)
            match_alerts(log, scenario.expected)
        for line in sentences:
            try:
                nmea.to_gps_fix(nmea.parse_rmc(line))
            except nmea.ParseError:
                pass
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("command", ["simulate", "eval", "nmea_line", "nmea_file",
                                     "missing_scenario"])
def test_a_repeated_command_leaves_no_cyclic_garbage(command: str, corpus_dir: Path,
                                                     tmp_path: Path, capsys) -> None:
    # the whole command, not only the replay: parsing, reading, reporting,
    # writing, and reporting an error
    argv, code = {
        "simulate": (["simulate", "--scenario", str(corpus_dir / "crash_fall.jsonl"),
                      "--out", str(tmp_path / "log.jsonl")], 0),
        "eval": (["eval", "--scenario-dir", str(corpus_dir),
                  "--report", str(tmp_path / "report.txt")], 0),
        "nmea_line": (["nmea", "--line", GOOD_RMC], 0),
        "nmea_file": (["nmea", "--file",
                       str(Path(__file__).parent / "golden" / "nmea_sentences.txt")], 1),
        "missing_scenario": (["simulate", "--scenario", str(tmp_path / "absent.jsonl")], 3),
    }[command]
    assert main(argv) == code  # the first call builds the parser that later calls reuse
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        second = main(argv)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert (second, unreachable) == (code, 0)
