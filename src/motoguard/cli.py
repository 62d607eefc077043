"""Command-line front end: replay scenarios, score a corpus, decode sentences.

Exit codes: 0 success (eval: all cases passed), 1 failures present,
2 usage or configuration error, 3 unreadable input or schema error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import nmea
from .core import (ContractViolation, ConfigError, DEFAULT_CONFIG, ValidationError,
                   load_config_file)
from .harness import (BLANK, SchemaError, evaluate_scenarios, line_chunks, load_scenario,
                      log_to_jsonl, render_report, report_json, report_json_text, run)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _Exit(Exception):
    """An error already reported on stderr; main returns its exit code."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _guarded(source: str, path, fn, *args):
    """Return fn(*args); report any config, input or contract error and raise _Exit."""
    try:
        return fn(*args)
    except FileNotFoundError:
        message, code = f"{source} file not found: {path}", EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:
        message, code = f"cannot read {path}: {exc}", EXIT_IO
    except (ConfigError, ValidationError) as exc:
        message, code = f"bad config: {exc}", EXIT_USAGE
    except SchemaError as exc:
        message, code = f"{path}: {exc}", EXIT_IO
    except ContractViolation as exc:
        message, code = str(exc), EXIT_IO
    print(f"error: {message}", file=sys.stderr)
    raise _Exit(code)


def _write(path, text: str) -> None:
    """Write text to path as UTF-8; report a failure naming path and raise _Exit."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise _Exit(EXIT_IO)


def _file_id(path):
    """The (device, inode) of the file path names, through any links; None if
    path cannot be stat'ed, since then it names no file to read or overwrite."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _refuse_overwrite(outputs, scenarios, config) -> None:
    """Report the first (flag, path) output that is the same file as one of the
    scenario paths or the config path (None if none), and raise _Exit."""
    inputs = {_file_id(path): "scenario" for path in scenarios}
    if config is not None:
        inputs.setdefault(_file_id(config), "config")
    inputs.pop(None, None)
    for flag, out in outputs:
        kind = inputs.get(_file_id(out))
        if kind is not None:
            print(f"error: {flag} would overwrite the {kind} file: {out}", file=sys.stderr)
            raise _Exit(EXIT_USAGE)


def _load_base_config(path: str | None):
    if path is None:
        return DEFAULT_CONFIG
    return _guarded("config", path, load_config_file, path)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.out is not None:
        _refuse_overwrite([("--out", args.out)], [args.scenario], args.config)
    base = _load_base_config(args.config)
    scenario = _guarded("scenario", args.scenario, load_scenario, args.scenario)
    log = _guarded("scenario", args.scenario, run, scenario, base)
    del scenario  # each stage frees what it consumed before the next one allocates
    text = log_to_jsonl(log)
    del log
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.report is not None and Path(args.report).suffix == ".json":
        print(f"error: --report would be overwritten by its .json twin: {args.report}",
              file=sys.stderr)
        return EXIT_USAGE
    base = _load_base_config(args.config)
    directory = Path(args.scenario_dir)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return EXIT_IO
    paths = sorted(directory.glob("*.jsonl"))
    if not paths:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return EXIT_USAGE
    if args.report is not None:
        outputs = [("--report", args.report)]
        if Path(args.report).name:  # "", "." and "/" have no twin; writing them fails first
            outputs.append(("--report's .json twin", Path(args.report).with_suffix(".json")))
        _refuse_overwrite(outputs, paths, args.config)
    scenarios = [_guarded("scenario", path, load_scenario, path) for path in paths]
    results = _guarded("scenario", directory, evaluate_scenarios, scenarios, base)
    text = render_report(results)
    sys.stdout.write(text)
    if args.report is not None:
        _write(args.report, text)
        _write(Path(args.report).with_suffix(".json"), report_json_text(report_json(results)))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURES


def _print_parsed(line: str) -> bool:
    try:
        rmc = nmea.parse_rmc(line)
    except nmea.ParseError as exc:
        print(f"REJECTED {type(exc).__name__}: {exc}")
        return False
    fix = nmea.to_gps_fix(rmc)
    print(f"OK lat={rmc.point.lat_deg:.6f} lon={rmc.point.lon_deg:.6f} "
          f"speed_kph={fix.speed_kph:.4f} status={rmc.status} "
          f"utc={rmc.utc_time} date={rmc.date} course={rmc.course_deg:.1f}")
    return True


def cmd_nmea(args: argparse.Namespace) -> int:
    if args.line is not None:
        return EXIT_OK if _print_parsed(args.line) else EXIT_FAILURES
    text = _guarded("nmea", args.file, Path(args.file).read_text, "utf-8", "replace")
    ok = True
    for lines in line_chunks(text):  # not splitlines(): a stray \x1c is a bad body character
        for raw in lines:
            if raw.strip(BLANK):
                ok = _print_parsed(raw) and ok
    return EXIT_OK if ok else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motoguard",
        description="Replay recorded rides against the safety controller.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replay one scenario, emit the event log")
    p_sim.add_argument("--scenario", required=True, help="scenario .jsonl file")
    p_sim.add_argument("--config", help="key=value config file")
    p_sim.add_argument("--out", help="write the log here instead of stdout")

    p_eval = sub.add_parser("eval", help="run a scenario corpus and score it")
    p_eval.add_argument("--scenario-dir", required=True, help="directory of .jsonl scenarios")
    p_eval.add_argument("--config", help="key=value config file")
    p_eval.add_argument("--report", help="also write the text report (and .json twin) here")

    p_nmea = sub.add_parser("nmea", help="parse RMC sentences")
    src = p_nmea.add_mutually_exclusive_group(required=True)
    src.add_argument("--line", help="one sentence")
    src.add_argument("--file", help="file of sentences, one per line")
    return parser


_parser: argparse.ArgumentParser | None = None  # main builds it once, on first use


def main(argv: list[str] | None = None) -> int:
    # A command makes no reference cycles (tests/test_cli.py pins this), so a
    # collection would only traverse live events: pause the collector for the
    # command and hand it back as found. Reference counting still frees at once.
    global _parser
    enabled = gc.isenabled()
    gc.disable()
    try:
        if _parser is None:  # not at import: a command that never runs pays nothing
            _parser = build_parser()
        args = _parser.parse_args(argv)
        # looked up per call, so a cmd_<name> replaced on the module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except _Exit as exc:
        return exc.code
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
