"""Run every mutant in mutants.json against all of tier-1 and write MUTANTS.json.

Each row of mutants.json names a file, an exact old text that occurs once in
it, the new text that replaces it, and the reason the mutant is worth
killing. The runner copies the files tier-1 reads into a fresh directory,
runs tier-1 on the unmutated copy, then on one copy per mutant, one pytest
at a time and without -x, so that every test a mutant fails is recorded:

    python mutants/run.py

A mutant is killed when tier-1 fails on its copy. The list is refused, and
nothing is written, if an old text does not occur exactly once in its file
or two old texts in one file overlap. A copy's mutants.json holds every row
but the one applied, so tier-1's check of the list passes on it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ROOT / "mutants" / "mutants.json"
RESULTS = ROOT / "mutants" / "MUTANTS.json"
WORK = ROOT / ".mutants_work"
COPIED = ("src", "tests", "scenarios", "tools", "mutants/run.py", "README.md", "pyproject.toml")
PYTEST = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "-rfE")
# a mutant that loops for ever is killed when its run takes this many times
# the unmutated run's wall time
TIMEOUT_FACTOR = 10


def load_rows() -> list[dict]:
    return json.loads(ROWS.read_text(encoding="utf-8"))


def row_problems(root: Path, rows: list[dict]) -> list[str]:
    """Why rows cannot be applied to the tree at root: an old text that does
    not occur exactly once in its file, or two in one file that overlap."""
    problems, spans = [], {}
    for i, row in enumerate(rows):
        text = (root / row["file"]).read_text(encoding="utf-8")
        count = text.count(row["old"])
        if count != 1:
            problems.append(f"row {i}: old text occurs {count} times in {row['file']}")
            continue
        start = text.index(row["old"])
        spans.setdefault(row["file"], []).append((start, start + len(row["old"]), i))
    for found in spans.values():
        found.sort()
        for (_, end, i), (start, _, j) in zip(found, found[1:]):
            if start < end:
                problems.append(f"rows {i} and {j} overlap in their file")
    return problems


def fresh_copy(rows: list[dict], mutant: dict | None) -> None:
    """WORK holds the files tier-1 reads, mutant applied, and every row but mutant's."""
    shutil.rmtree(WORK, ignore_errors=True)
    for name in COPIED:
        source, target = ROOT / name, WORK / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if source.is_dir():
            shutil.copytree(source, target,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copyfile(source, target)
    kept = [row for row in rows if row is not mutant]
    (WORK / "mutants" / "mutants.json").write_text(json.dumps(kept, indent=1) + "\n",
                                                   encoding="utf-8")
    if mutant is not None:
        path = WORK / mutant["file"]
        path.write_text(path.read_text(encoding="utf-8").replace(mutant["old"], mutant["new"]),
                        encoding="utf-8")


def failing_ids(output: str) -> list[str]:
    """The test ids of -rfE's FAILED and ERROR summary lines, in order."""
    ids = []
    for line in output.splitlines():
        verdict, _, rest = line.partition(" ")
        if verdict in ("FAILED", "ERROR") and rest:
            ids.append(rest.split(" - ", 1)[0])
    return ids


def tier1(timeout_s: float | None) -> tuple[int, list[str], float]:
    """Tier-1 on WORK: pytest's exit code, its failing ids and the wall time."""
    env = {**os.environ, "PYTHONPATH": str(WORK / "src")}
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=WORK, env=env,
                              capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return -1, [f"timeout after {timeout_s:.0f} s"], time.perf_counter() - started
    ids = failing_ids(done.stdout)
    if done.returncode and not ids:
        ids = [f"pytest exit {done.returncode}: {done.stdout.strip()[-300:]}"]
    return done.returncode, ids, time.perf_counter() - started


def main() -> int:
    rows = load_rows()
    if problems := row_problems(ROOT, rows):
        print("\n".join(problems), file=sys.stderr)
        return 2
    fresh_copy(rows, None)
    code, ids, base_s = tier1(None)
    if code:
        print(f"the unmutated copy fails tier-1: {ids}", file=sys.stderr)
        return 1
    print(f"unmutated: passed in {base_s:.1f} s", flush=True)
    results = []
    for i, row in enumerate(rows):
        fresh_copy(rows, row)
        code, ids, seconds = tier1(base_s * TIMEOUT_FACTOR)
        status = "killed" if code else "survived"
        print(f"{i:3d} {status:8s} {len(ids):4d} failing {seconds:6.1f} s  {row['reason']}",
              flush=True)
        results.append({"file": row["file"], "reason": row["reason"], "status": status,
                        "failing": ids, "seconds": round(seconds, 1)})
    shutil.rmtree(WORK, ignore_errors=True)
    killed = sum(r["status"] == "killed" for r in results)
    RESULTS.write_text(json.dumps({
        "python": platform.python_version(), "unmutated_seconds": round(base_s, 1),
        "mutants": len(results), "killed": killed, "results": results,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{killed} of {len(results)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
