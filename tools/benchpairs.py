"""Before/after pairs of the benchmark, written to a committed BENCH_<head7>.json.

    python3 tools/benchpairs.py BASE HEAD --workload ride_dense --pairs 10 --seed 1

Run it from the root of a git checkout; it uses the standard library only.
It exports both revisions with ``git archive`` into
``.perfbench_work/pairs/<rev7>/``, byte-compiles each export the same way,
and runs each side's own ``perfbench/run.py --trace 0`` once per pair, base
first in even pairs and head first in odd ones, for the ``run_seconds`` of
the base's BENCHMARK.json. A result that is not ``correct`` stops the
command and writes nothing. The entry in ``BENCH_<head7>.json`` at the root,
keyed ``<workload>-seed<seed>``, holds the Python version and CPU count of
its runs and, per end-to-end metric, each side's median, quartiles and pairs
won, and the claim verdict. Beside them it keeps each run's unscaled figures
from ``.perfbench_work/results/`` (the rate and setup time before scaling,
and the median time of the reference loop that scales them), with each
side's median and quartiles, so that a verdict shows whether the program
moved or the reference loop did. A run replaces its own entry and keeps the
others.

The claim rule: at least ten pairs, head wins at least nine tenths of them,
and its median is better than the base's by more than the base's q1-q3
spread. The deletion rule, recorded as loss_inside_iqr: the head's median is
no worse than the base's by more than that spread, so a speed path whose
removal reads so is not paying for its lines. Quartiles are
statistics.quantiles' default (exclusive) method.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

WORK_DIR = Path(".perfbench_work") / "pairs"
RESULTS = Path(".perfbench_work") / "results"
MIN_PAIRS = 10
UNSCALED = ("events_per_s_unscaled", "setup_s_unscaled", "reference_s")


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3}


def wins(mine: list[float], other: list[float], better: str) -> int:
    """Pairs in which mine beat other; a tie is won by neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for a, b in zip(mine, other) if sign * (a - b) > 0)


def sides(base: list[float], head: list[float]) -> dict:
    """One figure's paired values, each side's summary and the relative change
    of the median."""
    base_s, head_s = summary(base), summary(head)
    return {"base": base_s, "head": head_s, "values": {"base": base, "head": head},
            "change": (head_s["median"] - base_s["median"]) / base_s["median"]}


def claim(base: list[float], head: list[float], better: str) -> dict:
    """The claim rule on one metric's paired values (pair i is base[i], head[i])."""
    verdict = sides(base, head)
    base_s, head_s = verdict["base"], verdict["head"]
    sign = 1 if better == "higher" else -1
    gain = sign * (head_s["median"] - base_s["median"])
    base_s["won"], head_s["won"] = wins(base, head, better), wins(head, base, better)
    iqr = base_s["q3"] - base_s["q1"]
    holds = (len(base) >= MIN_PAIRS and head_s["won"] >= math.ceil(0.9 * len(base))
             and gain > iqr)
    return {"better": better, **verdict, "iqr_base": iqr, "claim": holds,
            "loss_inside_iqr": -gain <= iqr}


def store(doc: dict, base: str, workload: str, seed: int, entry: dict) -> dict:
    """doc with entry under its workload and seed; a doc of another base is
    dropped, since its pairs measured something else."""
    if doc.get("base") != base:
        doc = {"base": base}
    doc.setdefault("workloads", {})[f"{workload}-seed{seed}"] = entry
    return doc


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> Path:
    """rev's committed files in a fresh directory, byte-compiled."""
    out = WORK_DIR / rev[:7]
    if not out.is_dir():
        out.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    # on every call: a kept export that lost its bytecode would compile in each
    # run, and read slower setup_s than a side that has it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=out, check=True)
    return out


def src_lines(tree: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((tree / "src" / "motoguard").glob("*.py")))


def run_once(tree: Path, workload: str, seconds: int, seed: int) -> dict:
    """The run's end-to-end metrics and its UNSCALED figures, by name."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {tree}: run.py exited with {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"error: {tree}: result not correct: {done.stderr.strip()}")
    record = tree / RESULTS / f"{workload}-seed{seed}-trace0.json"
    raw = json.loads(record.read_text(encoding="utf-8"))["raw"]
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "events_per_s_unscaled": raw["events_per_s_unscaled"],
        "setup_s_unscaled": raw["setup_s_unscaled"], "reference_s": median(raw["reference_s"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # the quartiles of one run are undefined
        parser.error("--pairs must be at least 2")
    base, head = git("rev-parse", args.base), git("rev-parse", args.head)
    trees = {"base": export(base), "head": export(head)}
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {
        side: {name: [] for name in (*metrics, *UNSCALED)} for side in trees}
    for i in range(args.pairs):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            figures = run_once(trees[side], args.workload, seconds, args.seed)
            for name, series in values[side].items():
                series.append(figures[name])
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} {values['base'][name][-1]:g} -> {values['head'][name][-1]:g}"
            for name in (*metrics, "reference_s")), flush=True)

    entry = {
        "pairs": args.pairs, "seconds": seconds, "seed": args.seed,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "order": "base first in even pairs, head first in odd ones",
        "metrics": {name: claim(values["base"][name], values["head"][name], better)
                    for name, better in metrics.items()},
        "unscaled": {name: sides(values["base"][name], values["head"][name])
                     for name in UNSCALED}}
    path = Path(f"BENCH_{head[:7]}.json")
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    doc = store(doc, base, args.workload, args.seed, entry)
    doc.update(head=head,
               src_lines={side: src_lines(tree) for side, tree in trees.items()})
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
