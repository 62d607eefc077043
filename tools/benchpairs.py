"""Before/after pairs of the benchmark, written to a committed BENCH_<head7>.json.

    python3 tools/benchpairs.py BASE HEAD --workload ride_dense --pairs 10 --seed 1

Run it from the root of a git checkout; it uses the standard library only.
It exports both revisions with ``git archive`` into
``.perfbench_work/pairs/<rev7>/``, byte-compiles each export the same way,
and runs each side's own ``perfbench/run.py --trace 0`` once per pair, base
first in even pairs and head first in odd ones, for the ``run_seconds`` of
the base's BENCHMARK.json. A result that is not ``correct`` stops the
command and writes nothing. The workload's entry in ``BENCH_<head7>.json``
at the root holds the seed, Python version and CPU count of its runs and,
per end-to-end metric, each side's median, quartiles and pairs won, and the
claim verdict. A run replaces its workload's entry and keeps the others.

The claim rule: at least ten pairs, head wins at least nine tenths of them,
and its median is better than the base's by more than the base's q1-q3
spread. Quartiles are statistics.quantiles' default (exclusive) method.
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
MIN_PAIRS = 10


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3}


def wins(mine: list[float], other: list[float], better: str) -> int:
    """Pairs in which mine beat other; a tie is won by neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for a, b in zip(mine, other) if sign * (a - b) > 0)


def claim(base: list[float], head: list[float], better: str) -> dict:
    """The claim rule on one metric's paired values (pair i is base[i], head[i])."""
    base_s, head_s = summary(base), summary(head)
    sign = 1 if better == "higher" else -1
    gain = sign * (head_s["median"] - base_s["median"])
    head_wins = wins(head, base, better)
    holds = (len(base) >= MIN_PAIRS and head_wins >= math.ceil(0.9 * len(base))
             and gain > base_s["q3"] - base_s["q1"])
    return {"better": better, "base": {**base_s, "won": wins(base, head, better)},
            "head": {**head_s, "won": head_wins},
            "change": (head_s["median"] - base_s["median"]) / base_s["median"],
            "iqr_base": base_s["q3"] - base_s["q1"], "claim": holds}


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
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=out, check=True)
    return out


def src_lines(tree: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((tree / "src" / "motoguard").glob("*.py")))


def run_once(tree: Path, workload: str, seconds: int, seed: int) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {tree}: run.py exited with {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"error: {tree}: result not correct: {done.stderr.strip()}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    base, head = git("rev-parse", args.base), git("rev-parse", args.head)
    trees = {"base": export(base), "head": export(head)}
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {side: {name: [] for name in metrics}
                                                 for side in trees}
    for i in range(args.pairs):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result = run_once(trees[side], args.workload, seconds, args.seed)
            for name in metrics:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} {values['base'][name][-1]:g} -> {values['head'][name][-1]:g}"
            for name in metrics), flush=True)

    path = Path(f"BENCH_{head[:7]}.json")
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    if doc.get("base") != base:
        doc = {}
    doc.update(base=base, head=head,
               src_lines={side: src_lines(tree) for side, tree in trees.items()})
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seconds": seconds, "seed": args.seed,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "order": "base first in even pairs, head first in odd ones",
        "metrics": {name: {**claim(values["base"][name], values["head"][name], better),
                           "values": {side: values[side][name] for side in trees}}
                    for name, better in metrics.items()}}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
