"""motoguard benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload ride_dense --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It generates the workload's inputs
from the seed, then starts one worker process that times and checks passes
of the workload and measures set-up time (see worker.py).
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separately traced run. The last
line of standard output is the result object; the line before it records
the environment. Generated inputs, logs, spans and result records go to
.perfbench_work/. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen

WORKLOADS = ("ride_dense", "alert_storm", "parked_nmea", "corpus_eval")
WORK_DIR = ".perfbench_work"
CORPUS_CASES = 22
CORPUS_REPEATS = 20
TIME_LIMIT_S = 170        # the whole run, input generation included
HERE = Path(__file__).resolve().parent


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
    except OSError:
        return None
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    try:
        return (root / ".git" / ref).read_text(encoding="ascii").strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def corpus_manifest(root: Path) -> dict:
    paths = sorted((root / "scenarios").glob("*.jsonl"))
    events = 0
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(data)
        events += sum(1 for line in data.splitlines() if line.strip()) - 1
    return {"files": [], "events": events, "cases": CORPUS_CASES, "repeats": CORPUS_REPEATS,
            "input_bytes": sum(p.stat().st_size for p in paths),
            "input_sha256": digest.hexdigest()}


def prepare(workload: str, seed: int, root: Path, work: Path, committed: dict,
            size: int | None = None) -> dict:
    """Write the workload's inputs and the manifest the worker reads."""
    if workload == "corpus_eval":
        manifest = corpus_manifest(root)
    else:
        inputs = gen.generate(workload, seed, size)
        digest = hashlib.sha256()
        for name, data in inputs.files.items():
            (work / name).write_bytes(data)
            digest.update(data)
        manifest = {"files": list(inputs.files), "events": inputs.events,
                    "alerts": inputs.alerts, "mode_changes": inputs.mode_changes,
                    "planted": inputs.planted,
                    "input_bytes": sum(len(d) for d in inputs.files.values()),
                    "input_sha256": digest.hexdigest()}
        if seed == committed["seed"]:
            manifest["log_sha256"] = committed["logs"][workload]
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest


def environment(root: Path, args, manifest: dict) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(root),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "input_events": manifest["events"],
            "input_bytes": manifest["input_bytes"], "input_sha256": manifest["input_sha256"]}


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    root = Path.cwd()
    if not (root / "src" / "motoguard" / "cli.py").is_file():
        print("error: run from the repository root; src/motoguard is missing", file=sys.stderr)
        return 2
    if args.workload == "corpus_eval" and not (root / "scenarios").is_dir():
        print("error: scenarios/ is missing", file=sys.stderr)
        return 2

    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    committed = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    manifest = prepare(args.workload, args.seed, root, work, committed)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    problems: list[str] = []
    if args.seed == committed["seed"] and \
            manifest["input_sha256"] != committed["inputs"][args.workload]:
        problems.append("generated inputs differ from the committed digest")
    budget = TIME_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(manifest_path),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=root, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    problems += report["problems"]
    metrics = report["metrics"]

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    result = {"correct": not problems and report["failed"] == 0,
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    env = environment(root, args, manifest)
    record = root / WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "problems": problems, "raw": report["raw"],
                                  "result": result},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
