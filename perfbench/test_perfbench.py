"""Checks on the benchmark itself: inputs, planted labels and workload design.

    python3 -m pytest perfbench -q

Runs on small inputs. The design tests trace a few passes of each workload
and assert, from exact counts, that each workload loads the layer it was
built for and little else.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
import run
import worker

ROOT = Path(__file__).resolve().parent.parent
SMALL = {"ride_dense": 60_000, "alert_storm": 20_000, "parked_nmea": 3_700}

worker.load_program(ROOT)
from motoguard import core, harness, nmea  # noqa: E402  (imported from ROOT/src above)


def _replay(inputs: gen.Inputs, name: str):
    sc = harness.loads_scenario(inputs.files[f"{name}.jsonl"].decode("ascii"))
    if name == "parked_nmea":
        for i, line in enumerate(inputs.files["parked_nmea.nmea"].decode("ascii").splitlines()):
            try:
                rmc = nmea.parse_rmc(line)
            except nmea.ParseError:
                continue
            sc.events.append(core.SensorEvent(i * 1000, nmea.to_gps_fix(rmc)))
    return sc, harness.run(sc)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_bytes(name):
    assert gen.generate(name, 7, SMALL[name]).files == gen.generate(name, 7, SMALL[name]).files
    assert gen.generate(name, 7, SMALL[name]).files != gen.generate(name, 8, SMALL[name]).files


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_controller_raises_exactly_the_planted_alerts(name, seed):
    inputs = gen.generate(name, seed, SMALL[name])
    sc, log = _replay(inputs, name)
    assert sorted((a.kind.value, a.t_ms) for a in log.alerts()) == sorted(inputs.alerts)
    cm = harness.match_alerts(log, sc.expected)
    assert (cm.fp, cm.fn) == (0, 0)
    assert cm.tp == len(inputs.alerts)


def test_parked_nmea_plants_rejections_and_hourly_beacons():
    inputs = gen.generate("parked_nmea", 4, 7_300)
    lines = inputs.files["parked_nmea.nmea"].decode("ascii").splitlines()
    rejected = 0
    for line in lines:
        try:
            nmea.parse_rmc(line)
        except nmea.ChecksumMismatch:
            rejected += 1
    assert rejected == inputs.planted["bad_checksum"] == 73
    assert sum(",V," in line for line in lines) == inputs.planted["status_void"]
    assert [kind for kind, _ in inputs.alerts].count("beacon") == inputs.planted["beacon_hours"] == 2


def test_default_seed_matches_committed_digests(tmp_path):
    committed = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    for name in run.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        manifest = run.prepare(name, committed["seed"], ROOT, work, committed)
        assert manifest["input_sha256"] == committed["inputs"][name], name


def _traced(name: str, tmp_path: Path):
    work = tmp_path / name
    work.mkdir()
    manifest = run.prepare(name, 5, ROOT, work, {"seed": None}, SMALL.get(name))
    p = worker.make_pass(name, work, manifest, ROOT)
    runs = worker.Runs()
    metrics = worker.traced(p, name, 0.05, runs, manifest, work / "spans.tsv")
    assert runs.failed == 0, runs.problems
    assert runs.problems == []
    return metrics


@pytest.fixture(scope="module")
def traced_metrics(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    return {name: _traced(name, base) for name in run.WORKLOADS}


def test_traced_run_reports_every_per_layer_metric(traced_metrics):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for metrics in traced_metrics.values():
        assert set(metrics) == names


def test_drains_are_idle_on_ride_dense_and_useful_on_alert_storm(traced_metrics):
    assert traced_metrics["ride_dense"]["controller.drain_sms.useful_ratio"] < 0.01
    assert traced_metrics["alert_storm"]["controller.drain_sms.useful_ratio"] > 0.9


def test_only_parked_nmea_reaches_the_nmea_parser(traced_metrics):
    for name, metrics in traced_metrics.items():
        if name == "parked_nmea":
            assert metrics["nmea.parse_rmc.calls"] == SMALL["parked_nmea"]
        else:
            assert metrics["nmea.parse_rmc.calls"] == 0, name


def test_parked_nmea_beacons_and_rejections(traced_metrics):
    metrics = traced_metrics["parked_nmea"]
    assert metrics["detectors.alerts.beacon"] == 1          # 3700 s armed: one whole hour
    assert metrics["nmea.parse_rmc.rejected"] == SMALL["parked_nmea"] // 100


def test_corpus_eval_replays_the_22_cases(traced_metrics):
    metrics = traced_metrics["corpus_eval"]
    assert metrics["gsm.modem_init.calls"] == 22 * run.CORPUS_REPEATS
    assert metrics["harness.evaluate_scenarios.busy_s"] > 0
