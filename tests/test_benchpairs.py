"""The claim rule, unscaled figures and entry keys of tools/benchpairs.py, on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import benchpairs  # noqa: E402
from benchpairs import claim, run_once, sides, store, summary, wins  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4]


def test_summary_is_the_median_and_the_exclusive_quartiles() -> None:
    assert summary([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.25, "q3": 3.75}


def test_a_gain_in_every_pair_beyond_the_base_spread_is_a_claim() -> None:
    verdict = claim(BASE, [v + 5.0 for v in BASE], "higher")
    assert verdict["claim"] and verdict["head"]["won"] == 10 and verdict["base"]["won"] == 0
    assert verdict["loss_inside_iqr"]  # a gain is no loss
    assert round(verdict["change"], 4) == round(5.0 / 100.15, 4)


def test_nine_of_ten_pairs_is_enough_and_eight_is_not() -> None:
    head = [v + 5.0 for v in BASE]
    head[0] = BASE[0] - 1.0
    assert claim(BASE, head, "higher")["claim"]
    head[1] = BASE[1]  # a tie is won by neither side
    assert wins(head, BASE, "higher") == 8 and not claim(BASE, head, "higher")["claim"]


def test_fewer_than_ten_pairs_is_no_claim_whatever_they_read() -> None:
    verdict = claim(BASE[:9], [v + 5.0 for v in BASE[:9]], "higher")
    assert verdict["head"]["won"] == 9 and not verdict["claim"]


def test_a_gain_inside_the_base_spread_is_no_claim() -> None:
    verdict = claim(BASE, [v + 0.1 for v in BASE], "higher")
    assert verdict["head"]["won"] == 10
    assert verdict["iqr_base"] > 0.1 and not verdict["claim"]


def test_lower_is_better_turns_the_rule_round() -> None:
    assert claim(BASE, [v - 5.0 for v in BASE], "lower")["claim"]
    assert not claim(BASE, [v + 5.0 for v in BASE], "lower")["claim"]


# 1..10: median 5.5, exclusive quartiles 2.75 and 8.25, so an IQR of exactly 5.5
STEPS = [float(v) for v in range(1, 11)]


def test_a_loss_equal_to_the_base_spread_is_inside_it() -> None:
    verdict = claim(STEPS, [v - 5.5 for v in STEPS], "higher")
    assert verdict["iqr_base"] == 5.5 and verdict["head"]["median"] == 0.0
    assert verdict["loss_inside_iqr"] and not verdict["claim"]


def test_a_loss_just_beyond_the_base_spread_is_outside_it() -> None:
    beyond = 5.5 + 2 ** -10  # exact in binary, as is every value below
    assert not claim(STEPS, [v - beyond for v in STEPS], "higher")["loss_inside_iqr"]
    assert not claim(STEPS, [v + beyond for v in STEPS], "lower")["loss_inside_iqr"]
    assert claim(STEPS, [v + 5.5 for v in STEPS], "lower")["loss_inside_iqr"]


def test_sides_tell_a_moved_reference_loop_from_a_moved_program() -> None:
    # the program's unscaled rate is level while the reference loop slows by a
    # half, which alone moves the scaled rate
    rate = sides([100.0, 101.0, 99.0, 100.0], [100.0, 99.0, 101.0, 100.0])
    reference = sides([0.25, 0.25, 0.25, 0.25], [0.375, 0.375, 0.375, 0.375])
    assert rate["change"] == 0.0 and rate["base"]["median"] == rate["head"]["median"] == 100.0
    assert reference["change"] == 0.5 and reference["base"]["q1"] == reference["base"]["q3"]
    assert reference["values"] == {"base": [0.25] * 4, "head": [0.375] * 4}


def test_run_once_reads_the_unscaled_figures_of_its_own_run(tmp_path: Path) -> None:
    # a stand-in run.py that writes its results file where perfbench/run.py does;
    # the figures kept are the rate, the setup time and the median reference time
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, pathlib\n"
        "out = pathlib.Path('.perfbench_work/results/ride_dense-seed7-trace0.json')\n"
        "out.parent.mkdir(parents=True)\n"
        "raw = {'events_per_s_unscaled': 8.0, 'setup_s_unscaled': 0.5,\n"
        "       'reference_s': [0.4, 0.1, 0.3, 0.2], 'pass_s': [1.0, 2.0]}\n"
        "out.write_text(json.dumps({'raw': raw}))\n"
        "print(json.dumps({'correct': True, 'metrics': {'events_per_s': {'value': 4.0}}}))\n")
    assert run_once(tmp_path, "ride_dense", 1, 7) == {
        "events_per_s": 4.0, "events_per_s_unscaled": 8.0, "setup_s_unscaled": 0.5,
        "reference_s": 0.25}


def test_entries_are_kept_per_workload_and_seed() -> None:
    doc = store({}, "b", "ride_dense", 1, {"n": 1})
    doc = store(doc, "b", "ride_dense", 2, {"n": 2})
    doc = store(doc, "b", "alert_storm", 1, {"n": 3})
    doc = store(doc, "b", "ride_dense", 1, {"n": 4})
    assert doc["workloads"] == {"ride_dense-seed1": {"n": 4}, "ride_dense-seed2": {"n": 2},
                                "alert_storm-seed1": {"n": 3}}
    assert store(doc, "other", "ride_dense", 2, {"n": 5}) == {
        "base": "other", "workloads": {"ride_dense-seed2": {"n": 5}}}


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_a_usage_error_before_any_run(pairs: str, monkeypatch,
                                                              capsys) -> None:
    calls = []
    for name in ("git", "export", "run_once"):
        monkeypatch.setattr(benchpairs, name, lambda *a, name=name: calls.append((name, a)))
    with pytest.raises(SystemExit) as exc:
        benchpairs.main(["base", "head", "--workload", "ride_dense", "--pairs", pairs])
    assert exc.value.code == 2 and calls == []
    assert "--pairs must be at least 2" in capsys.readouterr().err
