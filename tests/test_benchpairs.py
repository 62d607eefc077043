"""The claim rule of tools/benchpairs.py on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from benchpairs import claim, summary, wins  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4]


def test_summary_is_the_median_and_the_exclusive_quartiles() -> None:
    assert summary([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.25, "q3": 3.75}


def test_a_gain_in_every_pair_beyond_the_base_spread_is_a_claim() -> None:
    verdict = claim(BASE, [v + 5.0 for v in BASE], "higher")
    assert verdict["claim"] and verdict["head"]["won"] == 10 and verdict["base"]["won"] == 0
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
