"""Item 13's bounded exhaustive search over controller.step, in tier-1 at depth 6."""

from __future__ import annotations

import pytest

from explore import explore
from motoguard.core import DEFAULT_CONFIG, ControllerConfig

# the search at depth 6, as the controller behaves today: a change that keeps
# every log byte of every transition keeps these figures. A 2 s cooldown is
# one the explorer's 3 s gaps can cross, so that case reaches its boundary.
DEPTH = 6
CASES = {
    "default": (DEFAULT_CONFIG, 6393, 108_966,
                "273c2458caefd1d389d0f7cc68aeae3dbb30c76a40b19886401be5cb0470b309"),
    "cooldown_2s": (ControllerConfig(sms_cooldown_ms=2000), 1563, 39_858,
                    "4ec5f98167d865d65dc1e4da70809de92ad35e85afdae7dc3af45b975441b898"),
}


@pytest.mark.parametrize("cfg,states,transitions,digest", CASES.values(), ids=CASES.keys())
def test_every_state_to_depth_6_keeps_the_invariants_and_the_digest(
        cfg: ControllerConfig, states: int, transitions: int, digest: str) -> None:
    out = explore(DEPTH, cfg)
    assert out.problems == []
    assert (out.states, out.transitions) == (states, transitions)
    assert out.digest.hexdigest() == digest
