"""Item 13's bounded exhaustive search over controller.step, in tier-1 at depth 6."""

from __future__ import annotations

from explore import explore

# the search at depth 6, as the controller behaves today: a change that keeps
# every log byte of every transition keeps these figures
DEPTH = 6
STATES = 6393
TRANSITIONS = 108_966
DIGEST = "273c2458caefd1d389d0f7cc68aeae3dbb30c76a40b19886401be5cb0470b309"


def test_every_state_to_depth_6_keeps_the_invariants_and_the_digest() -> None:
    out = explore(DEPTH)
    assert out.problems == []
    assert (out.states, out.transitions) == (STATES, TRANSITIONS)
    assert out.digest.hexdigest() == DIGEST
