from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis.vendor import pretty

from motoguard.core import ControllerConfig, Record

REPO_ROOT = Path(__file__).resolve().parent.parent

# Hypothesis prints the arguments of an example with its own printer, which
# takes a dataclass field by field (an int too long for repr in hex) and any
# other object by its repr. A record's repr is a frozen dataclass's, so it is
# printed as a dataclass would be.
pretty.for_type_by_name(Record.__module__, Record.__name__,
                        lambda obj, p, cycle: pretty.pprint_fields(obj, p, cycle,
                                                                   obj.__match_args__))


@pytest.fixture
def corpus_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture
def cfg() -> ControllerConfig:
    return ControllerConfig()
