from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants_run", REPO_ROOT / "mutants" / "run.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)


def test_every_mutant_applies_to_the_tree() -> None:
    # a refactor that moves mutated code fails here until mutants.json follows it
    assert runner.row_problems(REPO_ROOT, runner.load_rows()) == []
