from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(REPO_ROOT / "src" / "motoguard").glob("*.py"),
                  *(REPO_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references; annotations count as references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_imports(path: Path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_annotations_and_skips_future() -> None:
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Any, Dict as D, List\n"
              "def f(x: Any) -> D: return os.path.sep\n")
    assert unused_imports(source) == ["line 3: List"]
