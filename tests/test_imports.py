from __future__ import annotations

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((REPO_ROOT / "src" / "motoguard").glob("*.py"))
MODULES = sorted([*PACKAGE, *(path for name in ("tests", "tools", "mutants")
                               for path in (REPO_ROOT / name).glob("*.py"))])


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


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level private names (a _x def, class or assignment) the module never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_imports(path: Path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_annotations_and_skips_future() -> None:
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Any, Dict as D, List\n"
              "def f(x: Any) -> D: return os.path.sep\n")
    assert unused_imports(source) == ["line 3: List"]


def compile_strict(source: str, filename: str) -> None:
    """Compile with every warning an error; a cached .pyc would hide them on import."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, filename, "exec")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_compiles_without_warnings(path: Path) -> None:
    compile_strict(path.read_text(encoding="utf-8"), str(path))


def test_the_compile_check_rejects_an_invalid_escape() -> None:
    # a DeprecationWarning on 3.10-3.11 and a SyntaxWarning on 3.12+, raised as SyntaxError
    with pytest.raises(SyntaxError, match="invalid escape sequence"):
        compile_strict('pattern = "^\\d{6}$"\n', "<escape>")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unreferenced_private_names(path: Path) -> None:
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []


def test_the_private_name_check_sees_defs_classes_and_assignments() -> None:
    source = ("_TABLE = {}\n"
              "_LEFT: int = 1\n"
              "_LEFT = 2\n"
              "__all__ = []\n"
              "def _helper(): return _TABLE\n"
              "def _orphan(): pass\n"
              "class _Gone: pass\n"
              "def public(x: _Used) -> None: _helper()\n"
              "class _Used: pass\n")
    assert unreferenced_private_names(source) == ["line 2: _LEFT", "line 6: _orphan",
                                                  "line 7: _Gone"]


# the standard modules @dataclass needs, which no command may load
DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")
COMMANDS = """
import sys
from motoguard.cli import main
out, report = sys.argv[1:]
codes = [main(["simulate", "--scenario", "scenarios/crash_fall.jsonl", "--out", out]),
         main(["eval", "--scenario-dir", "scenarios", "--report", report]),
         main(["nmea", "--file", "tests/golden/nmea_sentences.txt"])]
print(codes, [name for name in %r if name in sys.modules])
""" % (DATACLASS_MODULES,)


def test_no_command_loads_dataclasses(tmp_path: Path) -> None:
    # a fresh interpreter, so that nothing the tests import is counted; the
    # frozen records import dataclasses only to raise FrozenInstanceError
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COMMANDS, str(tmp_path / "crash.log.jsonl"),
                           str(tmp_path / "report.txt")], cwd=REPO_ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 1] []"
