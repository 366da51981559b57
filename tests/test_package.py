"""The package surface: what importing it loads, and the names the demos use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

IMPORT_CHECK = """
import sys
import streakcalc.counts, streakcalc.distribution, streakcalc.genfunc
assert "numpy" not in sys.modules, "the exact layer imported numpy"

from streakcalc import SimConfig, simulate
import streakcalc
names = {}
exec("from streakcalc import *", names)
assert set(streakcalc.__all__) <= set(names), "import * missed a name"
try:
    streakcalc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute resolved")
"""


def test_exact_layer_imports_without_numpy():
    """In a fresh interpreter: numpy stays unloaded until an oracle name
    is used, the oracle names and ``import *`` still resolve, and an
    unknown name raises AttributeError."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    """Every name a demo imports from the package exists, without running
    the demo (two of them simulate about 1.5M trials)."""
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "streakcalc"
        for alias in node.names
    ]
    assert imported, f"{demo.name} imports nothing from streakcalc"
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
