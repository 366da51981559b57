"""The package surface: what importing it loads, and the names the demos use."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from streakcalc import oracle

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

IMPORT_CHECK = """
import sys
import streakcalc.counts, streakcalc.distribution, streakcalc.genfunc
assert "numpy" not in sys.modules, "the exact layer imported numpy"

import streakcalc
names = {}
exec("from streakcalc import *", names)
assert set(streakcalc.__all__) <= set(names), "import * missed a name"
assert "numpy" not in sys.modules, "importing the oracle loaded numpy"

from streakcalc import oracle
assert oracle.enumerate_counts(3, 12) == 149
assert sum(oracle.enumerate_first_run_histogram(2, 10)[0]) == 1024 - 144
assert oracle.enumerate_truncated_expectation(1, 2) == 1
assert "numpy" not in sys.modules, "enumeration loaded numpy"
"""

CLI_CHECK = """
import contextlib, io, sys
import streakcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["counts", "--k", "3", "--n-max", "20"],
                 ["expect", "--k-min", "1", "--k-max", "3"]):
        assert streakcalc.cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, argv
    assert streakcalc.cli.main(["verify", "--k-max", "2"]) == 0
assert "numpy" not in sys.modules, "verify loaded numpy"
"""


SIM_CHECK = """
import contextlib, io, sys
from fractions import Fraction
import streakcalc.cli
from streakcalc import SimConfig, simulate
report = simulate(SimConfig(k=2, success_prob=Fraction(1, 3), trials=100, seed=1))
assert report.completed_trials == 100
assert "numpy" not in sys.modules, "simulate loaded numpy"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["simulate", "--k", "3", "--trials", "100"],
                 ["expect", "--k-min", "1", "--k-max", "2", "--simulate", "--trials", "100"]):
        assert streakcalc.cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, argv
"""


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_exact_layer_imports_without_numpy():
    """In a fresh interpreter: importing every name of the package,
    oracle names included, and enumerating leave numpy unloaded."""
    _fresh_interpreter(IMPORT_CHECK)


def test_exact_commands_run_without_numpy():
    """In a fresh interpreter: ``counts``, ``expect`` and ``verify``,
    which runs the enumeration oracle, load no numpy."""
    _fresh_interpreter(CLI_CHECK)


def test_simulation_runs_without_numpy():
    """In a fresh interpreter: ``simulate``, in the library and on the
    command line, and ``expect --simulate`` load no numpy."""
    _fresh_interpreter(SIM_CHECK)


@pytest.mark.parametrize(
    "fn",
    [f for _, f in inspect.getmembers(oracle, inspect.isfunction)
     if f.__module__ == oracle.__name__],
    ids=lambda f: f.__name__,
)
def test_oracle_annotations_resolve(fn):
    """No annotation names numpy, which the oracle module does not import."""
    typing.get_type_hints(fn)


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


def test_oracle_imports_no_other_route():
    """The oracles stay independent ground truth: from the package they
    take only the ``RunSpec`` validator, the argument checks, the number
    renderer and the error types, never the recurrence or the closed
    forms."""
    tree = ast.parse((ROOT / "src" / "streakcalc" / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "streakcalc" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "streakcalc"
        ):
            module = (node.module or "").removeprefix("streakcalc.")
            imported |= {(module, alias.name) for alias in node.names}
    assert {m for m, _ in imported} <= {"counts", "errors"}, imported
    assert {n for m, n in imported if m == "counts"} == {
        "RunSpec", "_exact", "_integer", "_rational"
    }, imported


def test_only_the_oracle_imports_dataclasses():
    """Records are named tuples; ``SimReport`` is the one dataclass left."""
    importers = set()
    for path in sorted((ROOT / "src" / "streakcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if "dataclasses" in names:
                importers.add(path.name)
    assert importers == {"oracle.py"}


@pytest.mark.parametrize("record", ["counts.RunSpec", "counts.CountTable", "cli.OutputEnvelope"])
def test_records_are_named_tuples(record):
    module, name = record.split(".")
    cls = getattr(importlib.import_module(f"streakcalc.{module}"), name)
    assert not dataclasses.is_dataclass(cls)
    assert issubclass(cls, tuple) and cls._fields
