"""The golden outputs of :mod:`golden`, checked under pytest.

The tables and what they pin are described in ``tests/golden.py``, which
checks them without pytest too.  The two digit-limit probes at the end
wrote nothing but a traceback before, so they have no golden bytes:
their values are checked against ``build_count_table`` and
``truncated_expectation`` instead.
"""

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import golden
from golden import GOLDEN_DEMOS, GOLDEN_ERRORS, GOLDEN_OUTPUT, ROOT, run_cli, run_demo
from streakcalc.counts import RunSpec, build_count_table
from streakcalc.distribution import truncated_expectation


@pytest.fixture
def run(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("STREAKCALC_TABLE_CAP", raising=False)
    return run_cli


@pytest.mark.parametrize("argv, sha256", GOLDEN_OUTPUT, ids=[a for a, _ in GOLDEN_OUTPUT])
def test_golden_output(run, argv, sha256):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_golden_output_through_a_pipe(flags):
    """The 22 MB CSV golden read from a real process through a pipe, where
    stdout's own buffer is the only one between the rows and the reader."""
    argv = "counts --k 3 --n-max 13000 --format csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("STREAKCALC_TABLE_CAP", None)
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(
        [sys.executable, *flags, "-m", "streakcalc.cli", *argv.split()],
        capture_output=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    sha256 = dict(GOLDEN_OUTPUT)[argv]
    assert hashlib.sha256(result.stdout).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, code, stderr", GOLDEN_ERRORS, ids=[a for a, _, _ in GOLDEN_ERRORS]
)
def test_golden_error(run, argv, code, stderr):
    assert run(argv) == (code, "", stderr)


def test_counts_beyond_the_digit_limit(run):
    """54 MB of counts, the last ones 5300 digits long; every seventh row
    and the last row are compared with the integer table."""
    code, out, err = run("counts --k 3 --n-max 20000")
    assert (code, err) == (0, "")
    assert 53e6 < len(out.encode()) < 55e6
    rows = json.loads(out, parse_int=Decimal)["rows"]
    assert [row["n"] for row in rows] == list(range(20001))
    values = build_count_table(RunSpec(3), 20000).values
    assert len(str(rows[-1]["count"])) > 5000
    for n in [*range(0, 20001, 7), 20000]:
        assert rows[n]["count"] == Decimal(values[n]), n


def test_expect_beyond_the_digit_limit(run):
    code, out, err = run("expect --k-min 1 --k-max 1 --n-max 20000")
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    assert (row["closed_form"], row["half_derivative"]) == ("2", "2")
    num, den = row["series_truncated"].split("/")
    want = truncated_expectation(RunSpec(1), 20000)
    assert len(den) > 4300
    assert Decimal(num) == Decimal(want.numerator)
    assert Decimal(den) == Decimal(want.denominator)


@pytest.mark.parametrize("demo, sha256", GOLDEN_DEMOS, ids=[d for d, _ in GOLDEN_DEMOS])
def test_golden_demo(demo, sha256):
    result = run_demo(demo)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == sha256


TABLES = {"output": GOLDEN_OUTPUT, "errors": GOLDEN_ERRORS, "demos": GOLDEN_DEMOS}


@pytest.mark.parametrize("table", TABLES)
def test_stdlib_check_names_only_a_changed_record(monkeypatch, table):
    """``python tests/golden.py`` fails on what ``check`` returns: with the
    last field of one record altered and the other tables emptied, it
    names that record alone and passes the record kept as it is."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("STREAKCALC_TABLE_CAP", raising=False)
    kept, changed = TABLES[table][:2]
    for name in ("GOLDEN_OUTPUT", "GOLDEN_ERRORS", "GOLDEN_DEMOS"):
        monkeypatch.setattr(golden, name, [])
    records = [kept, (*changed[:-1], changed[-1] + "0")]
    monkeypatch.setattr(golden, f"GOLDEN_{table.upper()}", records)
    assert golden.check() == [changed[0]]
