"""Tests for the command-line surface: formats, determinism, exit codes."""

import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import cycle, islice
from operator import add, sub
from pathlib import Path

import pytest

from streakcalc import counts, distribution, genfunc, oracle
from streakcalc.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_csv(capsys):
    code, out, err = run_cli(
        capsys, "counts", "--k", "3", "--n-max", "6", "--format", "csv"
    )
    assert code == EXIT_OK
    assert err == ""
    lines = out.split("\r\n")
    assert lines[0] == "n,count"
    assert lines[1] == "0,0"
    assert lines[7] == "6,4"


def test_counts_single_row(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k", "1", "--n-max", "0")
    assert code == EXIT_OK
    envelope = json.loads(out)
    assert envelope["rows"] == [{"n": 0, "count": 0}]


def test_counts_rejects_bad_k(capsys):
    code, out, err = run_cli(capsys, "counts", "--k", "0", "--n-max", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "run length" in err


def test_counts_envelope_shape_and_determinism(capsys):
    code, first, _ = run_cli(capsys, "counts", "--k", "2", "--n-max", "8")
    assert code == EXIT_OK
    code, second, _ = run_cli(capsys, "counts", "--k", "2", "--n-max", "8")
    assert first == second
    envelope = json.loads(first)
    assert list(envelope) == ["command", "format_version", "parameters", "rows"]
    assert envelope["command"] == "counts"
    assert envelope["parameters"]["k"] == 2
    assert envelope["parameters"]["n_max"] == 8


def test_counts_capacity_exit(capsys):
    code, out, err = run_cli(capsys, "counts", "--k", "2", "--n-max", "200000")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "capacity" in err


def test_counts_capacity_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STREAKCALC_TABLE_CAP", "10")
    code, _, err = run_cli(capsys, "counts", "--k", "2", "--n-max", "20")
    assert code == EXIT_CAPACITY
    assert "STREAKCALC_TABLE_CAP" in err
    monkeypatch.setenv("STREAKCALC_TABLE_CAP", "1000")
    code, out, _ = run_cli(capsys, "counts", "--k", "2", "--n-max", "20")
    assert code == EXIT_OK


class ByteCounter:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "fmt, size", [("json", 53_851_568), ("csv", 53_071_391)], ids=["json", "csv"]
)
def test_counts_streams_in_bounded_memory(monkeypatch, fmt, size):
    """The 53 MB table goes to stdout piece by piece, as each row is made:
    the writer holds a few rows of output at a time, not a buffer of its
    own (the whole table cost over 100 MiB, a 1 MiB buffer about 3 MiB)."""
    out = ByteCounter()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["counts", "--k", "3", "--n-max", "20000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert out.written == size
    assert peak < 2**20, peak


class RawCounter(io.RawIOBase):
    """A binary stdout that keeps only the size of each write."""

    def __init__(self):
        self.sizes = []

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        return len(data)


@pytest.mark.parametrize("mode", ["write_through", "line_buffering"])
def test_counts_gathers_pieces_on_an_eager_stdout(monkeypatch, mode):
    """``python -u`` and a terminal make stdout pass each write on at once;
    the 12 000 pieces of this table still reach the system in blocks of
    about 8 KiB, and stdout keeps its mode afterwards."""
    raw = RawCounter()
    out = io.TextIOWrapper(raw, encoding="utf-8", **{mode: True})
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["counts", "--k", "2", "--n-max", "2000"]) == EXIT_OK
    assert getattr(out, mode)
    assert sum(raw.sizes) > 400_000
    assert len(raw.sizes) < sum(raw.sizes) / 4096, len(raw.sizes)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_counts_into_a_closed_pipe_exits_cleanly(fmt):
    """``streakcalc counts ... | head -c 100``: the reader leaves after a
    few bytes, and the command ends with exit 0 and no traceback."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "streakcalc.cli", "counts", "--k", "3",
         "--n-max", "20000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OK, err
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


def test_expect_reproduces_expectation_column(capsys):
    code, out, _ = run_cli(capsys, "expect", "--k-min", "1", "--k-max", "5")
    assert code == EXIT_OK
    envelope = json.loads(out)
    assert [row["closed_form"] for row in envelope["rows"]] == [
        "2", "6", "14", "30", "62",
    ]
    assert [row["half_derivative"] for row in envelope["rows"]] == [
        "2", "6", "14", "30", "62",
    ]
    assert all(row["exact_agreement"] is True for row in envelope["rows"])
    assert any("k=2" in note for note in envelope["notes"])


def test_expect_truncated_column_is_exact_string(capsys):
    from fractions import Fraction

    from streakcalc.counts import RunSpec
    from streakcalc.distribution import truncated_expectation

    code, out, _ = run_cli(
        capsys, "expect", "--k-min", "4", "--k-max", "4", "--n-max", "256"
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    expected = truncated_expectation(RunSpec(4), 256)
    assert row["series_truncated"] == str(expected)
    # about 0.0245 below the limit 30 at this horizon
    assert Fraction(2, 100) < 30 - expected < Fraction(3, 100)


def test_expect_rejects_empty_range(capsys):
    code, _, err = run_cli(capsys, "expect", "--k-min", "2", "--k-max", "1")
    assert code == EXIT_USAGE
    assert "empty range" in err


def test_expect_checks_whole_range_before_any_row(capsys, monkeypatch):
    """k = 65 is refused before the rows for k = 40..64 are computed."""

    def computed(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(distribution, "truncated_expectation", computed)
    result = run_cli(
        capsys, "expect", "--k-min", "40", "--k-max", "65", "--n-max", "30000"
    )
    assert result == (EXIT_USAGE, "", "streakcalc: run length must be <= 64, got 65\n")


def test_expect_with_simulation_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "expect", "--k-min", "1", "--k-max", "2",
        "--simulate", "--trials", "20000", "--seed", "3",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert abs(rows[0]["monte_carlo_mean"] - 2) < 0.1
    assert abs(rows[1]["monte_carlo_mean"] - 6) < 0.3


def test_simulate_single_trial(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "1", "--trials", "1", "--seed", "9"
    )
    assert code == EXIT_OK
    envelope = json.loads(out)
    row = envelope["rows"][0]
    assert row["completed_trials"] + row["truncated_trials"] == 1
    assert row["seed"] == 9
    assert row["rng_algorithm"] == "mt19937-occupancy-planes"
    assert envelope["parameters"]["p"] == "1/2"


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--k", "2", "--trials", "5000", "--seed", "21")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_rejects_bad_probability(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--k", "1", "--p", "1.5", "--trials", "10"
    )
    assert code == EXIT_USAGE
    assert "probability" in err
    code, _, err = run_cli(
        capsys, "simulate", "--k", "1", "--p", "zebra", "--trials", "10"
    )
    assert code == EXIT_USAGE


def _run_process(*argv, **env):
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "streakcalc.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src"), **env),
    )


@pytest.mark.parametrize(
    "p, rendered",
    [
        ("1e5000", "1" + "0" * 5000),
        # 1.1e2999 as 8000 digits over 10**4999: each part parses below
        # the 4300-digit limit
        ("1" * 4000 + "." + "0" * 3998 + "1e-1000",
         "1" * 4000 + "0" * 3998 + "1/1" + "0" * 4999),
        ("1e1000000", "1" + "0" * 10**6),
    ],
    ids=["1e5000", "5000-digit-denominator", "1e1000000"],
)
def test_simulate_refuses_a_huge_probability_in_one_line(p, rendered):
    """A p above 1 of any size ends in exit 2 and one stderr line that
    renders it exactly, past str()'s 4300-digit limit, not a traceback,
    within 2 s: a quadratic conversion took 20 s for 10^6 digits."""
    start = time.perf_counter()
    result = _run_process("simulate", "--k", "3", "--p", p)
    assert time.perf_counter() - start < 2
    assert result.returncode == EXIT_USAGE, result.stderr
    assert result.stdout == ""
    assert result.stderr == (
        f"streakcalc: success probability must lie in (0, 1), got {rendered}\n"
    )


@pytest.mark.parametrize("p", ["1e-10000000", "1e10000000", "1e-1000001"])
def test_simulate_refuses_an_exponent_beyond_a_million_in_bounded_time(p):
    """The parser refuses the exponent before forming 10**|e|, which at
    1e-10000000 took 8.6 s and at 1e10000000 over 120 s."""
    start = time.perf_counter()
    result = _run_process("simulate", "--k", "3", "--p", p)
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
    assert result.stderr.endswith(
        f"streakcalc simulate: error: argument --p: not a rational number: '{p}'\n"
    )


@pytest.mark.parametrize(
    "p", ["1/1" + "0" * 4400, "1e-4400"], ids=["4401-digit-denominator", "1e-4400"]
)
def test_simulate_reads_a_probability_of_any_length(p):
    """A valid p past the 4300-digit limit of Fraction(str) is read, not
    called "not a rational number": at 10^-4400 the run is refused as
    over budget, in one line, whichever way p is written."""
    result = _run_process("simulate", "--k", "3", "--p", p)
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    assert result.stderr.startswith("streakcalc: capacity error: ")
    assert result.stderr.count("\n") == 1


# 131 000 zeros: near the 128 KiB that Linux allows one argument
@pytest.mark.parametrize("p", ["1e-1000000", "1e-100000", "1/1" + "0" * 131_000],
                         ids=["1e-1000000", "1e-100000", "1/1<131000 zeros>"])
@pytest.mark.parametrize("k", ["1", "64"])
def test_simulate_refuses_a_tiny_probability_in_bounded_time(k, p):
    """E >= p^-k > 2^64 shows in the bit lengths of p, so the refusal
    forms no power of p, in the budget or in the default step cap, and
    the digits are read in subquadratic time."""
    start = time.perf_counter()
    result = _run_process("simulate", "--k", k, "--p", p)
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    assert result.stderr.startswith("streakcalc: capacity error: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.xfail(
    strict=True, raises=subprocess.TimeoutExpired,
    reason="a p with a long numerator and denominator still forms k-th powers "
    "before the refusal (FOUND in CHANGES.md)",
)
def test_simulate_refuses_a_near_one_probability_in_bounded_time():
    """p = 0.<10^5 nines> at k = 64 is refused for 2^40 trials, but only
    after forming its 64th powers in the default step cap and the mean:
    about 23 s.  Passes once the estimate reads leading bits instead."""
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "streakcalc.cli", "simulate", "--k", "64",
         "--p", "0." + "9" * 100_000, "--trials", str(2**40)],
        capture_output=True, text=True, timeout=1,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    assert result.stderr.startswith("streakcalc: capacity error: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["counts", "--k", "3", "--n-max", "9" * 4300], {}, EXIT_CAPACITY),
        (["expect", "--k-min", "1", "--k-max", "1", "--n-max", "9" * 4300], {},
         EXIT_CAPACITY),
        (["counts", "--k", "3", "--n-max", "2"],
         {"STREAKCALC_TABLE_CAP": "-1" + "0" * 5000}, EXIT_USAGE),
    ],
    ids=["counts-n-max", "expect-n-max", "negative-cap"],
)
def test_long_numbers_in_messages_are_rendered(argv, env, code):
    """A message quoting a number past str()'s 4300-digit limit (n_max + 1
    has 4301 digits) is one stderr line, not a traceback."""
    result = _run_process(*argv, **env)
    assert (result.returncode, result.stdout) == (code, ""), result.stderr[-300:]
    assert result.stderr.startswith("streakcalc: ")
    assert result.stderr.count("\n") == 1


def test_table_cap_of_any_length():
    """A 5000-digit STREAKCALC_TABLE_CAP is a cap, not "must be an integer"."""
    result = _run_process(
        "counts", "--k", "3", "--n-max", "2", STREAKCALC_TABLE_CAP="9" * 5000
    )
    assert result.returncode == EXIT_OK, result.stderr[:200]
    assert [row["count"] for row in json.loads(result.stdout)["rows"]] == [0, 0, 0]


def test_simulate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--k", "1", "--trials", "100", "--seed", "4",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == (
        "completed_trials,truncated_trials,sample_mean,sample_variance,"
        "seed,rng_algorithm"
    )
    assert lines[1].endswith("mt19937-occupancy-planes")


class CoinsDrawn(Exception):
    pass


def _draw(*args):
    # Stands in for oracle._occupancy_totals, the one function that draws.
    raise CoinsDrawn(args)


@pytest.mark.parametrize(
    "argv", ["simulate --k 40 --trials 1", "expect --k-min 40 --k-max 40 --simulate"]
)
def test_simulation_over_budget_refused_before_drawing(capsys, monkeypatch, argv):
    """Without the budget these would flip about 2^41 coins per trial."""
    monkeypatch.setattr(oracle, "_occupancy_totals", _draw)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("streakcalc: capacity error: ")
    assert err.count("\n") == 1 and "2^36" in err


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --k 30 --trials 1",
        "expect --k-min 30 --k-max 30 --simulate --trials 1",
    ],
)
def test_simulation_over_pass_budget_refused_before_drawing(capsys, monkeypatch, argv):
    """About 2^31 flips, but one trial alone would take about 2^31 steps,
    each priced at no less than 2^7 flips: over the budget."""
    monkeypatch.setattr(oracle, "_occupancy_totals", _draw)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("streakcalc: capacity error: ")
    assert err.count("\n") == 1 and "2^38 coin flips" in err and "2^36" in err


def test_simulation_default_step_cap_follows_p(capsys, monkeypatch):
    """With a cap of 1000 * 2^k every trial at p = 1/1000 was truncated
    and the run reported a mean of 0.0; the cap 1000 * 1000^3 lets the
    flip budget see the run's real size."""
    monkeypatch.setattr(oracle, "_occupancy_totals", _draw)
    code, out, err = run_cli(
        capsys, "simulate", "--k", "3", "--p", "1/1000", "--trials", "1000"
    )
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.count("\n") == 1 and "coin flips" in err


@pytest.mark.parametrize(
    "argv, most_trials",
    [
        # 2 flips per trial on average
        ("simulate --k 1", 2**35),
        # (1 - p^k) / (q p^k) = 12 flips per trial
        ("simulate --k 2 --p 1/3", 2**36 // 12),
        # the step cap, not the mean 2(2^40 - 1), bounds each trial
        ("simulate --k 40 --max-steps 1024", 2**26),
        # expect sums over its run lengths: 2 + 6 flips per trial
        ("expect --k-min 1 --k-max 2 --simulate", 2**33),
        # 2^29 - 2 steps; a step draws for each of min(k, trials) classes
        ("simulate --k 28", 1),
    ],
)
def test_simulation_budget_boundary(capsys, monkeypatch, argv, most_trials):
    monkeypatch.setattr(oracle, "_occupancy_totals", _draw)
    with pytest.raises(CoinsDrawn):
        main([*argv.split(), "--trials", str(most_trials)])
    code, _, _ = run_cli(capsys, *argv.split(), "--trials", str(most_trials + 1))
    assert code == EXIT_CAPACITY


def test_simulation_step_boundary_summed_over_run_lengths(capsys, monkeypatch):
    """At one trial a step costs 2^7 flips in every run length, and the
    mean lengths 2^(k+1) - 2 for k = 1..27 sum to under 2^29."""
    monkeypatch.setattr(oracle, "_occupancy_totals", _draw)
    argv = ["expect", "--k-min", "1", "--simulate", "--trials", "1"]
    with pytest.raises(CoinsDrawn):
        main([*argv, "--k-max", "27"])
    code, out, err = run_cli(capsys, *argv, "--k-max", "28")
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.count("\n") == 1


def test_simulation_bounded_by_step_cap_runs(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "40", "--trials", "1", "--max-steps", "1000"
    )
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["truncated_trials"] == 1


def test_verify_passes_and_names_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k-max", "5")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert all(row["result"] == "PASS" for row in rows)
    names = [row["check"] for row in rows]
    assert "recurrence-vs-enumeration[k=5]" in names
    assert "expectation-agreement[k=3]" in names


def test_verify_smallest_instance_mentions_normalization(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k-max", "1")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    normalization = [row for row in rows if row["check"] == "y(1/2)=1[k=1]"]
    assert len(normalization) == 1
    assert normalization[0]["result"] == "PASS"


_count_at = counts.count_at
_tail_mass = distribution.tail_mass
_eval_y = genfunc.eval_y
_expectation = genfunc.expectation
_truncated_expectation = distribution.truncated_expectation
_2_400 = Fraction(1, 1 << 400)

# One dependency of verify broken at k = 3 (and n = 7, the enumeration
# horizon n = 14 or the series horizon n = 192): module, name, stand-in,
# the row that must fail, and its discrepancy text.  c(7) = 7 and E = 14
# at k = 3.
VERIFY_FAULTS = [
    (counts, "count_at",
     lambda spec, n: _count_at(spec, n) + (spec.k == 3 and n == 7),
     "recurrence-vs-enumeration[k=3]", "n=7: recurrence 8 != enumeration 7"),
    (distribution, "tail_mass",
     lambda spec, n: _tail_mass(spec, n) + Fraction(spec.k == 3 and n == 14, 1 << n),
     "pmf-partition-vs-enumeration[k=3]",
     f"cdf mismatch: {1 - _tail_mass(counts.RunSpec(3), 14)} != "
     f"{1 - _tail_mass(counts.RunSpec(3), 14) - Fraction(1, 1 << 14)}"),
    (genfunc, "eval_y",
     lambda spec, r: _eval_y(spec, r) * (2 if spec.k == 3 else 1),
     "y(1/2)=1[k=3]", "y(1/2) = 2"),
    (genfunc, "expectation",
     lambda spec: _expectation(spec) + (spec.k == 3),
     "expectation-agreement[k=3]", "derivative route 15 != closed form 14"),
    # The series less 2^-400: the shortfall must equal the counts' tail
    # exactly, so no slack hides the fault.
    (distribution, "truncated_expectation",
     lambda spec, n: _truncated_expectation(spec, n) - (spec.k == 3) * _2_400,
     "expectation-agreement[k=3]",
     f"shortfall {14 - _truncated_expectation(counts.RunSpec(3), 192) + _2_400}"
     f" != tail {14 - _truncated_expectation(counts.RunSpec(3), 192)}"),
]


@pytest.mark.parametrize(
    "module, name, fake, check, discrepancy", VERIFY_FAULTS,
    ids=[fault[1] for fault in VERIFY_FAULTS],
)
def test_verify_fails_only_the_broken_check(
    capsys, monkeypatch, module, name, fake, check, discrepancy
):
    monkeypatch.setattr(module, name, fake)
    code, out, err = run_cli(capsys, "verify", "--k-max", "4")
    assert (code, err) == (EXIT_VERIFY_FAILED, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == 16
    failed = [row for row in rows if row["result"] != "PASS"]
    assert failed == [{"check": check, "result": "FAIL", "discrepancy": discrepancy}]
    assert all(row["discrepancy"] == "0" for row in rows if row["check"] != check)


def _ring_with(step):
    """``counts._ring`` with its step c(n + 1) = 2 c(n) - c(n - k) replaced
    by ``step(ring, i, c, add, sub)``; ring[i] holds c(n - k)."""
    def ring_(k, n_max, zero, one, add, sub):
        yield from [zero] * min(k, n_max + 1)
        if n_max < k:
            return
        yield one
        ring = [zero] * (k - 1) + [one]
        c = one
        for i in islice(cycle(range(k)), n_max - k):
            yield c
            c, ring[i] = step(ring, i, c, add, sub), c
    return ring_


# A count-kernel fault, and the first k at which it changes a count:
# c(n - k) read from the next slot (the same slot when k = 1), or
# subtracted twice.
KERNEL_MUTANTS = {
    "slot": (lambda ring, i, c, add, sub: sub(add(c, c), ring[(i + 1) % len(ring)]), 2),
    "doubled": (lambda ring, i, c, add, sub: sub(sub(add(c, c), ring[i]), ring[i]), 1),
}


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_verify_sees_a_kernel_fault_at_every_k(capsys, monkeypatch, mutant):
    """The series agrees with the closed form only through counts that
    obey the recurrence, so expectation-agreement fails at every k the
    fault reaches; the enumeration rows see no subtraction for k >= 9."""
    step, first = KERNEL_MUTANTS[mutant]
    correct = _ring_with(lambda ring, i, c, add, sub: sub(add(c, c), ring[i]))
    assert list(correct(5, 300, 0, 1, add, sub)) == list(counts._stream(5, 300))
    monkeypatch.setattr(counts, "_ring", _ring_with(step))
    code, out, err = run_cli(capsys, "verify", "--k-max", "64")
    assert (code, err) == (EXIT_VERIFY_FAILED, "")
    rows = {row["check"]: row["result"] for row in json.loads(out)["rows"]}
    assert len(rows) == 256
    failed = [k for k in range(1, 65) if rows[f"expectation-agreement[k={k}]"] == "FAIL"]
    assert failed == list(range(first, 65))


# A fault in the jump: one edit to the source of a function of
# ``counts``, and the first k at which it changes a far route (a
# residue of order 1 forms no cross product, and for k = 1 every
# count from c(1) on is 1).
JUMP_MUTANTS = {
    "residue": ("_residue", "    return r\n", "    r[0] += 1\n    return r\n", 1),
    "square": ("_square", "x2 = x << 1", "x2 = x", 2),
    "partial-sum": ("_jump_partial_sum", "n * x + 2", "-n * x + 2", 1),
    "series-seeds": (
        "_series_sum", "_stream(k, 3 * k + 1), k,", "_stream(k, 3 * k + 2), k + 1,", 2
    ),
    "odd-shift": ("_jump", "seeds[e % 2:]", "seeds", 1),
}


@pytest.mark.parametrize("mutant", JUMP_MUTANTS)
def test_verify_sees_a_jump_fault(capsys, monkeypatch, mutant):
    """``verify``'s horizons all fold, so it runs each far route at a
    small horizon itself, inside the enumeration row."""
    name, old, new, first = JUMP_MUTANTS[mutant]
    source = inspect.getsource(getattr(counts, name))
    assert source.count(old) == 1
    namespace = dict(vars(counts))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(counts, name, namespace[name])
    code, out, err = run_cli(capsys, "verify", "--k-max", "64")
    assert (code, err) == (EXIT_VERIFY_FAILED, "")
    rows = json.loads(out)["rows"]
    failed = [row["check"] for row in rows if row["result"] == "FAIL"]
    assert failed == [f"recurrence-vs-enumeration[k={k}]" for k in range(first, 65)]
    assert all("jumped" in row["discrepancy"] for row in rows if row["result"] == "FAIL")


def test_verify_refuses_long_runs_before_any_check(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("enumerated before the range was checked")

    monkeypatch.setattr(oracle, "enumerate_first_run_histogram", never)
    code, out, err = run_cli(capsys, "verify", "--k-max", "65")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "streakcalc: run length must be <= 64, got 65\n"


def test_verify_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--k-max", "0")
    assert code == EXIT_USAGE
    assert err != ""


def test_usage_error_on_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_usage_error_on_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "counts", "--n-max", "3")
    assert code == EXIT_USAGE


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_CAPACITY}) == 4
