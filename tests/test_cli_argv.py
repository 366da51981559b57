"""Property test of the command line over generated argv.

Every argv ends in a result (exit 0) or in exactly one refusal: a usage
error (exit 2) or a capacity error (exit 3), written to stderr with
nothing on stdout and no traceback, within a wall bound enforced by a
timer signal.  Valid values are mixed with junk tokens and numeric
extremes: probabilities written with up to 10^5 digits or with an
exponent up to 10^7, 4300-digit and negative counts, and long table
caps.  The accepted work is kept small so the whole test takes seconds:
the generated commands run under a lowered simulation budget, which the
program enforces itself.  The long-run probes (k >= 30) must be refused
before any work at the program's own budget.
"""

import io
import os
import re
import signal
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from streakcalc import oracle
from streakcalc.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, main

JUNK = ["-1", "1/0", "abc", "65", "0.5", "", "True", "9" * 4300, "-" + "9" * 4300]

# Every example, accepted or refused, ends within this many seconds.
WALL_S = 2

# The simulation budget the generated commands run under.  The program's
# own admits minutes of coin flips by design; this one, about a million,
# keeps every admitted simulation well within WALL_S.
SIMULATION_FLIP_CAP = 1 << 20


class WallBoundExceeded(BaseException):
    """Raised by the timer signal; a BaseException, so no handler in the
    program under test can turn it into a refusal."""

DIGITS = st.integers(1, 10**5)
# parse_digits refuses an exponent beyond 10^6 before forming 10^|e|
EXPONENT = st.integers(1, 10**7)
PROBABILITY = st.one_of(
    st.sampled_from(["1/2", "0.5", "3/4", "9/10", "1", "0", "2.5e-1", "1E-3", "-0.5",
                     "inf", "nan", "False", "0x1p-1"]),
    EXPONENT.map(lambda n: f"1e-{n}"),
    EXPONENT.map(lambda n: f"1e{n}"),
    DIGITS.map(lambda n: "1/1" + "0" * n),
    # A p whose numerator and denominator are both long still forms k-th
    # powers before a refusal: 0.<10^5 nines> at k = 64 and 2^40 trials
    # takes about 23 s to be refused (a FOUND in CHANGES.md, pinned by
    # test_cli.py::test_simulate_refuses_a_near_one_probability_in_bounded_time).
    # These two forms stop at 5000 digits, where every verdict is quick.
    st.integers(1, 5000).map(lambda n: "0." + "9" * n),
    st.integers(1, 5000).map(lambda n: "1" * n + "/" + "3" * (n + 1)),
)

# STREAKCALC_TABLE_CAP: unset, small, long, negative or junk.  The long
# text has a small value: a long cap would admit the 4300-digit --n-max
# and an endless table.
TABLE_CAP = st.sampled_from(
    [None, "5", "0" * 5000 + "5", "-1" + "0" * 5000, "0", "1e3", "x"]
)


def _option(flag, valid, required=False):
    """``[flag, value]`` with a valid or junk value, or nothing at all
    (always present when ``required``, to reach past argparse)."""
    # one junk token to every three valid values
    value = st.integers(0, 3).flatmap(
        lambda i: valid.map(str) if i else st.sampled_from(JUNK)
    )
    present = value.map(lambda v: [flag, v])
    return present if required else st.one_of(st.just([]), present)


def _command(name, *options):
    return st.tuples(*options).map(
        lambda parts: [name] + [token for part in parts for token in part]
    )


FORMAT = st.one_of(st.just([]), st.sampled_from(["json", "csv", "xml"]).map(
    lambda f: ["--format", f]))

COUNTS = _command(
    "counts",
    _option("--k", st.integers(1, 64), required=True),
    _option("--n-max", st.integers(0, 2000), required=True),
    FORMAT,
)

EXPECT = _command(
    "expect",
    _option("--k-min", st.integers(1, 8), required=True),
    _option("--k-max", st.integers(1, 8), required=True),
    _option("--n-max", st.integers(1, 2000)),
    st.one_of(st.just([]), st.just(["--simulate"])),
    _option("--trials", st.integers(1, 500)),
    _option("--seed", st.integers(0, 2**64)),
    FORMAT,
)

SIMULATE = _command(
    "simulate",
    _option("--k", st.one_of(st.integers(1, 10), st.just(64)), required=True),
    _option("--p", PROBABILITY),
    _option("--trials", st.integers(1, 500)),
    _option("--seed", st.integers(0, 2**64)),
    _option("--max-steps", st.integers(1, 5000)),
    FORMAT,
)

VERIFY = _command(
    "verify",
    _option("--k-max", st.integers(1, 8), required=True),
    FORMAT,
)

ARGV = st.one_of(COUNTS, EXPECT, SIMULATE, VERIFY)

ARGPARSE_ERROR = re.compile(r"streakcalc( [a-z]+)?: error: .+")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _overrun(signum, frame):
    raise WallBoundExceeded(f"over {WALL_S} s")


def _run_bounded(argv):
    """``_run`` stopped by SIGALRM after ``WALL_S`` seconds (between
    bytecodes: one long C-level operation runs to its end first)."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, WALL_S)
    try:
        return _run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(deadline=None, max_examples=150)
@given(ARGV, TABLE_CAP)
def test_every_argv_ends_in_a_result_or_one_refusal(argv, cap):
    with mock.patch.dict(os.environ), mock.patch.object(
        oracle, "SIMULATION_FLIP_CAP", SIMULATION_FLIP_CAP
    ):
        os.environ.pop("STREAKCALC_TABLE_CAP", None)
        if cap is not None:
            os.environ["STREAKCALC_TABLE_CAP"] = cap
        code, out, err = _run_bounded(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY), (argv, code)
    assert "Traceback" not in out + err
    if code == EXIT_OK:
        assert out and err == "", argv
        return
    assert out == "", argv
    assert err.endswith("\n"), argv
    if err.startswith("usage: "):
        assert code == EXIT_USAGE
        assert ARGPARSE_ERROR.fullmatch(err.splitlines()[-1]), (argv, err)
    else:
        assert err.startswith("streakcalc: ") and err.count("\n") == 1, (argv, err)


# Runs of k >= 30 at the default step cap need over 2^36 coin flips for
# 32 trials or more, so these are refused before any coin is drawn.
@settings(deadline=None)
@given(
    st.integers(30, 64),
    st.integers(100, 500),
    st.sampled_from([["simulate", "--k", "{k}"],
                     ["expect", "--k-min", "{k}", "--k-max", "{k}", "--simulate"]]),
)
def test_long_runs_are_refused_before_any_work(k, trials, command):
    argv = [token.format(k=k) for token in command] + ["--trials", str(trials)]
    with mock.patch.object(oracle, "_occupancy_totals", side_effect=AssertionError):
        code, out, err = _run(argv)
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("streakcalc: capacity error: ") and err.count("\n") == 1
