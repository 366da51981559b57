"""Property test of the command line over generated argv.

Every argv ends in a result (exit 0) or in exactly one refusal: a usage
error (exit 2) or a capacity error (exit 3), written to stderr with
nothing on stdout and no traceback.  Valid values are mixed with junk
tokens; the accepted work is kept small so the whole test takes seconds,
and the long-run probes (k >= 30) must be refused before any work.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from streakcalc import oracle
from streakcalc.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, main

JUNK = ["-1", "1/0", "abc", "65", "0.5", ""]


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
    _option("--k", st.integers(1, 10), required=True),
    _option("--p", st.sampled_from(["1/2", "0.5", "3/4", "9/10", "1", "0"])),
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


@settings(deadline=None, max_examples=150)
@given(ARGV)
def test_every_argv_ends_in_a_result_or_one_refusal(argv):
    code, out, err = _run(argv)
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
