"""Point queries of the exact layer: the jump against the count stream.

``count_at``, ``pmf``, ``tail_mass``, ``truncated_expectation`` and the
series check ``series_matches_closed_form`` jump their recurrence by
Fiduccia's method once the horizon reaches max(512, 4 d**3) (d the
recurrence order: k for the counts, whose residue also gives the
partial sums, k + 1 for the scaled series) and read the count stream or
a table below it.  The gate ``counts._jumps`` makes that choice, and
checks the table cap where it jumps; the far routes ``_jump_count``,
``_jump_partial_sum`` and ``_series_sum`` are plain functions of any
horizon, called here directly at small ones.  ``route`` forces the
public queries onto one branch, skipping the cap check, so the capacity
tests never use it.  Both routes are checked against references that
share neither: counts summed naively over the last k terms, the tail as
1 - sum of c(i) / 2**i, the truncated expectation as a plain sum of
n c(n) / 2**n and the series gap as the partial series summed term by
term in ``Fraction``s, less the closed form.
"""

import tracemalloc
from collections import deque
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streakcalc import counts, distribution, genfunc
from streakcalc.counts import TABLE_CAP_ENV, RunSpec, count_at
from streakcalc.distribution import pmf, tail_mass, truncated_expectation
from streakcalc.errors import CapacityError
from streakcalc.genfunc import eval_y, series_matches_closed_form
from test_acceptance import _block_horizon

QUERIES = (count_at, pmf, tail_mass, truncated_expectation)
SERIES_POINTS = (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(7, 19))


def series(spec: RunSpec, n: int) -> Fraction:
    """The series check at r = 2/5, as a point query of (spec, n)."""
    return series_matches_closed_form(spec, Fraction(2, 5), n)


# Every query that checks the table cap as if it built a table up to n.
CAPPED = QUERIES + (series,)


def naive_counts(k: int, n_max: int) -> list[int]:
    """c(0..n_max) with each entry summed afresh from the last k."""
    c = [0] * (n_max + 1)
    if n_max >= k:
        c[k] = 1
    for n in range(k + 1, n_max + 1):
        c[n] = sum(c[n - k:n])
    return c


def reference(k: int, n: int) -> dict:
    """The four point queries at (k, n), from the naive counts."""
    c = naive_counts(k, n)
    below = sum(c[i] << (n - i) for i in range(n + 1))
    return {
        count_at: c[n],
        pmf: Fraction(c[n], 1 << n),
        tail_mass: 1 - Fraction(below, 1 << n),
        truncated_expectation: Fraction(sum(i * c[i] << (n - i) for i in range(n + 1)), 1 << n),
    }


def series_reference(k: int, r: Fraction, n: int) -> Fraction:
    """|sum of c(i) r**i over k <= i <= n - y(r)|, summed term by term."""
    c = naive_counts(k, n)
    return abs(sum(c[i] * r**i for i in range(k, n + 1)) - eval_y(RunSpec(k), r))


def streamed_truncated_expectation(k: int, n_max: int) -> Fraction:
    """sum of n c(n) / 2**n for n <= n_max, holding only the last k + 1
    counts: c(n) = 2 c(n-1) - c(n-k-1) for n >= k + 2 (subtract the
    recurrence at n - 1 from that at n), with c(k + 1) = 1."""
    last = deque([0] * (k + 1), maxlen=k + 1)  # c(n-k-1), ..., c(n-1)
    acc = 0
    for n in range(1, n_max + 1):
        c = 1 if n in (k, k + 1) else 2 * last[-1] - last[0]
        last.append(c)
        acc = 2 * acc + n * c
    return Fraction(acc, 1 << n_max)


@contextmanager
def route(jump: bool):
    """Force every point query onto the jump or onto the count stream,
    in each module that reads the gate; the cap check is skipped."""
    with ExitStack() as stack:
        for module in (counts, distribution, genfunc):
            stack.enter_context(mock.patch.object(module, "_jumps", lambda d, n: jump))
        yield


def crossover(d: int) -> int:
    return max(512, 4 * d ** 3)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 13])
def test_counts_across_the_crossover(k):
    x = crossover(k)
    c = naive_counts(k, x + 1)
    assert not counts._jumps(k, x - 1) and counts._jumps(k, x)
    for n in (x - 1, x, x + 1):
        assert count_at(RunSpec(k), n) == c[n]
        assert pmf(RunSpec(k), n) == Fraction(c[n], 1 << n)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 13])
def test_partial_sums_across_the_crossover(k):
    x = crossover(k)
    assert not counts._jumps(k, x - 1) and counts._jumps(k, x)
    c = naive_counts(k, x + k + 2)
    for n in (x - 1, x, x + 1):
        want = sum(i * c[i] << (n - i) for i in range(n + 1))
        assert truncated_expectation(RunSpec(k), n) == Fraction(want, 1 << n)
        below = sum(c[i] << (n - i) for i in range(n + 1))
        assert tail_mass(RunSpec(k), n) == 1 - Fraction(below, 1 << n)


@pytest.mark.parametrize("r", SERIES_POINTS, ids=str)
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_series_across_the_crossover(k, r):
    x = crossover(k + 1)
    assert not counts._jumps(k + 1, x - 1) and counts._jumps(k + 1, x)
    for n in (x - 1, x, x + 1):
        assert series_matches_closed_form(RunSpec(k), r, n) == series_reference(k, r, n), n


def test_partial_sums_jump_at_k13():
    """k = 13 reads the partial sum off the counts' order-13 residue from
    n = 8788 on; the reference streams the counts instead of holding a
    table."""
    n = crossover(13)
    assert n == 8788 and counts._jumps(13, n) and not counts._jumps(13, n - 1)
    assert truncated_expectation(RunSpec(13), n) == streamed_truncated_expectation(13, n)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 16), n=st.integers(1, 5000))
def test_jump_equals_window(k, n):
    want = reference(k, n)
    for jump in (True, False):
        with route(jump):
            for query in QUERIES:
                assert query(RunSpec(k), n) == want[query], (query.__name__, jump)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 16), extra=st.integers(0, 1500), r=st.sampled_from(SERIES_POINTS))
def test_series_jump_equals_fold(k, extra, r):
    n = k + extra
    want = series_reference(k, r, n)
    for jump in (True, False):
        with route(jump):
            assert series_matches_closed_form(RunSpec(k), r, n) == want, jump


def test_jump_below_the_seeds():
    """The far routes are exact at any horizon, also where they read
    only seeds: each is called directly, below the crossover."""
    for k in range(1, 13):
        for n in range(1, 3 * k + 4):
            want = reference(k, n)
            assert counts._jump_count(k, n) == want[count_at], (k, n)
            assert Fraction(counts._jump_count(k, n + k + 1), 1 << n) == want[tail_mass]
            for r in SERIES_POINTS if n >= k else ():
                a, b = r.numerator, r.denominator
                got = Fraction(counts._series_sum(k, a, b, n) * a**k, b**n)
                assert abs(got - eval_y(RunSpec(k), r)) == series_reference(k, r, n)


def test_partial_sum_jump_near_the_seeds():
    """The partial sum read off one jump at n + k matches the plain
    sum from the first horizons on, where c(n+k+1) and c(n+2k+1) are
    still seeds or the first terms past them."""
    for k in range(1, 13):
        for n in range(1, 3 * k + 4):
            got = Fraction(counts._jump_partial_sum(k, n), 1 << n)
            assert got == reference(k, n)[truncated_expectation], (k, n)


def test_gate_checks_the_cap_only_where_it_jumps(monkeypatch):
    """Below the crossover the gate reads no cap, and the caller's table
    or stream checks it; from the crossover on, the gate checks it."""
    monkeypatch.setenv(TABLE_CAP_ENV, "1")
    assert counts._jumps(3, 511) is False
    with pytest.raises(CapacityError) as info:
        counts._jumps(3, 512)
    assert str(info.value) == (
        "table of 513 entries exceeds cap of 1 (override with STREAKCALC_TABLE_CAP)"
    )


def test_verify_horizon_folds():
    """``verify``'s expectation-agreement row compares the truncated
    expectation at n = 64k with 2**n (2 (2**k - 1) - E[X; X <= n]) =
    (n + 1) c(n+k+1) + c(n+2k+2).  Above the crossover the truncated
    expectation is read off that same identity, so the row would compare
    the identity with itself; at 64k it must still fold the series."""
    assert not any(counts._jumps(k, 64 * k) for k in range(1, 65))


@pytest.mark.parametrize("k", range(1, 7))
def test_criterion_6_sees_the_folded_series(k):
    """At the horizons of acceptance criterion 6 the public value is the
    series summed term by term, so the criterion still sees the series
    converge, whichever route the horizon takes."""
    n = max(64 * k, _block_horizon(k, Fraction(1, 10**9), lambda j, q_j: k * q_j * (j + 2**k)))
    with route(False):
        folded = truncated_expectation(RunSpec(k), n)
    assert truncated_expectation(RunSpec(k), n) == folded


def test_capacity_cases_straddle_the_crossover(monkeypatch):
    """The cases below take both routes at n = 999."""
    assert counts._jumps(1, 999) and counts._jumps(3, 999)
    assert not counts._jumps(8, 999)
    sizes = spy_on_window(monkeypatch)
    for k in (1, 3, 8):
        truncated_expectation(RunSpec(k), 999)
    assert sizes == [3 * 1 + 1, 3 * 3 + 1, 1000]  # the partial sums follow order k
    assert counts._jumps(1 + 1, 999) and counts._jumps(3 + 1, 999) and not counts._jumps(8 + 1, 999)


# k = 1 and k = 3 jump at n = 999 and k = 8 does not, for every query.
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("query", CAPPED, ids=lambda q: q.__name__)
def test_capacity_boundary_unmoved(monkeypatch, k, query):
    monkeypatch.setenv(TABLE_CAP_ENV, "1000")
    query(RunSpec(k), 999)
    with pytest.raises(CapacityError) as info:
        query(RunSpec(k), 1000)
    assert str(info.value) == (
        "table of 1001 entries exceeds cap of 1000 (override with STREAKCALC_TABLE_CAP)"
    )


def spy_on_window(monkeypatch) -> list[int]:
    """Record the length of every count stream a query starts: tables,
    folds and the seeds of a jump all read ``counts._stream``."""
    sizes = []
    stream = counts._stream

    def spy(k, n_max, *args):
        sizes.append(n_max + 1)
        return stream(k, n_max, *args)

    monkeypatch.setattr(counts, "_stream", spy)
    return sizes


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("query", CAPPED, ids=lambda q: q.__name__)
def test_no_table_above_the_crossover(monkeypatch, k, query):
    """A jump streams O(k) seeds, at most c(0..3k+1) for the series."""
    sizes = spy_on_window(monkeypatch)
    query(RunSpec(k), 20_000)
    assert sizes and max(sizes) <= 3 * k + 2, sizes


@pytest.mark.parametrize("query", CAPPED, ids=lambda q: q.__name__)
def test_refusal_above_the_crossover_does_no_work(monkeypatch, query):
    sizes = spy_on_window(monkeypatch)
    monkeypatch.setenv(TABLE_CAP_ENV, "1000")
    with pytest.raises(CapacityError):
        query(RunSpec(3), 5000)
    assert sizes == []


@pytest.mark.parametrize("query", [count_at, truncated_expectation], ids=lambda q: q.__name__)
def test_fold_below_the_crossover_holds_k_counts(query):
    """Below the crossover a point query folds the count stream: at
    k = 64, n = 30 000 it holds 64 counts of up to 30 000 bits, where a
    table up to n took 58 MiB."""
    assert not counts._jumps(64, 30_000) and not counts._jumps(129, 30_000)
    tracemalloc.start()
    try:
        query(RunSpec(64), 30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
