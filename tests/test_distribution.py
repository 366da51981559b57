"""Tests for the exact fair-coin first-passage distribution."""

import copy
import pickle
from fractions import Fraction

import pytest

from streakcalc import counts, distribution
from streakcalc.counts import (
    TABLE_CAP_ENV, RunSpec, build_count_table, ratio_diagnostic,
)
from streakcalc.distribution import (
    PmfRow,
    _dyadic,
    pmf,
    pmf_table,
    tail_mass,
    truncated_expectation,
)
from streakcalc.errors import CapacityError, DomainError
from streakcalc.oracle import enumerate_counts


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (3, 3, Fraction(1, 8)),
        (3, 2, Fraction(0)),
        (2, 4, Fraction(1, 8)),
        (1, 1, Fraction(1, 2)),
    ],
)
def test_pmf_examples(k, n, expected):
    assert pmf(RunSpec(k), n) == expected


def test_pmf_rejects_nonpositive_n():
    with pytest.raises(DomainError):
        pmf(RunSpec(2), 0)


def test_pmf_table_geometric_case():
    rows = pmf_table(RunSpec(1), 3)
    assert [r.mass for r in rows] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    ]
    assert [r.cumulative for r in rows] == [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(7, 8),
    ]


def test_pmf_table_fibonacci_case():
    rows = pmf_table(RunSpec(2), 4)
    assert [r.mass for r in rows] == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 8),
    ]
    assert [r.cumulative for r in rows] == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(3, 8),
        Fraction(1, 2),
    ]
    assert [r.count for r in rows] == [0, 1, 1, 2]


def test_pmf_row_is_an_immutable_named_tuple():
    row = pmf_table(RunSpec(2), 4)[3]
    with pytest.raises(AttributeError):
        row.mass = Fraction(1, 2)
    assert tuple(row) == (4, 2, Fraction(1, 8), Fraction(1, 2))
    assert repr(row) == "PmfRow(n=4, count=2, mass=Fraction(1, 8), cumulative=Fraction(1, 2))"
    far = pmf_table(RunSpec(4), 31)[30]
    built = PmfRow(31, far.count, far.mass, far.cumulative)
    assert built == far and (built.n, built.count) == (31, counts.count_at(RunSpec(4), 31))


def test_pmf_table_all_zero_below_run_length():
    rows = pmf_table(RunSpec(5), 4)
    assert all(r.mass == 0 for r in rows)
    assert all(r.cumulative == 0 for r in rows)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_pmf_table_row_consistency(k):
    rows = pmf_table(RunSpec(k), 40)
    running = Fraction(0)
    for row in rows:
        assert row.mass == Fraction(row.count, 2**row.n)
        assert 0 <= row.mass <= 1
        running += row.mass
        assert row.cumulative == running
    assert rows[-1].cumulative < 1


def _no_table(*args):
    raise AssertionError("built a count table")


@pytest.mark.parametrize("k", [1, 3, 8])
def test_pmf_table_and_ratios_build_no_table(monkeypatch, k):
    """Both fold the count stream: with every table build made to fail
    they give the rows and ratios read off a table built beforehand."""
    n_max = 3 * k + 40
    c = build_count_table(RunSpec(k), n_max).values
    mass = [Fraction(c[n], 2**n) for n in range(n_max + 1)]
    rows = [(n, c[n], mass[n], sum(mass[: n + 1])) for n in range(1, n_max + 1)]
    ratios = [Fraction(c[i + 1], 2 * c[i]) for i in range(k, n_max)]
    monkeypatch.setattr(counts, "build_count_table", _no_table)
    monkeypatch.setattr(distribution, "build_count_table", _no_table)
    got = pmf_table(RunSpec(k), n_max)
    assert [(r.n, r.count, r.mass, r.cumulative) for r in got] == rows
    assert ratio_diagnostic(RunSpec(k), n_max) == ratios


@pytest.mark.parametrize("query", [pmf_table, ratio_diagnostic], ids=lambda q: q.__name__)
def test_pmf_table_and_ratios_refused_before_any_count(monkeypatch, query):
    """The table cap holds for both folds, and is checked before the
    stream makes its first count."""
    monkeypatch.setenv(TABLE_CAP_ENV, "1000")
    assert len(query(RunSpec(3), 999)) > 0
    monkeypatch.setattr(counts, "_ring", _no_table)
    with pytest.raises(CapacityError):
        query(RunSpec(3), 1000)


# The constructors ``_dyadic`` may use: the fallback, and the classmethod
# of Python 3.12 on where there is one.
COPRIME = [distribution._new_coprime]
if hasattr(Fraction, "_from_coprime_ints"):
    COPRIME.append(Fraction._from_coprime_ints)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 3000])
def test_dyadic_matches_fraction(monkeypatch, n):
    """``_dyadic`` builds its Fraction without the constructor and its
    gcd; a Python release that changes Fraction's layout must fail here
    rather than leave a fraction unreduced or broken."""
    for coprime in COPRIME:
        monkeypatch.setattr(distribution, "_coprime", coprime)
        for num in (0, 1, 3, (1 << n) - 1 or 1, 1 << n, 5 << n, 3 << (n + 9),
                    ((1 << 2 * n) + 1) << max(n - 1, 0), 7 << (n // 2)):
            want, got = Fraction(num, 1 << n), _dyadic(num, n)
            for x in (got, pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
                assert type(x) is Fraction
                assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
                assert x == want and hash(x) == hash(want)
                assert x * 3 - Fraction(1, 3) == want * 3 - Fraction(1, 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pmf_denominators_are_dyadic(k):
    for n in range(1, 30):
        den = pmf(RunSpec(k), n).denominator
        assert den & (den - 1) == 0, f"denominator {den} is not a power of two"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pmf_matches_enumeration(k):
    for n in range(1, 15):
        assert pmf(RunSpec(k), n) == Fraction(enumerate_counts(k, n), 2**n)


def test_truncated_expectation_examples():
    assert truncated_expectation(RunSpec(1), 1) == Fraction(1, 2)
    assert truncated_expectation(RunSpec(1), 10) == Fraction(509, 256)


def test_truncated_expectation_k2_horizon_30():
    """Frozen via term-by-term summation; about 0.07 below the limit 6."""
    value = truncated_expectation(RunSpec(2), 30)
    assert value == Fraction(1591423975, 268435456)
    assert 6 - value < Fraction(8, 100)
    assert 6 - value > Fraction(7, 100)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_truncated_expectation_matches_naive_sum(k):
    naive = Fraction(0)
    for n in range(1, 41):
        naive += n * pmf(RunSpec(k), n)
        assert truncated_expectation(RunSpec(k), n) == naive


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_truncated_expectation_monotone_and_bounded(k):
    limit = Fraction(2 * (2**k - 1))
    previous = Fraction(0)
    for n in range(1, 60):
        current = truncated_expectation(RunSpec(k), n)
        assert previous <= current < limit
        previous = current


def test_tail_mass_examples():
    assert tail_mass(RunSpec(1), 4) == Fraction(1, 16)
    assert tail_mass(RunSpec(3), 2) == Fraction(1)
    assert tail_mass(RunSpec(2), 10) == Fraction(9, 64)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_tail_mass_positive_and_decreasing(k):
    previous = None
    for n in range(k, 6 * k + 20):
        tail = tail_mass(RunSpec(k), n)
        assert tail > 0
        if previous is not None:
            assert tail < previous
        previous = tail


def test_tail_complements_table_cumulative():
    for k in (1, 2, 4):
        rows = pmf_table(RunSpec(k), 25)
        assert tail_mass(RunSpec(k), 25) == 1 - rows[-1].cumulative


def test_tail_mass_matches_enumeration():
    """P(X > n) must equal the exhaustive count of run-free prefixes."""
    from streakcalc.oracle import enumerate_first_run_histogram

    for k in (2, 3):
        for n in (8, 12):
            _, no_run = enumerate_first_run_histogram(k, n)
            assert tail_mass(RunSpec(k), n) == Fraction(no_run, 2**n)
