"""Tests for the exact count tables."""

from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest

from streakcalc.counts import (
    DEFAULT_TABLE_CAP,
    K_MAX,
    RunSpec,
    TABLE_CAP_ENV,
    _exact,
    build_count_table,
    count_at,
    decimal_counts,
    parse_digits,
    ratio_diagnostic,
    table_cap,
)
from streakcalc.errors import CapacityError, DomainError
from streakcalc.oracle import enumerate_counts


def test_run_spec_validation():
    assert RunSpec(1).k == 1
    assert RunSpec(K_MAX).k == K_MAX
    with pytest.raises(DomainError):
        RunSpec(0)
    with pytest.raises(DomainError):
        RunSpec(-3)
    with pytest.raises(DomainError):
        RunSpec(K_MAX + 1)
    with pytest.raises(DomainError):
        RunSpec("2")


def test_table_boundary_examples():
    assert build_count_table(RunSpec(3), 3).values[3] == 1
    assert build_count_table(RunSpec(3), 2).values == (0, 0, 0)
    table = build_count_table(RunSpec(2), 10)
    assert table.values == (0, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert table.values[4] == 2


def test_count_at_examples():
    assert count_at(RunSpec(1), 7) == 1
    assert count_at(RunSpec(5), 5) == 1
    assert count_at(RunSpec(2), 9) == 21
    assert count_at(RunSpec(4), 0) == 0
    with pytest.raises(DomainError):
        count_at(RunSpec(2), -1)


@pytest.mark.parametrize("k", range(1, 9))
def test_table_invariants(k):
    """Boundary values, recurrence, positivity and growth, re-derived naively."""
    n_max = 6 * k + 10
    values = build_count_table(RunSpec(k), n_max).values
    assert values[0] == 0
    assert all(values[n] == 0 for n in range(1, k))
    assert values[k] == 1
    for n in range(k + 1, n_max + 1):
        # naive k-term re-summation, independent of the sliding window
        assert values[n] == sum(values[n - m] for m in range(1, k + 1))
    assert all(values[n] > 0 for n in range(k, n_max + 1))
    # eventually monotone; strictly from 2k on, except k=1 where the
    # table is the constant sequence 1
    for n in range(k + 1, n_max):
        assert values[n + 1] >= values[n]
    if k > 1:
        for n in range(2 * k, n_max):
            assert values[n + 1] > values[n]


@pytest.mark.parametrize("k", range(1, 9))
def test_window_sum_identity(k):
    """c(n) - c(n-1) = c(n-1) - c(n-1-k) once both sides obey the
    recurrence, i.e. from n = k+2 on (at n = k+1 the left side is 0 but
    the right side is 1, because c(k) = 1 comes from the boundary, not
    the recurrence)."""
    values = build_count_table(RunSpec(k), 5 * k + 8).values
    for n in range(k + 2, len(values)):
        assert values[n] - values[n - 1] == values[n - 1] - values[n - 1 - k]


def test_known_specializations():
    """k=1 collapses to all ones; k=2 is the shifted Fibonacci sequence."""
    ones = build_count_table(RunSpec(1), 40).values
    assert all(v == 1 for v in ones[1:])
    fib = build_count_table(RunSpec(2), 20).values
    for n in range(4, 21):
        assert fib[n] == fib[n - 1] + fib[n - 2]
    assert fib[2] == fib[3] == 1


def test_counts_grow_past_machine_words():
    """The table must stay exact far beyond 64-bit range."""
    values = build_count_table(RunSpec(8), 400).values
    assert values[400] > 2**300
    assert values[400] == sum(values[400 - m] for m in range(1, 9))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matches_exhaustive_enumeration(k):
    for n in range(1, 13):
        assert count_at(RunSpec(k), n) == enumerate_counts(k, n)


def test_ratio_diagnostic_examples():
    assert ratio_diagnostic(RunSpec(1), 5) == [Fraction(1, 2)] * 4
    assert ratio_diagnostic(RunSpec(2), 5) == [
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 4),
    ]
    assert ratio_diagnostic(RunSpec(3), 6) == [
        Fraction(1, 2),
        Fraction(1),
        Fraction(1),
    ]


@pytest.mark.parametrize("k", range(1, 9))
def test_ratio_diagnostic_structure(k):
    """First ratio 1/2, plateau at 1 until index 2k, strictly below 1 after."""
    n_max = 6 * k + 5
    ratios = ratio_diagnostic(RunSpec(k), n_max)
    assert len(ratios) == n_max - k
    assert ratios[0] == Fraction(1, 2)
    for offset, ratio in enumerate(ratios):
        i = k + offset
        assert ratio <= 1
        if i >= 2 * k:
            assert ratio < 1, (k, i, ratio)
        elif i > k:
            assert ratio == 1


def test_ratio_diagnostic_domain():
    with pytest.raises(DomainError):
        ratio_diagnostic(RunSpec(3), 3)
    with pytest.raises(DomainError):
        ratio_diagnostic(RunSpec(3), 2)


def test_capacity_cap(monkeypatch):
    monkeypatch.delenv(TABLE_CAP_ENV, raising=False)
    assert table_cap() == DEFAULT_TABLE_CAP
    # the gate rejects before any allocation happens
    with pytest.raises(CapacityError):
        build_count_table(RunSpec(2), DEFAULT_TABLE_CAP)


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv(TABLE_CAP_ENV, "50")
    assert table_cap() == 50
    with pytest.raises(CapacityError):
        build_count_table(RunSpec(2), 50)
    build_count_table(RunSpec(2), 49)
    monkeypatch.setenv(TABLE_CAP_ENV, "not-a-number")
    with pytest.raises(DomainError):
        build_count_table(RunSpec(2), 5)
    monkeypatch.setenv(TABLE_CAP_ENV, "0")
    with pytest.raises(DomainError):
        table_cap()


# 5000 sevens: past the 4300-digit limit of int(str) and Fraction(str)
LONG = "7" * 5000
LONG_VALUE = 7 * (10**5000 - 1) // 9


@pytest.mark.parametrize(
    "parse, text",
    [
        (int, "1e3"), (int, "1.0"), (int, "inf"), (int, "1__0"), (int, "1 0"),
        (int, LONG + "e3"), (int, LONG + ".0"), (int, LONG + " 0"), (int, "x" + LONG),
        (Fraction, "1/ 2"), (Fraction, "1e3/2"), (Fraction, "nan"), (Fraction, "1/0"),
        (Fraction, "1/" + "0" * 5000), (Fraction, LONG + "/ 3"), (Fraction, LONG + "//3"),
        (Fraction, "1e-" + LONG), (Fraction, "1/" + LONG + ".5"),
    ],
    ids=lambda value: f"{value[:4]}..{value[-4:]}"
    if isinstance(value, str) and len(value) > 20 else None,
)
def test_parse_digits_rejects_what_the_parser_rejects(parse, text):
    """Reading long digits refuses every text the parser itself refuses,
    however many digits it holds."""
    with pytest.raises((ValueError, ArithmeticError)):
        parse_digits(parse, text)


def test_parse_digits_reads_any_length():
    assert parse_digits(int, " +" + LONG + " ") == LONG_VALUE
    assert parse_digits(int, "-1_0") == -10
    assert parse_digits(Fraction, "3/6") == Fraction(1, 2)
    assert parse_digits(Fraction, "1/1" + "0" * 5000) == Fraction(1, 10**5000)
    assert parse_digits(Fraction, "-" + LONG + "/" + LONG) == -1
    assert parse_digits(Fraction, LONG + "." + LONG + "e-10") == Fraction(
        LONG_VALUE * 10**5000 + LONG_VALUE, 10**5010
    )
    # an exponent is read up to 10**6 in magnitude
    assert parse_digits(Fraction, "1e-1000000") == Fraction(1, 10**1000000)
    assert parse_digits(Fraction, "3e+0_000_000_000_002") == 300
    assert parse_digits(Fraction, LONG + "e-1000000") == Fraction(
        LONG_VALUE, 10**1000000
    )


@pytest.mark.parametrize(
    "text", ["1e1000001", "1e-1000001", "1e-10000000", "1E+1_000_001", "2.5e-" + LONG]
)
def test_parse_digits_refuses_an_exponent_beyond_a_million(text):
    """10**|e| is never formed for such an exponent: Fraction("1e-10000000")
    took 11 s."""
    with pytest.raises(ValueError, match="^exponent beyond 10\\*\\*6$"):
        parse_digits(Fraction, text)


@pytest.mark.parametrize("digits", [1, 4932, 4934, 5001, 40_000])
def test_exact_renders_every_digit(digits):
    """Long numbers are written in halves; each half and the joins are
    exact, for either sign and in either part of a fraction.  Decimal's
    own conversion, quadratic but exact, is the reference."""
    n = 7 * 10 ** (digits - 1) + 123456789 * (digits > 9) - 1
    assert _exact(n) == str(Decimal(n))
    assert _exact(-n) == str(Decimal(-n))
    assert _exact(Fraction(n, 3 * n + 1)) == f"{Decimal(n)}/{Decimal(3 * n + 1)}"


def test_capacity_env_of_any_length(monkeypatch):
    """A cap longer than 4300 digits is a cap, not "must be an integer"."""
    monkeypatch.setenv(TABLE_CAP_ENV, LONG)
    assert table_cap() == LONG_VALUE
    monkeypatch.setenv(TABLE_CAP_ENV, LONG + "e1")
    with pytest.raises(DomainError, match="must be an integer"):
        table_cap()


def test_table_is_immutable():
    table = build_count_table(RunSpec(2), 5)
    with pytest.raises(AttributeError):
        table.k = 3
    assert isinstance(table.values, tuple)


@pytest.mark.parametrize("k", [*range(1, 9), 64])
def test_decimal_counts_equal_int_table(k):
    """The Decimal table the CLI writes equals the int table, exactly, and
    its integers have exponent 0, so they print as bare digits."""
    context = getcontext().copy()
    for n_max in (0, k - 1, k, 3000):
        table = list(decimal_counts(RunSpec(k), n_max))
        assert table == [Decimal(v) for v in build_count_table(RunSpec(k), n_max).values]
        assert {d.as_tuple().exponent for d in table} == {0}
    # the exact context was local
    assert repr(getcontext()) == repr(context)


def test_decimal_counts_leave_the_context_alone_between_values():
    """The stream's exact arithmetic never becomes the caller's context,
    not even while the caller holds a half-read stream; the caller's own
    28-digit arithmetic still rounds in between."""
    context = repr(getcontext())
    stream = decimal_counts(RunSpec(3), 3000)
    head = [next(stream) for _ in range(1500)]
    assert repr(getcontext()) == context
    assert len(head[-1].as_tuple().digits) > 28
    with localcontext():  # a copy of the caller's context, to keep its flags
        assert (head[-1] + 1).as_tuple().exponent > 0
    rest = list(stream)
    assert repr(getcontext()) == context
    assert head + rest == [Decimal(v) for v in build_count_table(RunSpec(3), 3000).values]


@pytest.mark.parametrize(
    "n_max, cap", [(-1, None), (DEFAULT_TABLE_CAP, None), (50, "50"), (5, "not-a-number")]
)
def test_decimal_counts_raise_as_int_table(monkeypatch, n_max, cap):
    monkeypatch.delenv(TABLE_CAP_ENV, raising=False)
    if cap is not None:
        monkeypatch.setenv(TABLE_CAP_ENV, cap)
    errors = []
    for build in (build_count_table, decimal_counts):
        with pytest.raises((CapacityError, DomainError)) as info:
            build(RunSpec(2), n_max)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
