"""Exact first-passage distribution for a fair coin.

Let ``X`` be the trial on which the first run of ``k`` consecutive
heads is completed.  With a fair coin every length-``n`` outcome
sequence has probability ``2**-n``, so

    P(X = n) = c(n) / 2**n

with ``c(n)`` the first-completion count from :mod:`streakcalc.counts`.
Everything in this module is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .counts import (
    RunSpec, _integer, _jump_count, _jumps, _partial_sum, _stream, build_count_table,
    count_at,
)

# CLI default truncation horizon, as a multiple of the run length.
DEFAULT_HORIZON_FACTOR = 64


def _coprime(num: int, den: int) -> Fraction:
    """num / den, den > 0 and coprime, built on every version as Python
    3.12's ``Fraction._from_coprime_ints`` builds it: 0.27 us a call, where
    the constructor takes 0.70 us even unnormalized (CPython 3.11, x86-64)."""
    new = object.__new__(Fraction)
    new._numerator, new._denominator = num, den
    return new


def _dyadic(num: int, n: int) -> Fraction:
    """num / 2**n in lowest terms, for num >= 0, reduced by the trailing
    zeros of num rather than by a gcd."""
    if num & 1:
        return _coprime(num, 1 << n)
    shift = min(n, (num & -num).bit_length() - 1) if num else n
    return _coprime(num >> shift, 1 << (n - shift))


# x & _LOW costs O(1) however long x is, and keeps the trailing zeros
# of x unless it is 0.
_LOW = (1 << 30) - 1

PmfRow = namedtuple("PmfRow", "n count mass cumulative")
PmfRow.__doc__ = """One row of the tabulated distribution: exact mass and CDF at n.
An immutable named tuple."""


def pmf(spec: RunSpec, n: int) -> Fraction:
    """P(X = n), reduced. Zero for n below the run length."""
    _integer(n, "n", 1)
    return _dyadic(count_at(spec, n), n)


def pmf_table(spec: RunSpec, n_max: int) -> list[PmfRow]:
    """Rows for n = 1..n_max with exact running cumulative probability.

    The counts are folded as they stream, and the cumulative column is
    built from an integer accumulator at scale ``2**n`` (cum(n) =
    2 cum(n-1) + c(n)), one bigint op per row rather than repeated
    re-summation.  The final cumulative is always < 1: total mass 1 is
    reached only in the limit.

    Each row is reduced as :func:`_dyadic` reduces, inline: from n = k on
    0 < c(n) <= cum(n) < 2**n, and cum(n) is odd exactly when c(n) is,
    so one parity test picks the branch for both columns.
    """
    _integer(n_max, "n_max", 1)
    k = spec.k
    stream = islice(_stream(k, n_max), 1, None)  # the cap is checked here
    new, row, zero = object.__new__, tuple.__new__, Fraction(0)
    rows = [row(PmfRow, (n, c, zero, zero)) for n, c in zip(range(1, k), stream)]
    append = rows.append
    powers = [1 << n for n in range(k)]  # 2**0..2**n, shared by every row's two denominators
    cum = 0  # cumulative numerator at denominator 2**n
    for n, c in enumerate(stream, k):
        den = 1 << n
        powers.append(den)
        cum = 2 * cum + c
        mass, total = new(Fraction), new(Fraction)
        if c & 1:
            mass._numerator, mass._denominator = c, den
            total._numerator, total._denominator = cum, den
        else:
            low = c & _LOW or c
            shift = (low & -low).bit_length() - 1
            mass._numerator, mass._denominator = c >> shift, powers[n - shift]
            low = cum & _LOW or cum
            shift = (low & -low).bit_length() - 1
            total._numerator, total._denominator = cum >> shift, powers[n - shift]
        append(row(PmfRow, (n, c, mass, total)))
    return rows


def truncated_expectation(spec: RunSpec, n_max: int) -> Fraction:
    """Exact partial sum of n * P(X = n) for n = 1..n_max.

    Monotone non-decreasing in n_max and strictly below the full
    expectation 2 (2**k - 1) for every finite horizon.  With n = n_max,
    summation by parts and the identity of :func:`tail_mass` give
    2**n E[X; X <= n] = 2**(n+1) c(2k+1) - n c(n+k+1) - 2 c(n+2k+1), and
    a far horizon reads c(2k+1) off the count stream and the other two
    off one jumped form: it is still the series, from counts alone.
    A near horizon folds the counts as they stream, holding k of them.
    """
    _integer(n_max, "n_max", 1)
    return _dyadic(_partial_sum(spec.k, n_max), n_max)


def tail_mass(spec: RunSpec, n_max: int) -> Fraction:
    """Exact P(X > n_max); strictly positive, strictly decreasing for n_max >= k.

    A run-free sequence of n_max trials, then a tail and k heads, first
    completes a run at n_max + k + 1, so a far horizon reads P(X > n_max)
    = c(n_max + k + 1) / 2**n_max off one jumped term.  The capacity check
    is that of a table up to n_max either way.
    """
    _integer(n_max, "n_max", 1)
    if _jumps(spec.k, n_max):
        return _dyadic(_jump_count(spec.k, n_max + spec.k + 1), n_max)
    values = build_count_table(spec, n_max).values
    cum_scaled = 0
    for n in range(1, n_max + 1):
        cum_scaled = 2 * cum_scaled + values[n]
    return _dyadic((1 << n_max) - cum_scaled, n_max)
