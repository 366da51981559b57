"""Exact tables of first-completion run counts.

For a run length ``k``, let ``c(n)`` be the number of length-``n``
heads/tails sequences whose first run of ``k`` consecutive heads ends
exactly at trial ``n``.  The boundary values are ``c(0) = 0``,
``c(n) = 0`` for ``n < k`` and ``c(k) = 1``; for ``n > k`` the counts
obey the k-step Fibonacci recurrence

    c(n) = c(n-1) + c(n-2) + ... + c(n-k)

(classify each qualifying sequence by the position of its first tail).
Counts grow geometrically with ratio approaching 2, so everything here
is exact arbitrary-precision arithmetic, on ``int`` or on ``Decimal``;
a 64-bit table would overflow near n = 70.
"""

from __future__ import annotations

import operator
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
    InvalidOperation, Overflow, Rounded,
)
from fractions import Fraction
from itertools import accumulate, cycle, islice, pairwise

from .errors import CapacityError, DomainError

# Hard cap on run length: tables and closed forms stay desk-sized.
K_MAX = 64

# Default cap on the entries of a count table or stream; override with
# the environment variable.  A stream holds only the last k counts, so the
# cap bounds time and output size, not memory.
DEFAULT_TABLE_CAP = 100_000
TABLE_CAP_ENV = "STREAKCALC_TABLE_CAP"


# Exact decimal arithmetic, kept apart from the caller's context:
# unbounded precision, and every inexact or rounded result trapped, so
# each operation is exact or raises.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


def parse_digits(parse, text: str):
    """``parse(text)``, with ``parse`` ``int`` or ``Fraction``, for digit
    strings of any length: their string conversion refuses more than
    4300 digits in a row, and ``Decimal`` has no such limit.  Raises
    ``ValueError`` or ``ArithmeticError`` for what ``parse`` rejects,
    and ``ValueError`` for an exponent beyond ``10**6`` in magnitude."""
    # parse forms 10**|exponent| whole: 11 s for an exponent of -10**7
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 7 or int(digits or 0) > 10**6:
        raise ValueError("exponent beyond 10**6")
    try:
        return parse(text)
    except ValueError:
        # the text parses iff it parses with each run of digits cut to
        # one, which the limit never refuses
        parse(re.sub(r"\d+", "1", text))
    num, _, den = text.partition("/")
    return parse(_decimal_fraction(num) / _decimal_fraction(den or "1"))


def _decimal_fraction(text: str) -> Fraction:
    # Decimal's own int conversion takes 0.7 s for 131 000 digits, in
    # quadratic time; halves joined by Karatsuba products take 0.08 s
    sign, digits, exponent = Decimal(text).as_tuple()
    return (-1) ** sign * _digits_int(digits) * Fraction(10) ** exponent


def _digits_int(digits: tuple[int, ...]) -> int:
    if len(digits) <= 4300:
        return int("".join(map(str, digits)))
    low = len(digits) // 2
    return _digits_int(digits[:-low]) * 10**low + _digits_int(digits[-low:])


def _decimal(n: int) -> Decimal:
    # Decimal(n) is quadratic in the digits: 2.0 s for 3 * 10**5 of them.
    # Halves joined by exact products, which libmpdec forms in
    # subquadratic time, take 0.15 s.
    if n.bit_length() <= 1 << 14:
        return Decimal(n)
    half = n.bit_length() // 2
    low = _decimal(n & ((1 << half) - 1))
    return _EXACT.fma(_decimal(n >> half), _EXACT.power(2, half), low)


def _exact(value: Fraction | int) -> str:
    """``str(value)`` ("num/den", or an integer when den is 1), written
    through ``Decimal``, which has no 4300-digit limit, in time
    subquadratic in the digits."""
    num = str(_decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{_decimal(value.denominator)}"


def _integer(value, what: str, least: int | None = None) -> None:
    """Refuse a non-``int``, a ``bool`` or a value below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        got = _exact(value) if isinstance(value, Fraction) else repr(value)
        raise DomainError(f"{what} must be an integer, got {got}")
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {_exact(value)}")


def _rational(value, what: str) -> Fraction:
    """``value`` as a ``Fraction``, a ``str`` read by :func:`parse_digits`."""
    try:
        if isinstance(value, str):
            return parse_digits(Fraction, value)
        return Fraction(value)
    except (ValueError, TypeError, ArithmeticError):
        raise DomainError(f"{what} must be an exact rational, got {value!r}")


def table_cap() -> int:
    """Current table capacity (entries), honoring the env override."""
    raw = os.environ.get(TABLE_CAP_ENV)
    if raw is None:
        return DEFAULT_TABLE_CAP
    try:
        cap = parse_digits(int, raw)
    except (ValueError, ArithmeticError):
        raise DomainError(f"{TABLE_CAP_ENV} must be an integer, got {raw!r}")
    _integer(cap, TABLE_CAP_ENV, 1)
    return cap


@dataclass(frozen=True)
class RunSpec:
    """Validated run length: how many consecutive heads end the experiment."""

    k: int

    def __post_init__(self) -> None:
        _integer(self.k, "run length", 1)
        if self.k > K_MAX:
            raise DomainError(f"run length must be <= {K_MAX}, got {_exact(self.k)}")


@dataclass(frozen=True)
class CountTable:
    """Immutable table of first-completion counts, indexed 0..n_max.

    ``values[n]`` is the exact number of length-``n`` sequences whose
    first k-run ends at trial ``n``.  Safe to share across threads.
    """

    k: int
    values: tuple[int, ...]


def _check_table(n_max: int) -> None:
    """Raise unless a table of c(0..n_max) is within the configured cap."""
    _integer(n_max, "n_max", 0)
    cap = table_cap()
    if n_max + 1 > cap:
        raise CapacityError(
            f"table of {_exact(n_max + 1)} entries exceeds cap of {_exact(cap)} "
            f"(override with {TABLE_CAP_ENV})"
        )


def _stream(
    k: int, n_max: int, num: type = int, add=operator.add, sub=operator.sub
) -> Iterator:
    """Counts c(0..n_max) as ``num`` values, in one forward pass that
    keeps only the last ``k`` of them.

    The capacity check runs at the call, before the first value.  Past
    the seeds, c(n + 1) = c(n) + c(n) - c(n - k) for n > k, so each entry
    costs two additions regardless of ``k``.  ``add`` and ``sub`` do that
    arithmetic, so a ``Decimal`` stream can keep it in a context of its
    own.  Every table, fold and seed in this package reads this stream.
    """
    _check_table(n_max)
    return _ring(k, n_max, num(0), num(1), add, sub)


def _ring(k, n_max, zero, one, add, sub):
    """The values of :func:`_stream`, from the seeds ``zero`` and ``one``."""
    yield from [zero] * min(k, n_max + 1)
    if n_max < k:
        return
    yield one
    # A list indexed through cycle() kept build_count_table within 3% of
    # a loop filling a whole list (CPython 3.11); a deque ran 5-12% slower.
    ring = [zero] * (k - 1) + [one]  # c(1..k); c(n - k) sits in slot (n - k - 1) % k
    c = one  # c(k + 1)
    for i in islice(cycle(range(k)), n_max - k):
        yield c
        old = ring[i]
        ring[i] = c
        c = sub(add(c, c), old)


def _jumps(d: int, n: int) -> bool:
    """Whether :func:`_jump` beats a table up to n for term n of an
    order-d recurrence; if so, the capacity check of that table runs
    here, before any work, so the jump never moves the cap boundary.

    Set from timings of both routes (CPython 3.11, 2-core x86-64, the
    lesser of two medians of 5, n up to 10**5).  At the bound,
    max(512, 4 d**3), ``count_at`` jumped in 0.36-0.75 of its fold time
    for d from 1 to 28, and in 0.58-1.50 of it at half the bound, above 1
    for d = 3, 4, 6.  ``tail_mass`` and ``truncated_expectation``, d = k,
    jumped in 0.17-0.38 and 0.15-0.31 of their time for k = 1, 2, 3, 6,
    8, 12, 16, 20, 24 and 29, and in 0.20-0.71 and 0.13-0.58 of it at
    half the bound.  The series check, d = k + 1, jumped in 0.05-0.47 of
    it for k = 1, 3, 6, 12 and 20 at r = 1/2 and 2/5.  A squaring costs
    d**2 products of n-bit numbers, so the bound grows faster than d**2.
    Within the default cap, counts and partial sums for k >= 30 and the
    series for k >= 29 never jump.  Most jumps win below the bound, but
    benchmarked horizons jump at 5 or more times the bound, or fold
    where a jump saves microseconds: one bound serves.
    """
    if n < max(512, 4 * d ** 3):
        return False
    _check_table(n)
    return True


def _square(a: list[int]) -> list[int]:
    """Square of a polynomial given as a coefficient list; each cross
    product is formed once and doubled."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = x << 1
            for j in range(i + 1, len(a)):
                out[i + j] += x2 * a[j]
    return out


def _residue(q: list[int], e: int) -> list[int]:
    """x**e modulo x**d - q[0] x**(d-1) - ... - q[d-1], d = len(q), as
    coefficients r[0..d-1] of 1, x, ..., x**(d-1).

    Fiduccia's method: if a(n) = q[0] a(n-1) + ... + q[d-1] a(n-d), then
    a(e + j) = r[0] a(j) + ... + r[d-1] a(j + d - 1) for every j >= 0.
    x**e is found by square-and-multiply, O(log e) products of residues.
    """
    d = len(q)

    def fold(poly: list[int]) -> list[int]:
        # fold x**t = x**(t-d) * (q[0] x**(d-1) + ... + q[d-1]), top down
        for t in range(len(poly) - 1, d - 1, -1):
            top = poly.pop()
            if top:
                for j, qj in enumerate(q, 1):
                    poly[t - j] += qj * top
        return poly

    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        r = fold(_square(r))
        if bit == "1":
            r = fold([0] + r)
    return r


def _jump(q: list[int], e: int, seeds: list[int]) -> int:
    """a(e) for a(n) = q[0] a(n-1) + ... + q[d-1] a(n-d), n >= d, off
    seeds a(0..2d-1).  With r the residue of x**h, e = 2h + o, x**e =
    x**o (x**h)**2 gives a(e) = sum of r[i] r[l] a(i + l + o), a Hankel
    form: d**2 products by small seeds and d big ones, where a last
    squaring and fold would form d (d + 1) / 2 big products."""
    r, seeds = _residue(q, e // 2), seeds[e % 2:]
    return sum(x * sum(map(operator.mul, r, seeds[i:])) for i, x in enumerate(r))


def _jump_count(k: int, n: int) -> int:
    """c(n), n >= 1, by :func:`_jump`: b(m) = c(m + 1) obeys the k-step
    recurrence from m = k on, so c(n) = b(n - 1), off c(1..2k)."""
    return _jump([1] * k, n - 1, list(_stream(k, 2 * k))[1:])


def _partial_sum(k: int, n: int) -> int:
    """S(n) = sum of i c(i) 2**(n-i) over i <= n: the stream folded by
    S(n) = 2 S(n-1) + n c(n) below the crossover of :func:`_jumps`, and
    :func:`_jump_partial_sum` from it on."""
    if _jumps(k, n):
        return _jump_partial_sum(k, n)
    acc = 0
    for i, c in enumerate(_stream(k, n)):
        acc = 2 * acc + i * c
    return acc


def _jump_partial_sum(k: int, n: int) -> int:
    """S(n) of :func:`_partial_sum`, n >= 1, off one residue.  With
    T(m) = sum of c(i) 2**(m-i) over i <= m = 2**m - c(m+k+1) (as in
    ``tail_mass``), summation by parts gives S(n) = sum of 2**(n-m)
    c(m+k+1) over m < n, less n c(n+k+1), and that sum is
    2 (T(n+k) - 2**n T(k)), so
    S(n) = 2**(n+1) c(2k+1) - n c(n+k+1) - 2 c(n+2k+1).  The last two
    terms are g(n+k) for g(m) = n c(m+1) + 2 c(m+k+1), which obeys the
    k-step recurrence from m = k on: one :func:`_jump`, off c(1..3k);
    c(2k+1) is streamed.  It is still the series, never the closed form.
    """
    c = list(_stream(k, 3 * k))
    g = [n * x + 2 * y for x, y in zip(c[1:], c[k + 1:])]
    return (c[2 * k + 1] << (n + 1)) - _jump([1] * k, n + k, g)


def _series_sum(k: int, a: int, b: int, n: int) -> int:
    """A(n) = sum of c(i) a**(i-k) b**(n-i) over k <= i <= n, for n >= k:
    the partial sum of the counting series at r = a/b times b**n / a**k.

    A(m) = b A(m-1) + d(m), with d(m) = c(m) a**(m-k) obeying
    d(m) = a d(m-1) + a**2 d(m-2) + ... + a**k d(m-k), so :func:`_jump`
    jumps the order-(k+1) recurrence of A, whose characteristic
    polynomial is (x - b) Q(x), Q(x) = x**k - a x**(k-1) - ... - a**k,
    from A(k..3k+1).
    """
    weighted = (c * a**i for i, c in enumerate(islice(_stream(k, 3 * k + 1), k, None)))
    seeds = list(accumulate(weighted, lambda s, d: b * s + d))
    q = [1] + [-(a**j) for j in range(1, k + 1)]
    char = [x - b * y for x, y in zip(q + [0], [0] + q)]  # (x - b) Q(x)
    return _jump([-x for x in char[1:]], n - k, seeds)


def build_count_table(spec: RunSpec, n_max: int) -> CountTable:
    """Build the count table for indices 0..n_max in one forward pass.

    Raises :class:`CapacityError` when the table would exceed the
    configured capacity (default 100 000 entries).
    """
    return CountTable(k=spec.k, values=tuple(_stream(spec.k, n_max)))


def decimal_counts(spec: RunSpec, n_max: int) -> Iterator[Decimal]:
    """The counts of :func:`build_count_table` as exact ``Decimal``
    values, yielded one at a time; only the last k are held.

    For writing tables out: ``str`` of a ``Decimal`` is linear in its
    digits and has no digit limit, where ``str`` of an ``int`` is
    quadratic and refuses more than 4300 digits.  The additions go
    through the methods of this module's exact context, with unbounded
    precision and ``Inexact`` and ``Rounded`` trapped, so each is exact
    or raises; the caller's decimal context is never touched, also
    between two values.  Same errors as :func:`build_count_table`, raised
    at the call, before any value.
    """
    return _stream(spec.k, n_max, Decimal, _EXACT.add, _EXACT.subtract)


def count_at(spec: RunSpec, n: int) -> int:
    """Exact count of length-n sequences whose first k-run ends at n.

    Costs O(log n) big-integer products from n = max(512, 4 k**3) on,
    and one pass over the counts up to n, holding k of them, below; the
    capacity check is that of a table up to n either way.
    """
    _integer(n, "n", 0)
    if _jumps(spec.k, n):
        return _jump_count(spec.k, n)
    return next(islice(_stream(spec.k, n), n, None))


def ratio_diagnostic(spec: RunSpec, n_max: int) -> list[Fraction]:
    """Successive term ratios c(i+1) / (2 c(i)) for i = k .. n_max-1.

    These are the finite ratios whose limit governs convergence of the
    half-weighted count series.  The first ratio is always 1/2, ratios
    for k < i < 2k equal exactly 1 (counts double while the window has
    no nonzero entry falling out), and every ratio with i >= 2k is
    strictly below 1.  All ratios are returned; callers decide which
    range to assert on.
    """
    _integer(n_max, "n_max", spec.k + 1)
    counts = islice(_stream(spec.k, n_max), spec.k, None)  # c(k..n_max)
    return [Fraction(b, 2 * a) for a, b in pairwise(counts)]
