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

import os
from dataclasses import dataclass
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
    InvalidOperation, Overflow, Rounded, localcontext,
)
from fractions import Fraction

from .errors import CapacityError, DomainError

# Hard cap on run length: tables and closed forms stay desk-sized.
K_MAX = 64

# Default cap on table entries; override with the environment variable.
DEFAULT_TABLE_CAP = 100_000
TABLE_CAP_ENV = "STREAKCALC_TABLE_CAP"


def table_cap() -> int:
    """Current table capacity (entries), honoring the env override."""
    raw = os.environ.get(TABLE_CAP_ENV)
    if raw is None:
        return DEFAULT_TABLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"{TABLE_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise DomainError(f"{TABLE_CAP_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class RunSpec:
    """Validated run length: how many consecutive heads end the experiment."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise DomainError(f"run length must be an integer, got {self.k!r}")
        if self.k < 1:
            raise DomainError(f"run length must be >= 1, got {self.k}")
        if self.k > K_MAX:
            raise DomainError(f"run length must be <= {K_MAX}, got {self.k}")


@dataclass(frozen=True)
class CountTable:
    """Immutable table of first-completion counts, indexed 0..n_max.

    ``values[n]`` is the exact number of length-``n`` sequences whose
    first k-run ends at trial ``n``.  Safe to share across threads.
    """

    k: int
    values: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def _window(k: int, n_max: int, num: type) -> list:
    """Counts c(0..n_max) as ``num`` values, in one forward pass.

    Maintains a sliding window sum of the last ``k`` entries, so each
    entry costs O(1) additions regardless of ``k``.  Both number types
    share this loop and its size check.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    cap = table_cap()
    if n_max + 1 > cap:
        raise CapacityError(
            f"table of {n_max + 1} entries exceeds cap of {cap} "
            f"(override with {TABLE_CAP_ENV})"
        )
    vals = [num(0)] * (n_max + 1)
    if n_max >= k:
        vals[k] = num(1)
        # window holds vals[n-1] + ... + vals[n-k] for the next n.
        window = num(1)
        for n in range(k + 1, n_max + 1):
            vals[n] = window
            window += vals[n] - vals[n - k]
    return vals


def build_count_table(spec: RunSpec, n_max: int) -> CountTable:
    """Build the count table for indices 0..n_max in one forward pass.

    Raises :class:`CapacityError` when the table would exceed the
    configured capacity (default 100 000 entries).
    """
    return CountTable(k=spec.k, values=tuple(_window(spec.k, n_max, int)))


def decimal_counts(spec: RunSpec, n_max: int) -> list[Decimal]:
    """The counts of :func:`build_count_table` as exact ``Decimal`` values.

    For writing tables out: ``str`` of a ``Decimal`` is linear in its
    digits and has no digit limit, where ``str`` of an ``int`` is
    quadratic and refuses more than 4300 digits.  The local context has
    unbounded precision and traps ``Inexact`` and ``Rounded``, so every
    addition is exact or raises.  Same errors as :func:`build_count_table`.
    """
    exact = Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
        traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
    )
    with localcontext(exact):
        return _window(spec.k, n_max, Decimal)


def count_at(spec: RunSpec, n: int) -> int:
    """Exact count of length-n sequences whose first k-run ends at n."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return build_count_table(spec, n).values[n]


def ratio_diagnostic(spec: RunSpec, n_max: int) -> list[Fraction]:
    """Successive term ratios c(i+1) / (2 c(i)) for i = k .. n_max-1.

    These are the finite ratios whose limit governs convergence of the
    half-weighted count series.  The first ratio is always 1/2, ratios
    for k < i < 2k equal exactly 1 (counts double while the window has
    no nonzero entry falling out), and every ratio with i >= 2k is
    strictly below 1.  All ratios are returned; callers decide which
    range to assert on.
    """
    if n_max <= spec.k:
        raise DomainError(
            f"n_max must exceed the run length to form ratios, "
            f"got n_max={n_max} with k={spec.k}"
        )
    table = build_count_table(spec, n_max)
    v = table.values
    return [Fraction(v[i + 1], 2 * v[i]) for i in range(spec.k, n_max)]
