"""Closed-form evaluation of the count generating function.

The counting series is ``y(r) = sum_{i>=k} c(i) r**i`` with ``c(i)``
the first-completion counts.  Multiplying the series by successive
powers of r and subtracting telescopes the k-step recurrence away,
leaving the closed form

    y(r) = r**k (1 - r) / (1 - 2 r + r**(k+1))

valid wherever the series converges (it does on (0, 1/2], and
``y(1/2) = 1`` exactly, which is the statement that the first-passage
distribution has total mass one).  Differentiating term by term links
the series to the expected waiting time:

    E(X) = (1/2) y'(1/2) = 2 (2**k - 1)

Two independent routes to the derivative are provided.  All arithmetic
is exact rational; comparisons between routes are exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from .counts import (
    RunSpec, _exact, _integer, _jumps, _rational, _series_sum, build_count_table,
)
from .distribution import _dyadic
from .errors import DomainError

Rational = Fraction | int | str


def denominator_core(spec: RunSpec, r: Rational) -> Fraction:
    """The shared denominator 1 - 2r + r**(k+1), exactly: D / b**(k+1) at
    r = a/b, D = b**(k+1) - 2a b**k + a**(k+1), gcd(D, b) = 1."""
    r = _rational(r, "r")
    a, b, k = r.numerator, r.denominator, spec.k
    return Fraction(b ** (k + 1) - 2 * a * b**k + a ** (k + 1), b ** (k + 1))


def _point(spec: RunSpec, r: Rational) -> tuple[int, int, int]:
    """r = a/b in lowest terms, 0 < a < b, as a, b and D, the numerator of
    the denominator there.  D is never zero: a zero would give
    b | a**(k+1), b = 1, and r would be an integer.
    """
    r = _rational(r, "r")
    if not 0 < r.numerator < r.denominator:
        raise DomainError(f"r must lie strictly inside (0, 1), got {_exact(r)}")
    return r.numerator, r.denominator, denominator_core(spec, r).numerator


def eval_y(spec: RunSpec, r: Rational) -> Fraction:
    """Closed form of the counting series at r in (0, 1): a**k (b - a) / D."""
    a, b, d = _point(spec, r)
    return Fraction(a**spec.k * (b - a), d)


def eval_y_prime(spec: RunSpec, r: Rational) -> Fraction:
    """Derivative of the closed form, as a single simplified fraction:

        y'(r) = r**(k-1) (-r**(k+1) + 2k r**2 - 3k r + k + r)
                / (1 - 2r + r**(k+1))**2 = a**(k-1) b**2 P / D**2,
        P = -a**(k+1) + b**(k-1) (2k a**2 - 3k a b + k b**2 + a b).
    """
    a, b, d = _point(spec, r)
    k = spec.k
    p = b ** (k - 1) * (2 * k * a * a - 3 * k * a * b + k * b * b + a * b) - a ** (k + 1)
    return Fraction(a ** (k - 1) * b * b * p, d * d)


def eval_y_prime_quotient_rule(spec: RunSpec, r: Rational) -> Fraction:
    """Derivative rederived via the quotient rule on y = N/D.

    Independent cross-check for :func:`eval_y_prime`: with
    N = r**k (1-r) and D = 1 - 2r + r**(k+1),

        y' = (N' D - N D') / D**2,
        N' = k r**(k-1) (1-r) - r**k,   D' = -2 + (k+1) r**k,

    here over the integers b**(k+1) N, b**k N', b**(k+1) D and b**k D',
    which give y' times 1/b.
    """
    a, b, d = _point(spec, r)
    k = spec.k
    n_prime = k * a ** (k - 1) * (b - a) - a**k
    d_prime = (k + 1) * a**k - 2 * b**k
    return Fraction(b * (n_prime * d - a**k * (b - a) * d_prime), d * d)


def expectation(spec: RunSpec) -> Fraction:
    """Expected number of trials until the first k-run: (1/2) y'(1/2).

    Only r = 1/2 carries the probabilistic meaning (fair coin); for
    other r use :func:`eval_y_prime` directly as an analytic function.
    The denominator at r = 1/2 is 2**-(k+1), never zero.
    """
    return eval_y_prime(spec, Fraction(1, 2)) / 2


def expectation_closed_form(spec: RunSpec) -> Fraction:
    """The simplified expectation 2 (2**k - 1), as an exact rational."""
    return Fraction(2 * (2**spec.k - 1))


def series_matches_closed_form(
    spec: RunSpec, r: Rational, n_max: int
) -> Fraction:
    """Exact gap |sum_{i=k..n_max} c(i) r**i  -  y(r)|.

    Valid for r in (0, 1/2], where the series provably converges.  The
    gap is the series tail, so it decreases in n_max; callers assert it
    below whatever bound suits their horizon.  The partial sum folds a
    count table below the crossover of ``counts._jumps`` and jumps its
    own order-(k+1) recurrence from it on, in O(log n_max) products.
    """
    r = _rational(r, "r")
    if not 0 < r <= Fraction(1, 2):
        raise DomainError(f"r must lie in (0, 1/2], got {_exact(r)}")
    _integer(n_max, "n_max", spec.k)
    # With r = a/b, acc is sum_i c(i) a**(i-k) b**(n_max-i): the partial
    # sum times b**n_max / a**k, in integers alone.
    a, b = r.numerator, r.denominator
    if _jumps(spec.k + 1, n_max):
        acc = _series_sum(spec.k, a, b, n_max)
    else:
        values = build_count_table(spec, n_max).values
        acc, power = 0, 1
        for i in range(spec.k, n_max + 1):
            acc = acc * b + values[i] * power
            power *= a
    t = b.bit_length() - 1  # a dyadic sum at b = 2**t needs no gcd
    acc *= a**spec.k
    total = _dyadic(acc, t * n_max) if b == 1 << t else Fraction(acc, b**n_max)
    return abs(total - eval_y(spec, r))
