"""Tests for the closed-form generating function and expectation."""

from fractions import Fraction
from math import gcd

import pytest

from streakcalc.counts import RunSpec, _jumps, build_count_table
from streakcalc.distribution import tail_mass
from streakcalc.errors import DomainError
from streakcalc.genfunc import (
    denominator_core,
    eval_y,
    eval_y_prime,
    eval_y_prime_quotient_rule,
    expectation,
    expectation_closed_form,
    series_matches_closed_form,
)

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "k, r, expected",
    [
        (1, HALF, Fraction(1)),
        (3, HALF, Fraction(1)),
        (2, Fraction(1, 4), Fraction(1, 11)),
    ],
)
def test_eval_y_examples(k, r, expected):
    assert eval_y(RunSpec(k), r) == expected


def test_y_at_half_is_one_for_all_k():
    """Total probability mass: y(1/2) = 1 exactly, for every supported k."""
    for k in range(1, 33):
        assert eval_y(RunSpec(k), HALF) == 1


@pytest.mark.parametrize("r", [0, 1, Fraction(-1, 2), Fraction(3, 2)])
def test_eval_y_domain_errors(r):
    with pytest.raises(DomainError):
        eval_y(RunSpec(2), r)


def test_eval_y_rejects_garbage():
    with pytest.raises(DomainError):
        eval_y(RunSpec(2), "h")


def test_eval_y_reads_a_rational_of_any_length():
    """A string past the 4300-digit limit of Fraction(str) is a rational,
    and one outside (0, 1) is refused with its value in the message."""
    assert eval_y(RunSpec(3), "1/1" + "0" * 5000) == eval_y(
        RunSpec(3), Fraction(1, 10**5000)
    )
    with pytest.raises(DomainError, match="got 1" + "0" * 5000 + "$"):
        eval_y(RunSpec(3), "1" + "0" * 5000)


def test_eval_y_refuses_an_exponent_beyond_a_million():
    """parse_digits refuses it, so the rational is refused."""
    assert eval_y(RunSpec(3), "1e-1000") == eval_y(RunSpec(3), Fraction(1, 10**1000))
    message = "^r must be an exact rational, got '1e-2000000'$"
    with pytest.raises(DomainError, match=message):
        eval_y(RunSpec(3), "1e-2000000")


@pytest.mark.parametrize(
    "k, expected",
    [(1, Fraction(4)), (2, Fraction(12)), (3, Fraction(28))],
)
def test_eval_y_prime_at_half(k, expected):
    assert eval_y_prime(RunSpec(k), HALF) == expected
    assert eval_y_prime_quotient_rule(RunSpec(k), HALF) == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_derivative_routes_agree_everywhere(k):
    """The simplified single-fraction derivative must equal the quotient
    rule applied to y = N/D, at any rational point in (0, 1)."""
    points = [Fraction(j, 37) for j in range(1, 19)]
    points += [HALF, Fraction(2, 3), Fraction(9, 10)]
    for r in points:
        assert eval_y_prime(RunSpec(k), r) == eval_y_prime_quotient_rule(
            RunSpec(k), r
        ), (k, r)


@pytest.mark.parametrize("k", [1, 2])
def test_central_difference_tracks_derivative_tightly(k):
    """For small k the h = 2**-20 central difference lands within 2**-30."""
    h = Fraction(1, 2**20)
    spec = RunSpec(k)
    fd = (eval_y(spec, HALF + h) - eval_y(spec, HALF - h)) / (2 * h)
    assert abs(fd - eval_y_prime(spec, HALF)) < Fraction(1, 2**30)


@pytest.mark.parametrize("k", range(1, 7))
def test_central_difference_converges_quadratically(k):
    """Shrinking h by 4 shrinks the exact central-difference error by
    roughly 16; at minimum it must shrink."""
    spec = RunSpec(k)
    exact = eval_y_prime(spec, HALF)

    def fd_error(h):
        fd = (eval_y(spec, HALF + h) - eval_y(spec, HALF - h)) / (2 * h)
        return abs(fd - exact)

    coarse = fd_error(Fraction(1, 2**10))
    fine = fd_error(Fraction(1, 2**12))
    assert fine < coarse
    assert coarse / fine > 8


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_termwise_derivative_series_climbs_to_y_prime(k):
    """Differentiating the series term by term gives sum of
    i * c(i) * (1/2)**(i-1); its partial sums must increase strictly
    toward y'(1/2) while staying below it."""
    spec = RunSpec(k)
    limit = eval_y_prime(spec, HALF)
    values = build_count_table(spec, 120).values
    partial = Fraction(0)
    previous = Fraction(-1)
    for i in range(1, 121):
        partial += i * values[i] * HALF ** (i - 1)
        assert partial < limit
        if i > k:
            assert partial > previous
        previous = partial
    # the partial sum is exactly twice the truncated expectation
    from streakcalc.distribution import truncated_expectation

    assert partial == 2 * truncated_expectation(spec, 120)


def test_expectation_examples():
    assert expectation(RunSpec(1)) == 2
    assert expectation(RunSpec(2)) == 6
    assert expectation(RunSpec(3)) == 14


def test_expectation_closed_form_examples():
    assert expectation_closed_form(RunSpec(1)) == 2
    assert expectation_closed_form(RunSpec(5)) == 62
    assert expectation_closed_form(RunSpec(10)) == 2046


def test_expectation_routes_agree_exactly():
    for k in range(1, 17):
        assert expectation(RunSpec(k)) == expectation_closed_form(RunSpec(k))


def test_series_gap_is_exactly_the_tail_for_fair_coin():
    """At r = 1/2 the partial series is the CDF and y is 1, so the gap
    must equal the exact tail mass."""
    assert series_matches_closed_form(RunSpec(1), HALF, 10) == Fraction(1, 1024)
    for k in (1, 2, 3, 4):
        for n_max in (k, 2 * k + 3, 30):
            assert series_matches_closed_form(RunSpec(k), HALF, n_max) == (
                tail_mass(RunSpec(k), n_max)
            )


def test_series_gap_frozen_value_k2():
    gap = series_matches_closed_form(RunSpec(2), HALF, 64)
    assert gap == tail_mass(RunSpec(2), 64)
    assert Fraction(1, 10**6) < gap < Fraction(2, 10**6)


@pytest.mark.parametrize(
    "r", [Fraction(1, 4), Fraction(3, 8), Fraction(1, 3), Fraction(2, 5), Fraction(7, 19)]
)
def test_series_gap_equals_fraction_sum_off_the_fair_coin(r):
    """Away from r = 1/2 the gap is not a tail mass; check it exactly
    against the partial series summed term by term in Fractions."""
    for k in (1, 3, 5):
        spec = RunSpec(k)
        values = build_count_table(spec, 90).values
        for n_max in (k, k + 1, 2 * k + 3, 40, 90):
            partial = sum(values[i] * r**i for i in range(k, n_max + 1))
            assert series_matches_closed_form(spec, r, n_max) == abs(
                partial - eval_y(spec, r)
            ), (k, r, n_max)


@pytest.mark.parametrize(
    "r", [Fraction(2, 5), Fraction(3, 10), Fraction(1, 3), Fraction(4, 9)], ids=str
)
def test_series_gap_reduces_as_the_constructor_on_both_branches(r):
    """Off the dyadic points the partial sum S / b**n skips the gcd when
    gcd(S, b) = 1.  The horizons 460..563 straddle the crossover at 512,
    and each side must give both a coprime S and one sharing a factor
    with b; every gap equals the one built with the constructor."""
    a, b = r.numerator, r.denominator
    for k in (2, 3):
        spec = RunSpec(k)
        y = r**k * (1 - r) / (1 - 2 * r + r ** (k + 1))
        values = build_count_table(spec, 563).values
        scaled = 0  # sum of c(i) a**i b**(n - i) for i <= n
        hit = set()
        for n in range(k, 564):
            scaled = scaled * b + values[n] * a**n
            if n >= 460:
                hit.add((_jumps(k + 1, n), gcd(scaled, b) == 1))
                got = series_matches_closed_form(spec, r, n)
                want = abs(Fraction(scaled, b**n) - y)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hit == {(False, False), (False, True), (True, False), (True, True)}, (k, hit)


def test_series_gap_below_quarter_point():
    gap = series_matches_closed_form(RunSpec(3), Fraction(1, 4), 40)
    assert gap < Fraction(1, 10**12)


def test_series_gap_decreases_with_horizon():
    spec = RunSpec(3)
    r = Fraction(2, 5)
    assert series_matches_closed_form(spec, r, 40) < series_matches_closed_form(
        spec, r, 20
    )


def test_series_gap_domain_errors():
    with pytest.raises(DomainError):
        series_matches_closed_form(RunSpec(2), Fraction(3, 5), 20)
    with pytest.raises(DomainError):
        series_matches_closed_form(RunSpec(2), Fraction(0), 20)
    with pytest.raises(DomainError):
        series_matches_closed_form(RunSpec(4), HALF, 3)


def _core(k, r):
    return 1 - 2 * r + r ** (k + 1)


# The closed forms as Fraction arithmetic in r, as first written; the
# module evaluates them over the integers a and b of r = a/b.
REFERENCES = {
    denominator_core: _core,
    eval_y: lambda k, r: r**k * (1 - r) / _core(k, r),
    eval_y_prime: lambda k, r: (
        r ** (k - 1) * (-(r ** (k + 1)) + 2 * k * r**2 - 3 * k * r + k + r) / _core(k, r) ** 2
    ),
    eval_y_prime_quotient_rule: lambda k, r: (
        ((k * r ** (k - 1) * (1 - r) - r**k) * _core(k, r)
         - r**k * (1 - r) * (-2 + (k + 1) * r**k)) / _core(k, r) ** 2
    ),
}


@pytest.mark.parametrize("form", REFERENCES, ids=lambda f: f.__name__)
def test_integer_closed_forms_match_the_rational_references(form):
    """Equal for every k on a grid of r, which at k = 20, r = 3/5 and
    elsewhere has a negative denominator core."""
    grid = {Fraction(a, b) for b in range(2, 10) for a in range(1, b)}
    grid |= {Fraction(1, 10**30), Fraction(10**30 - 1, 10**30), Fraction(7, 19)}
    assert _core(20, Fraction(3, 5)) < 0
    for k in range(1, 65):
        for r in grid:
            got, want = form(RunSpec(k), r), REFERENCES[form](k, r)
            assert got == want and type(got) is Fraction, (k, r)


def test_denominator_never_vanishes_at_rational_points():
    """1 - 2r + r**(k+1) has no rational root in (0, 1) (the only
    rational candidates are +-1), so the evaluators need no zero
    guard; probe a grid to document it."""
    for k in range(1, 11):
        for j in range(1, 40):
            assert denominator_core(RunSpec(k), Fraction(j, 40)) != 0
