"""The argument contract of the library.

Every public function of ``counts``, ``distribution``, ``genfunc`` and
``oracle`` checks its integer and rational arguments with one pair of
helpers.  Whatever number it is given, a call ends in a result, a
:class:`DomainError` or a :class:`CapacityError`, quickly, and any
message is one line.  A value of the wrong type, a ``bool`` or a
negative count is always a ``DomainError``: none of them may be read as
if it were a count.
"""

import time
from fractions import Fraction

import pytest

from streakcalc import counts, distribution, genfunc, oracle
from streakcalc.errors import CapacityError, DomainError

INT, RATIONAL, INT_OR_NONE = "integer", "rational", "integer or None"
SPEC = counts.RunSpec(3)
HALF = Fraction(1, 2)
HUGE = 10**5000

# Each replacement: its name, its value, and whether it must be refused
# as a DomainError; a huge value may also give a result or a
# CapacityError.
REPLACEMENTS = {
    INT: [("True", True, True), ("2.5", 2.5, True), ("'5'", "5", True),
          ("None", None, True), ("-huge", -HUGE, True), ("huge", HUGE, False),
          ("huge-Fraction", Fraction(HUGE), True)],
    RATIONAL: [("zebra", "zebra", True), ("1/0", "1/0", True), ("huge", HUGE, False)],
}
REPLACEMENTS[INT_OR_NONE] = [r for r in REPLACEMENTS[INT] if r[1] is not None]

# Every public function with an integer or rational argument: valid
# arguments, each tagged with the kind of number it is (None: not one;
# SimConfig's max_steps_per_trial is None for the default).
CALLS = {
    counts.RunSpec: [(3, INT)],
    counts.build_count_table: [(SPEC, None), (10, INT)],
    counts.decimal_counts: [(SPEC, None), (10, INT)],
    counts.count_at: [(SPEC, None), (10, INT)],
    counts.ratio_diagnostic: [(SPEC, None), (10, INT)],
    distribution.pmf: [(SPEC, None), (10, INT)],
    distribution.pmf_table: [(SPEC, None), (10, INT)],
    distribution.truncated_expectation: [(SPEC, None), (10, INT)],
    distribution.tail_mass: [(SPEC, None), (10, INT)],
    genfunc.denominator_core: [(SPEC, None), (HALF, RATIONAL)],
    genfunc.eval_y: [(SPEC, None), (HALF, RATIONAL)],
    genfunc.eval_y_prime: [(SPEC, None), (HALF, RATIONAL)],
    genfunc.eval_y_prime_quotient_rule: [(SPEC, None), (HALF, RATIONAL)],
    genfunc.series_matches_closed_form: [(SPEC, None), (HALF, RATIONAL), (10, INT)],
    oracle.enumerate_first_run_histogram: [(2, INT), (6, INT)],
    oracle.enumerate_counts: [(2, INT), (6, INT)],
    oracle.enumerate_truncated_expectation: [(2, INT), (6, INT)],
    oracle.SimConfig: [
        (3, INT), (HALF, RATIONAL), (10, INT), (0, INT), (100, INT_OR_NONE),
    ],
}

# Public functions that take no integer or rational argument.
WITHOUT_NUMBERS = {
    counts.parse_digits,  # a text parser; raises what int and Fraction raise
    counts.table_cap,
    counts.CountTable,
    distribution.PmfRow,
    genfunc.expectation,
    genfunc.expectation_closed_form,
    oracle.SimReport,
    oracle.check_budget,
    oracle.simulate,
}


def _public(module):
    return {
        obj for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }


def _cases():
    for fn, args in CALLS.items():
        for slot, (_, kind) in enumerate(args):
            if kind is None:
                continue
            for label, value, refused in REPLACEMENTS[kind]:
                call = [a for a, _ in args]
                call[slot] = value
                yield pytest.param(
                    fn, call, refused, id=f"{fn.__name__}-{slot}-{label}"
                )


def test_every_public_function_is_listed():
    public = set().union(*map(_public, (counts, distribution, genfunc, oracle)))
    assert public == set(CALLS) | WITHOUT_NUMBERS


@pytest.mark.parametrize("fn, args", [
    pytest.param(fn, [a for a, _ in args], id=fn.__name__)
    for fn, args in CALLS.items()
])
def test_the_valid_arguments_give_a_result(fn, args):
    fn(*args)


@pytest.mark.parametrize("fn, args, refused", _cases())
def test_every_number_ends_in_a_result_or_one_refusal(fn, args, refused):
    start = time.perf_counter()
    try:
        fn(*args)
    except (DomainError, CapacityError) as exc:
        assert "\n" not in str(exc)
        assert isinstance(exc, DomainError) or not refused, exc
    else:
        assert not refused, "a bad argument gave a result"
    assert time.perf_counter() - start < 2


def test_the_exact_layer_refuses_what_it_once_misread():
    """A bool was read as 1, a float reached islice, and a number past
    str()'s digit limit raised its ValueError, also as a Fraction."""
    with pytest.raises(DomainError, match="^n_max must be an integer, got True$"):
        distribution.tail_mass(SPEC, True)
    with pytest.raises(DomainError, match="^n_max must be an integer, got True$"):
        counts.build_count_table(SPEC, True)
    with pytest.raises(DomainError, match="^n must be an integer, got 5.0$"):
        distribution.pmf(SPEC, 5.0)
    quoted = "-1" + "0" * 5000
    with pytest.raises(DomainError, match=f"^run length must be >= 1, got {quoted}$"):
        counts.RunSpec(-HUGE)
    with pytest.raises(DomainError, match=f"^n must be an integer, got 1{'0' * 5000}$"):
        counts.count_at(SPEC, Fraction(HUGE))
