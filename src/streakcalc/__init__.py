"""Exact first-passage statistics for runs of consecutive heads.

The package computes, by several independently implemented routes, the
distribution and expected number of fair-coin tosses until the first
run of ``k`` consecutive heads:

* :mod:`streakcalc.counts` - exact bigint tables of first-completion
  counts via a k-step Fibonacci recurrence.
* :mod:`streakcalc.distribution` - exact rational PMF, CDF, tail mass
  and truncated expectation.
* :mod:`streakcalc.genfunc` - closed forms of the count generating
  function, its derivative, and the expectation 2(2**k - 1).
* :mod:`streakcalc.oracle` - recurrence-free ground truth: exhaustive
  enumeration and a seeded Monte Carlo simulator.
* :mod:`streakcalc.cli` - the ``streakcalc`` command.

All probability arithmetic uses :class:`fractions.Fraction`, and the
package needs nothing outside the standard library.
"""

from .counts import (
    CountTable,
    K_MAX,
    RunSpec,
    build_count_table,
    count_at,
    ratio_diagnostic,
)
from .distribution import (
    PmfRow,
    pmf,
    pmf_table,
    tail_mass,
    truncated_expectation,
)
from .errors import CapacityError, DomainError, StreakError
from .genfunc import (
    eval_y,
    eval_y_prime,
    eval_y_prime_quotient_rule,
    expectation,
    expectation_closed_form,
    series_matches_closed_form,
)
from .oracle import (
    SimConfig,
    SimReport,
    enumerate_counts,
    enumerate_first_run_histogram,
    enumerate_truncated_expectation,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CountTable",
    "DomainError",
    "K_MAX",
    "PmfRow",
    "RunSpec",
    "SimConfig",
    "SimReport",
    "StreakError",
    "build_count_table",
    "count_at",
    "enumerate_counts",
    "enumerate_first_run_histogram",
    "enumerate_truncated_expectation",
    "eval_y",
    "eval_y_prime",
    "eval_y_prime_quotient_rule",
    "expectation",
    "expectation_closed_form",
    "pmf",
    "pmf_table",
    "ratio_diagnostic",
    "series_matches_closed_form",
    "simulate",
    "tail_mass",
    "truncated_expectation",
]

