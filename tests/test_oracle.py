"""Tests for the enumeration and simulation ground truth.

The vectorized exhaustion is itself cross-checked here against a naive
per-sequence scan built on first_run_index, so the two oracle routes
vouch for each other before they are used to vouch for anything else.
"""

import time
from fractions import Fraction

import pytest

from streakcalc import distribution, oracle
from streakcalc.counts import RunSpec
from streakcalc.errors import CapacityError, DomainError
from streakcalc.oracle import (
    PARTITION_SIZE,
    RNG_ALGORITHM,
    SimConfig,
    SimReport,
    enumerate_counts,
    enumerate_first_run_histogram,
    enumerate_truncated_expectation,
    first_run_index,
    simulate,
)

HALF = Fraction(1, 2)


# --- first_run_index ---------------------------------------------------


@pytest.mark.parametrize(
    "sequence, k, expected",
    [
        ("hhth", 2, 2),
        ("hhtththttth", 3, None),
        ("tthh", 2, 4),
        ("h", 1, 1),
        ("t", 1, None),
        ("hhh", 3, 3),
        ("thh", 3, None),
    ],
)
def test_first_run_index_examples(sequence, k, expected):
    assert first_run_index(sequence, k) == expected


def test_first_run_index_accepts_bit_iterables():
    assert first_run_index([0, 0, 1, 1], 2) == 4
    assert first_run_index((True, True, False, True, True), 2) == 2


def test_first_run_index_rejects_bad_inputs():
    with pytest.raises(DomainError):
        first_run_index("hhth", 0)
    # bad character ahead of any possible completion
    with pytest.raises(DomainError):
        first_run_index("xh", 1)


@pytest.mark.parametrize(
    "query, args, what",
    [
        (first_run_index, ("hhh", 2.5), "run length"),
        (first_run_index, ("hhh", True), "run length"),
        (enumerate_first_run_histogram, (2.5, 10), "run length"),
        (enumerate_first_run_histogram, (True, 10), "run length"),
        (enumerate_first_run_histogram, (3, 10.0), "sequence length"),
        (enumerate_first_run_histogram, (3, True), "sequence length"),
        (enumerate_counts, (3, "10"), "sequence length"),
    ],
)
def test_oracle_entry_points_reject_non_integers(query, args, what):
    """k and n must be ints, as for RunSpec: a float or a bool is refused,
    not compared as if it were a count."""
    with pytest.raises(DomainError, match=f"^{what} must be an integer, got "):
        query(*args)


def test_oracle_run_length_has_no_cap():
    """Unlike RunSpec, the oracle takes any positive k: beyond n there is
    no run."""
    assert first_run_index("h" * 70, 65) == 65
    assert enumerate_first_run_histogram(65, 10) == ((0,) * 11, 1 << 10)


def test_first_run_index_bounds():
    """The result is never below k and never beyond the sequence length."""
    for k in range(1, 5):
        for x in range(1 << 10):
            bits = [(x >> i) & 1 for i in range(10)]
            idx = first_run_index(bits, k)
            if idx is not None:
                assert k <= idx <= 10


# --- exhaustive enumeration --------------------------------------------


def _scan_count(k: int, n: int) -> int:
    # Independent reference: test every integer-coded sequence by scan.
    count = 0
    for x in range(1 << n):
        bits = [(x >> i) & 1 for i in range(n)]
        if first_run_index(bits, k) == n:
            count += 1
    return count


@pytest.mark.parametrize(
    "k, n, expected",
    [(2, 4, 2), (3, 3, 1), (1, 6, 1), (2, 1, 0), (5, 4, 0)],
)
def test_enumerate_counts_examples(k, n, expected):
    assert enumerate_counts(k, n) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerate_counts_matches_naive_scan(k):
    for n in range(1, 13):
        assert enumerate_counts(k, n) == _scan_count(k, n), (k, n)


def test_enumerate_counts_caps_and_domain():
    with pytest.raises(CapacityError):
        enumerate_counts(2, 25)
    with pytest.raises(DomainError):
        enumerate_counts(2, 0)
    with pytest.raises(DomainError):
        enumerate_counts(0, 4)


def test_run_end_bits_match_the_naive_shifts():
    """Doubling the covered span gives the bits of k - 1 single shifts,
    for every k the words can hold."""
    import numpy as np

    rng = np.random.default_rng(0)
    ones = (1 << 64) - 1
    edge = [0, ones, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA]
    edge += [((1 << m) - 1) << s & ones for m in range(1, 65) for s in range(0, 64, 7)]
    x = np.concatenate([
        np.array(edge, dtype=np.uint64),
        rng.integers(0, 1 << 64, size=20_000, dtype=np.uint64),
        # words with most bits set, where long runs are common
        np.bitwise_or.reduce(rng.integers(0, 1 << 64, size=(4, 5_000), dtype=np.uint64)),
    ])
    for k in range(1, 65):
        naive = x.copy()
        for j in range(1, k):
            naive &= x >> np.uint64(j)
        assert np.array_equal(oracle._run_end_bits(x, k), naive), k


@pytest.mark.parametrize(
    "k, n", [(1, 10), (2, 12), (3, 14), (4, 14), (3, 17), (6, 4)]
)
def test_histogram_partitions_the_sample_space(k, n):
    """First-run end positions plus run-free sequences partition 2**n.
    n = 17 spans several enumeration chunks; k > n leaves no run at all."""
    ends, no_run = enumerate_first_run_histogram(k, n)
    assert len(ends) == n + 1
    assert sum(ends) + no_run == 1 << n
    assert all(c == 0 for c in ends[:k])
    if k > n:
        assert no_run == 1 << n
    # Each end-at-m bucket extends a length-m completion arbitrarily.
    for m in range(1, n + 1):
        assert ends[m] == enumerate_counts(k, m) << (n - m)


@pytest.mark.parametrize(
    "k, n, expected",
    [(1, 2, Fraction(1)), (2, 4, Fraction(11, 8)), (4, 3, Fraction(0))],
)
def test_enumerate_truncated_expectation_examples(k, n, expected):
    assert enumerate_truncated_expectation(k, n) == expected


@pytest.mark.parametrize("k, n", [(1, 6), (2, 9), (3, 12), (5, 11)])
def test_enumerate_truncated_expectation_matches_count_sum(k, n):
    """The one-histogram reading equals the sum over n + 1 separate
    enumerations, i * enumerate_counts(k, i) / 2**i for i = 1..n."""
    reference = sum(
        Fraction(i * enumerate_counts(k, i), 1 << i) for i in range(1, n + 1)
    )
    assert enumerate_truncated_expectation(k, n) == reference


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_expectation_matches_distribution(k):
    for n in (5, 9, 12):
        assert enumerate_truncated_expectation(k, n) == (
            distribution.truncated_expectation(RunSpec(k), n)
        )


# --- simulation --------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(k=1, success_prob=Fraction(3, 2), trials=10, seed=1)
    with pytest.raises(DomainError):
        SimConfig(k=1, success_prob=HALF, trials=0, seed=1)
    with pytest.raises(DomainError):
        SimConfig(k=0, success_prob=HALF, trials=10, seed=1)
    with pytest.raises(DomainError):
        SimConfig(k=3, success_prob=HALF, trials=10, seed=1, max_steps_per_trial=2)
    with pytest.raises(DomainError):
        SimConfig(k=1, success_prob=HALF, trials=10, seed=2**64)


def test_sim_config_defaults_step_cap():
    config = SimConfig(k=3, success_prob=HALF, trials=10, seed=1)
    assert config.max_steps_per_trial == 1000 * 2**3
    assert config.success_prob == HALF
    # the cap follows p: 1000 * ceil(3**3), not the fair coin's 1000 * 2**3
    config = SimConfig(k=3, success_prob=Fraction(1, 3), trials=10, seed=1)
    assert config.max_steps_per_trial == 1000 * 27


def test_simulate_over_budget_refused_before_drawing(monkeypatch):
    """Without the budget one trial at k = 40 would flip about 2^41 coins."""

    def draw(*args):
        raise AssertionError("a coin was drawn")

    monkeypatch.setattr(oracle, "_partition_totals", draw)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as refused:
        simulate(SimConfig(k=40, success_prob=HALF, trials=1, seed=0))
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        "simulation needs about 2^41 coin flips, over the budget of 2^36 "
        "(trials x min(max steps, mean trial length))"
    )


def test_simulate_step_cap_beyond_64_bits():
    """A cap no 64-bit counter can hold changes nothing when it never binds."""
    default = SimConfig(k=2, success_prob=HALF, trials=3_000, seed=21)
    huge = SimConfig(
        k=2, success_prob=HALF, trials=3_000, seed=21,
        max_steps_per_trial=1000 * 2**64,
    )
    assert simulate(huge) == simulate(default)


def test_simulate_is_deterministic():
    config = SimConfig(k=2, success_prob=HALF, trials=5_000, seed=1234)
    assert simulate(config) == simulate(config)


def test_simulate_reports_algorithm_and_seed():
    report = simulate(SimConfig(k=1, success_prob=HALF, trials=10, seed=77))
    assert report.rng_algorithm == RNG_ALGORITHM
    assert report.seed == 77


def test_simulate_accounting_identity():
    config = SimConfig(
        k=1, success_prob=HALF, trials=1, seed=3, max_steps_per_trial=1
    )
    report = simulate(config)
    assert report.completed_trials + report.truncated_trials == 1


def test_simulate_spans_partitions_deterministically():
    """A run longer than one internal block still reproduces exactly."""
    trials = PARTITION_SIZE + 7
    config = SimConfig(k=1, success_prob=HALF, trials=trials, seed=5)
    a = simulate(config)
    b = simulate(config)
    assert a == b
    assert a.completed_trials + a.truncated_trials == trials


def test_truncated_trials_excluded_from_mean():
    """With the cap at k, only length-k completions can ever be counted."""
    config = SimConfig(
        k=3, success_prob=HALF, trials=2_000, seed=11, max_steps_per_trial=3
    )
    report = simulate(config)
    assert report.completed_trials + report.truncated_trials == 2_000
    assert report.truncated_trials > 0
    if report.completed_trials:
        assert report.sample_mean == 3.0


def test_sample_mean_at_least_k_without_truncation():
    report = simulate(SimConfig(k=4, success_prob=HALF, trials=2_000, seed=6))
    assert report.truncated_trials == 0
    assert report.sample_mean >= 4


def test_simulate_statistical_agreement_small():
    """Fast 3-sigma sanity check; the full-scale one is in acceptance."""
    report = simulate(SimConfig(k=2, success_prob=HALF, trials=100_000, seed=8))
    sigma = (report.sample_variance / report.completed_trials) ** 0.5
    assert abs(report.sample_mean - 6) < 3 * sigma


def test_simulate_biased_coin_is_exploratory_but_sane():
    """General p has no exact reference; check basic plausibility only."""
    report = simulate(
        SimConfig(k=1, success_prob=Fraction(9, 10), trials=50_000, seed=13)
    )
    # E for k=1 is 1/p; at p = 9/10 that is about 1.11
    assert 1.0 < report.sample_mean < 1.3


def test_report_is_frozen():
    report = simulate(SimConfig(k=1, success_prob=HALF, trials=5, seed=1))
    assert isinstance(report, SimReport)
    with pytest.raises(AttributeError):
        report.sample_mean = 0.0
