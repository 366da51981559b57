"""Tests for the enumeration and simulation ground truth.

The bit-sliced exhaustion is itself cross-checked here against a naive
per-sequence scan built on first_run_index, and the simulator's word
kernel against a flip-by-flip replay built on it, so the two oracle
routes vouch for each other before they are used to vouch for anything
else.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from streakcalc import distribution, oracle
from streakcalc.counts import RunSpec, build_count_table
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


def _scan_histogram(k: int, n: int) -> tuple[tuple[int, ...], int]:
    # Independent reference: test every integer-coded sequence by scan.
    ends = [0] * (n + 1)
    no_run = 0
    for x in range(1 << n):
        bits = [(x >> i) & 1 for i in range(n)]
        end = first_run_index(bits, k)
        if end is None:
            no_run += 1
        else:
            ends[end] += 1
    return tuple(ends), no_run


@pytest.mark.parametrize(
    "k, n, expected",
    [(2, 4, 2), (3, 3, 1), (1, 6, 1), (2, 1, 0), (5, 4, 0)],
)
def test_enumerate_counts_examples(k, n, expected):
    assert enumerate_counts(k, n) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerate_counts_matches_naive_scan(k):
    for n in range(1, 13):
        assert enumerate_counts(k, n) == _scan_histogram(k, n)[0][n], (k, n)


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
    k > n leaves no run at all."""
    ends, no_run = enumerate_first_run_histogram(k, n)
    assert len(ends) == n + 1
    assert sum(ends) + no_run == 1 << n
    assert all(c == 0 for c in ends[:k])
    if k > n:
        assert no_run == 1 << n
    # Each end-at-m bucket extends a length-m completion arbitrarily.
    for m in range(1, n + 1):
        assert ends[m] == enumerate_counts(k, m) << (n - m)


@pytest.mark.parametrize("n", range(1, 11))
def test_histogram_matches_a_naive_scan_across_chunks(monkeypatch, n):
    """With chunks of 2, 4 and 8 sequences, so that the columns past the
    first, second or third come from the chunk index, the histogram
    equals a per-sequence scan, for every k up to n + 2."""
    for k in range(1, n + 3):
        reference = _scan_histogram(k, n)
        for bits in (1, 2, 3):
            monkeypatch.setattr(oracle, "_ENUM_CHUNK_BITS", bits)
            assert enumerate_first_run_histogram(k, n) == reference, (k, n, bits)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_histogram_chunking_beyond_one_chunk(monkeypatch, n):
    """Past 2**16 sequences the default chunks split the columns too: the
    histogram equals the one from 8-sequence chunks, and each bin m holds
    the recurrence's count at m times its 2**(n - m) extensions."""
    default = {k: enumerate_first_run_histogram(k, n) for k in (1, 2, 5, 16, 17, 20)}
    for k, (ends, _) in default.items():
        if k <= n:
            counts = build_count_table(RunSpec(k), n).values
            assert ends == tuple(c << (n - m) for m, c in enumerate(counts)), k
    monkeypatch.setattr(oracle, "_ENUM_CHUNK_BITS", 3)
    for k, got in default.items():
        assert enumerate_first_run_histogram(k, n) == got, k


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


@pytest.mark.parametrize(
    "field, value",
    [("trials", True), ("trials", 1.5), ("seed", 1.5), ("max_steps_per_trial", 10.5)],
)
def test_sim_config_rejects_non_integers(field, value):
    """A bool or a float is refused, not compared as if it were a count:
    trials=True simulated one trial and max_steps_per_trial=10.5 ran
    with a fractional cap."""
    fields = {"k": 2, "success_prob": HALF, "trials": 10, "seed": 1, field: value}
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value!r}$"):
        SimConfig(**fields)


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


class _ScriptedBits:
    """Stands in for PCG64: ``random_raw`` hands out the scripted words
    in order."""

    def __init__(self, words):
        self.words = iter(words)
        self.drawn = 0

    def random_raw(self, size):
        import numpy as np

        self.drawn += size
        return np.fromiter(itertools.islice(self.words, size), np.uint64, count=size)


def _replay_heads(threshold, n_words, words):
    """Reference for ``_heads`` in plain Python: reads one word per
    plane for every drawing lane in turn and decides each flip by
    comparing its bits of U with the threshold's, most significant
    first.  Every lane draws at first; once at most half of the drawing
    lanes hold an undecided flip, only those draw on.  Returns each
    lane's 64 flips (True for heads) and the number of words read."""
    flips = [[None] * 64 for _ in range(n_words)]
    drawing = list(range(n_words))
    drawn = 0
    for bit in range(63, -1, -1):
        want = threshold >> bit & 1
        for lane in drawing:
            plane = next(words)
            drawn += 1
            for i in range(64):
                got = plane >> i & 1
                if flips[lane][i] is None and got != want:
                    flips[lane][i] = got < want
        # below the threshold's last set bit, an undecided U is not less
        if threshold % (1 << bit) == 0:
            break
        undecided = [lane for lane in drawing if None in flips[lane]]
        if not undecided:
            break
        if 2 * len(undecided) <= len(drawing):
            drawing = undecided
    return [[heads is True for heads in lane] for lane in flips], drawn


def _replay(k, threshold, n_trials, max_steps, words):
    """Reference for ``_partition_totals`` in plain Python: each pass
    decides 64 flips of every live trial with ``_replay_heads`` and
    finds completions with ``first_run_index`` over the trial's whole
    history."""
    words = iter(words)
    history = {lane: [] for lane in range(n_trials)}
    steps = []
    drawn = base = 0
    while history and base < max_steps:
        flips, n = _replay_heads(threshold, len(history), words)
        drawn += n
        base += 64
        for lane, more in zip(list(history), flips):
            history[lane] += more
            step = first_run_index(history[lane], k)
            if step is not None:
                del history[lane]
                if step <= max_steps:
                    steps.append(step)
    totals = (len(steps), sum(steps), sum(s * s for s in steps), n_trials - len(steps))
    return totals, drawn


ONES = (1 << 64) - 1
FAIR = 1 << 63


def _fair(heads):
    # the fair coin's one plane: a flip is heads where the raw bit is 0
    return [~h & ONES for h in heads]


def _raw(seed, j):
    # endless raw words whose bits are 1 with probability 2**-j; with the
    # fair coin, flips that are heads with probability 1 - 2**-j
    rng = random.Random(seed)
    while True:
        word = ONES
        for _ in range(j):
            word &= rng.getrandbits(64)
        yield word


@pytest.mark.parametrize(
    "k, threshold, n_trials, max_steps, words",
    [
        # completions at flips 64 and 65, and a run carried from the
        # first word that breaks at the second's first flip
        (3, FAIR, 4, 1000, lambda: itertools.chain(
            _fair([7 << 61, 3 << 62, 0b11 << 62, 1 << 63]),
            _fair([1, 0b1110]), _raw(1, 1))),
        (1, FAIR, 3, 1000, lambda: itertools.chain(
            _fair([1 << 63, 0, 0]), _fair([0, 1]), _raw(2, 1))),
        # runs carried across words at k = 40 and k = 64, from words
        # whose flips are mostly heads, and a word of 64 heads
        (40, FAIR, 12, 10**6, lambda: _raw(3, 5)),
        (64, FAIR, 12, 10**6, lambda: _raw(4, 7)),
        (64, FAIR, 3, 1000, lambda: itertools.chain(
            _fair([ONES, ONES >> 1, ONES << 1 & ONES]), _fair([ONES, ONES]),
            _raw(5, 7))),
        # step caps around one and two words, and completions at flips
        # 63, 64, 65 and 66 against each cap
        *[(20, FAIR, 16, cap, lambda: _raw(6, 4)) for cap in (63, 64, 65, 127)],
        *[(3, FAIR, 4, cap, lambda: itertools.chain(
            _fair([7 << 60, 7 << 61, 3 << 62, 1 << 63]), _fair([1, 0b11]), _raw(7, 1)))
          for cap in (63, 64, 65, 127)],
        # dyadic p = 1/4 takes two planes; at p = 1/3 and 9/10 the
        # drawing words shrink to the undecided ones, and planes stop
        # once every flip of the block is decided
        (3, 1 << 62, 16, 1000, lambda: _raw(9, 1)),
        (2, 1 << 62, 8, 70, lambda: _raw(10, 2)),
        (3, (1 << 64) // 3, 4, 1000, lambda: _raw(11, 1)),
        (1, (9 << 64) // 10, 16, 1000, lambda: _raw(13, 1)),
        (3, (1 << 64) // 3, 16, 1000, lambda: _raw(14, 1)),
        # p below 2**-64 rounds the threshold to 0: every flip is tails
        (1, 0, 2, 130, lambda: _raw(12, 1)),
    ],
)
def test_partition_totals_match_a_flip_by_flip_replay(k, threshold, n_trials, max_steps, words):
    """The word kernel's exact totals, and the words it draws, equal a
    lane-by-lane replay of the same scripted words."""
    bits = _ScriptedBits(words())
    want, drawn = _replay(k, threshold, n_trials, max_steps, words())
    assert oracle._partition_totals(k, threshold, n_trials, max_steps, bits) == want
    assert bits.drawn == drawn


@pytest.mark.parametrize(
    "threshold",
    [FAIR, 1 << 62, 5 << 60, (1 << 64) // 3, (9 << 64) // 10, (7 << 64) // 10],
)
def test_heads_match_a_bit_by_bit_comparison(threshold):
    """Every heads bit, and the words drawn for it, equal a plain
    comparison of the same scripted planes, also after the drawing
    words have shrunk more than once."""
    bits = _ScriptedBits(_raw(15, 1))
    want, drawn = _replay_heads(threshold, 256, _raw(15, 1))
    got = oracle._heads(bits, threshold, 256)
    assert [[int(word) >> i & 1 == 1 for i in range(64)] for word in got] == want
    assert bits.drawn == drawn


def _exact_moments(k, p):
    # mean and variance of the waiting time for k heads at heads rate p
    q = 1 - p
    mean = (1 - p**k) / (q * p**k)
    var = (1 - (2 * k + 1) * q * p**k - p ** (2 * k + 1)) / (q**2 * p ** (2 * k))
    return mean, var


@pytest.mark.parametrize(
    "k, p",
    [(1, HALF), (3, HALF), (6, HALF),
     (3, Fraction(1, 3)), (3, Fraction(1, 4)), (3, Fraction(7, 10))],
)
def test_simulate_moments_match_exact(k, p):
    """At a fixed seed, the sample mean lies within 4 standard errors of
    the exact mean and the sample variance within 5% of the exact one."""
    trials = 100_000
    report = simulate(SimConfig(k=k, success_prob=p, trials=trials, seed=2024 + k))
    mean, var = _exact_moments(k, p)
    assert report.truncated_trials == 0
    assert abs(report.sample_mean - mean) < 4 * float(var / trials) ** 0.5
    assert abs(report.sample_variance / float(var) - 1) < 0.05


def test_exact_variance_examples():
    assert [_exact_moments(k, HALF)[1] for k in (1, 2, 3)] == [2, 22, 142]


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
