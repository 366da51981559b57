"""Tests for the enumeration and simulation ground truth.

The bit-sliced exhaustion is itself cross-checked here against a naive
per-sequence scan, first_run_index below, and the simulator's occupancy
kernel against a lane-by-lane replay built on it, so the two oracle
routes vouch for each other before they are used to vouch for anything
else.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from streakcalc import distribution, oracle
from streakcalc.counts import RunSpec, build_count_table
from streakcalc.errors import CapacityError, DomainError
from streakcalc.oracle import (
    RNG_ALGORITHM,
    SimConfig,
    SimReport,
    enumerate_counts,
    enumerate_first_run_histogram,
    enumerate_truncated_expectation,
    simulate,
)

HALF = Fraction(1, 2)


# --- first_run_index ---------------------------------------------------


def first_run_index(bits, k):
    """1-based trial at which the first run of k heads (truthy items) in
    ``bits`` is completed, or None: one scan keeping the current run."""
    run = 0
    for i, heads in enumerate(bits, start=1):
        run = run + 1 if heads else 0
        if run == k:
            return i
    return None


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
    assert first_run_index([ch == "h" for ch in sequence], k) == expected


def test_first_run_index_accepts_bit_iterables():
    assert first_run_index([0, 0, 1, 1], 2) == 4
    assert first_run_index((True, True, False, True, True), 2) == 2


@pytest.mark.parametrize(
    "query, args, what",
    [
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


@pytest.mark.parametrize("n", [17, 18, 19, 20, 21])
def test_histogram_chunking_beyond_one_chunk(monkeypatch, n):
    """Past 2**16 sequences the default chunks split the columns too, and
    the windows of k = 15 to 17 end on both sides of column 16: the
    histogram equals the one from 8-sequence chunks, and each bin m holds
    the recurrence's count at m times its 2**(n - m) extensions."""
    ks = (1, 2, 5, 15, 16, 17, 20, 21, 22)
    default = {k: enumerate_first_run_histogram(k, n) for k in ks}
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


@pytest.mark.parametrize(
    "field, value",
    [("trials", -(10**5000)), ("seed", 10**5000), ("max_steps_per_trial", -(10**5000))],
    ids=["trials", "seed", "max_steps_per_trial"],
)
def test_sim_config_renders_long_values_in_its_messages(field, value):
    """A value past str()'s 4300-digit limit is written out in full."""
    fields = {"k": 2, "success_prob": HALF, "trials": 10, "seed": 1, field: value}
    with pytest.raises(DomainError, match=f"got -?1{'0' * 5000}$"):
        SimConfig(**fields)


def test_sim_config_defaults_step_cap():
    config = SimConfig(k=3, success_prob=HALF, trials=10, seed=1)
    assert config.max_steps_per_trial == 1000 * 2**3
    assert config.success_prob == HALF
    # the cap follows p: 1000 * ceil(3**3), not the fair coin's 1000 * 2**3
    config = SimConfig(k=3, success_prob=Fraction(1, 3), trials=10, seed=1)
    assert config.max_steps_per_trial == 1000 * 27


def test_sim_config_default_step_cap_in_integers():
    """1000 * ceil(p**-k), or 1000 * 2**64 where the bit lengths of p
    show p**-k > 2**64, without forming the power."""
    for p in (Fraction(1, 3), Fraction(2, 7), Fraction(999, 1000), Fraction(1, 1000)):
        for k in (1, 5, 64):
            cap = SimConfig(k=k, success_prob=p, trials=1, seed=0).max_steps_per_trial
            want = 1000 * math.ceil(1 / p**k)
            assert cap == want or cap == 1000 << 64 < want
    assert SimConfig(k=64, success_prob=Fraction(1, 3), trials=1, seed=0
                     ).max_steps_per_trial == 1000 * 3**64
    for p in (Fraction(1, 1000), Fraction(1, 10**100_000)):
        config = SimConfig(k=64, success_prob=p, trials=1, seed=0)
        assert config.max_steps_per_trial == 1000 << 64


def test_sim_config_is_a_validated_tuple():
    """A config equals the plain tuple of its fields, holds no __dict__,
    and _replace validates as the constructor does."""
    config = SimConfig(k=3, success_prob=Fraction(1, 3), trials=10, seed=1)
    assert config == (3, Fraction(1, 3), 10, 1, 27_000)
    assert not hasattr(config, "__dict__")
    assert config._replace(seed=2) == SimConfig(3, Fraction(1, 3), 10, 2)
    with pytest.raises(DomainError, match="^trials must be >= 1, got 0$"):
        config._replace(trials=0)


PRICE_KS = (1, 2, 3, 5, 8, 13, 29, 64)


def _price_by_powers(a, b, k):
    if k * (b.bit_length() - a.bit_length() - 1) >= 64:
        return None
    return -(-b**k // a**k), -(-b * (b**k - a**k) // ((b - a) * a**k))


def _lowest(a, b):
    g = math.gcd(a, b)
    return a // g, b // g


def test_price_matches_the_exact_powers():
    """(ceil(p^-k), ceil(E)) from leading bits equals the exact integers:
    small p, random p of 8 to 2000 bits and p = 1 - 10^-d."""
    ps = [(a, b) for b in range(2, 60) for a in range(1, b) if math.gcd(a, b) == 1]
    rng = random.Random(28)
    for _ in range(200):
        b = rng.getrandbits(rng.randint(8, 2000)) | 3
        ps.append(_lowest(rng.randrange(1, b), b))
        ps.append(_lowest(b - rng.getrandbits(b.bit_length() // 2) - 1, b))
    ps += [(10**d - 1, 10**d) for d in (30, 300, 3000)]
    for a, b in ps:
        for k in PRICE_KS:
            assert oracle._price(a, b, k) == _price_by_powers(a, b, k), (a, b, k)


@pytest.mark.parametrize("k, gap", [(63, 1), (64, 1), (21, 3), (32, 2), (7, 9), (8, 8)])
def test_price_at_the_64_bit_rule(k, gap):
    """k (len b - len a - 1) = 63 is priced, 64 is None, also for a long a."""
    for a in (1, 3, 2**300 + 1):
        b = (a << (gap + 1)) + 1  # in lowest terms
        assert b.bit_length() - a.bit_length() - 1 == gap
        assert oracle._price(a, b, k) == _price_by_powers(a, b, k)
        assert (oracle._price(a, b, k) is None) == (k * gap >= 64)


def test_price_just_above_an_integer():
    """p^-64 - 2 is below 2^-150, finer than 128 bits of 1/p can tell at a
    201-bit b, so the exact powers decide."""
    a = 2**200 + 1
    root = 2 * a**64
    for _ in range(6):
        root = math.isqrt(root)  # floor((2 a^64)^(1/64))
    a, b = _lowest(a, root + 1)
    assert b.bit_length() == 201
    assert 0 < b**64 - 2 * a**64 < a**64 >> 150
    assert oracle._price(a, b, 64) == _price_by_powers(a, b, 64)
    assert oracle._price(a, b, 64)[0] == 3


@pytest.mark.parametrize(
    "p", [HALF, Fraction(1, 3), Fraction(2, 7), Fraction(9, 10), Fraction(999, 1000)]
)
def test_budget_charges_the_exact_mean_length(p):
    """Past 2^7 flips a class, a config costs trials x ceil(E) flips,
    E = (1 - p^k) / (q p^k) in Fraction arithmetic: the most trials that
    fit 2^36 run and one more is refused."""
    for k in range(1, 13):
        mean = math.ceil((1 - p**k) / ((1 - p) * p**k))
        most = oracle.SIMULATION_FLIP_CAP // mean
        if most < 128 * k:
            continue
        oracle.check_budget([SimConfig(k=k, success_prob=p, trials=most, seed=0)])
        with pytest.raises(CapacityError):
            oracle.check_budget([SimConfig(k=k, success_prob=p, trials=most + 1, seed=0)])


def test_simulate_over_budget_refused_before_drawing(monkeypatch):
    """Without the budget one trial at k = 40 would flip about 2^41 coins."""

    def draw(*args):
        raise AssertionError("a coin was drawn")

    monkeypatch.setattr(oracle, "_occupancy_totals", draw)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as refused:
        simulate(SimConfig(k=40, success_prob=HALF, trials=1, seed=0))
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        "simulation needs about 2^48 coin flips, over the budget of 2^36 "
        "(min(max steps, mean trial length) x max(trials, 2^7 x planes a step))"
    )


def test_budget_prices_the_planes_a_class_draw_reads():
    """A class of n undecided flips reads about n.bit_length() + 1 planes
    of p's threshold.  At p = 1/1000, k = 64 and 128 trials that is one
    class and 9 of its 64 planes a step, 2^7 flips a plane, so 2^29 steps,
    13-16 minutes at 1.4-1.8 us a step, are refused."""

    def config(steps):
        return SimConfig(k=64, success_prob=Fraction(1, 1000), trials=128, seed=0,
                         max_steps_per_trial=steps)

    most = oracle.SIMULATION_FLIP_CAP // (9 << 7)
    oracle.check_budget([config(most)])
    with pytest.raises(CapacityError):
        oracle.check_budget([config(most + 1)])
    with pytest.raises(CapacityError, match=r"about 2\^39 coin flips"):
        oracle.check_budget([config(2**29)])

    # below 2^-64 the threshold has no plane, but a class still costs one:
    # 2^36 steps of one trial are 2^43 flips, as for any p
    tiny = SimConfig(k=1, success_prob=Fraction(1, 10**30), trials=1, seed=0,
                     max_steps_per_trial=2**36)
    with pytest.raises(CapacityError, match=r"about 2\^43 coin flips"):
        oracle.check_budget([tiny])


def test_simulate_step_cap_beyond_64_bits():
    """A cap no 64-bit counter can hold changes nothing when it never binds."""
    default = SimConfig(k=2, success_prob=HALF, trials=3_000, seed=21)
    huge = SimConfig(
        k=2, success_prob=HALF, trials=3_000, seed=21,
        max_steps_per_trial=1000 * 2**64,
    )
    assert simulate(huge) == simulate(default)


class _ScriptedBits:
    """Stands in for ``getrandbits``: each bit is 1 with probability
    1 - 2**-density, from a seeded stream, and each draw's size is
    recorded."""

    def __init__(self, seed, density):
        self.rng = random.Random(seed)
        self.density = density
        self.sizes = []

    def __call__(self, size):
        self.sizes.append(size)
        bits = 0
        for _ in range(self.density):
            bits |= self.rng.getrandbits(size)
        return bits


def _trailing_heads(history):
    run = 0
    while run < len(history) and history[-1 - run]:
        run += 1
    return run


def _replay(k, threshold, trials, max_steps, getrandbits, chunk):
    """Reference for ``_occupancy_totals``, one lane per trial.  Each step
    takes the live trials by their current run, shortest first, and in
    each run class takes the threshold's bits from bit 63 down to its
    lowest set bit.  Every undecided trial reads the next drawn bit
    (draws of at most ``chunk`` bits); a 1 decides it, as heads where
    the threshold's bit is 1, and the trials still undecided after the
    last plane are tails.  ``first_run_index`` over each trial's whole
    history finds its completion."""
    planes = [threshold >> bit & 1 for bit in range(63, -1, -1)]
    while planes and not planes[-1]:
        planes.pop()
    history = {lane: [] for lane in range(trials)}
    steps = []
    for step in range(1, max_steps + 1):
        runs = {lane: _trailing_heads(flips) for lane, flips in history.items()}
        for r in sorted(set(runs.values())):
            undecided = [lane for lane in history if runs[lane] == r]
            outcome = dict.fromkeys(undecided, False)
            for plane in planes:
                if not undecided:
                    break
                bits = []
                for lo in range(0, len(undecided), chunk):
                    size = min(chunk, len(undecided) - lo)
                    word = getrandbits(size)
                    bits += [word >> i & 1 for i in range(size)]
                for lane, bit in zip(undecided, bits):
                    if bit:
                        outcome[lane] = plane == 1
                undecided = [lane for lane, bit in zip(undecided, bits) if not bit]
            for lane, heads in outcome.items():
                history[lane].append(heads)
        for lane in list(history):
            if first_run_index(history[lane], k) == step:
                steps.append(step)
                del history[lane]
        if not history:
            break
    return len(steps), sum(steps), sum(s * s for s in steps), trials - len(steps)


FAIR = 1 << 63
THRESHOLDS = [FAIR, 1 << 62, 5 << 60, (1 << 64) // 3, (9 << 64) // 10, 0]


@pytest.mark.parametrize(
    "threshold", THRESHOLDS, ids=["1/2", "1/4", "5/16", "1/3", "9/10", "0"]
)
@pytest.mark.parametrize("k", [1, 3, 40, 64])
def test_occupancy_totals_match_a_lane_by_lane_replay(monkeypatch, k, threshold):
    """The kernel's exact totals, and the sizes of its draws in order,
    equal a replay that flips each trial's coin on its own from the same
    scripted bits: with draws of 1-3 bits, so that every class of 12
    trials takes several, and step caps at k, at k + 1 and in mid-run.
    At k = 40 and 64 most bits are 1, so that long runs complete."""
    density = 1 if k < 40 else 7
    for chunk_bits in (1, 2, 3):
        monkeypatch.setattr(oracle, "_ENUM_CHUNK_BITS", chunk_bits)
        for cap in (k, k + 1, 2 * k + 3):
            got_bits = _ScriptedBits(cap, density)
            want_bits = _ScriptedBits(cap, density)
            got = oracle._occupancy_totals(k, threshold, 12, cap, got_bits)
            want = _replay(k, threshold, 12, cap, want_bits, 1 << chunk_bits)
            assert got == want, (chunk_bits, cap)
            assert got_bits.sizes == want_bits.sizes, (chunk_bits, cap)


# k, p, trials, seed, step cap; totals, number of draws and sha256 of
# their sizes joined by commas, recorded before the step loop was last
# rewritten.  Above 2**16 trials a class takes several draws: the fair
# coin's first steps too.  The last config truncates mid-run.
DRAW_RECORDS = [
    (6, HALF, 70_000, 3, 64_000, (70_000, 8_828_696, 2_149_272_416, 0), 6704,
     "a9a9236f4d6a43ebc4405032e2a24a38a69943267f503117010cc605224e3854"),
    (2, HALF, 200_000, 1, 4_000, (200_000, 1_199_107, 11_590_657, 0), 120,
     "41413ac2ae3e57a117453748c3b923ebf81c861c61bcbd2f2f85ff2d97a5c87f"),
    (3, Fraction(1, 3), 70_000, 4, 27_000, (70_000, 2_729_745, 200_248_397, 0), 9078,
     "1f309bc8812cb2fdf292ece4a2ba0e73c9937db174614f8cdef0b1884e4f190d"),
    (5, Fraction(7, 10), 3_000, 9, 40, (2_796, 40_341, 805_073, 204), 1617,
     "b9d3a70e39555a520ba0ecec8e8398eeaf8de94d4d74ae55add7fd78e34a475d"),
]


@pytest.mark.parametrize(
    "k, p, trials, seed, cap, totals, draws, sha256", DRAW_RECORDS,
    ids=["1/2-k6", "1/2-k2", "1/3-k3", "7/10-k5-capped"],
)
def test_occupancy_totals_keep_the_recorded_draws(k, p, trials, seed, cap, totals, draws, sha256):
    """The kernel draws the same sizes, in the same order, from one
    Mersenne Twister stream as when these records were made, so every
    seeded report is unchanged."""
    sizes = []
    stream = random.Random(seed).getrandbits

    def getrandbits(size):
        sizes.append(size)
        return stream(size)

    threshold = (p.numerator << 64) // p.denominator
    assert oracle._occupancy_totals(k, threshold, trials, cap, getrandbits) == totals
    assert len(sizes) == draws
    assert hashlib.sha256(",".join(map(str, sizes)).encode()).hexdigest() == sha256


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


def _cdf(k, p, m):
    # P(X <= m) from the run-length chain: alive[r] is the probability of
    # no completion yet and a current run of r heads
    alive = [Fraction(1)] + [Fraction(0)] * (k - 1)
    done = Fraction(0)
    for _ in range(m):
        done += p * alive[-1]
        alive = [(1 - p) * sum(alive)] + [p * a for a in alive[:-1]]
    return done


def test_cdf_chain_matches_enumeration():
    """The test's chain is itself checked: at the fair coin it sums the
    exhaustive first-run histogram."""
    for k in (1, 2, 3, 5):
        ends, _ = enumerate_first_run_histogram(k, 12)
        for m in range(1, 13):
            assert _cdf(k, HALF, m) == Fraction(sum(ends[: m + 1]), 1 << 12), (k, m)


@pytest.mark.parametrize(
    "k, p", [(3, HALF), (2, Fraction(1, 3)), (1, Fraction(9, 10))]
)
def test_simulate_completions_follow_the_exact_cdf(k, p):
    """With the step cap at m, from k to three times the mean, the
    completed trials lie within 4 standard errors of trials * P(X <= m):
    the shape of the distribution, not only its first two moments."""
    trials = 100_000
    mean = math.ceil(_exact_moments(k, p)[0])
    for m in (k, 2 * k, mean, 3 * mean):
        config = SimConfig(
            k=k, success_prob=p, trials=trials, seed=100 * k + m,
            max_steps_per_trial=m,
        )
        report = simulate(config)
        cdf = _cdf(k, p, m)
        se = math.sqrt(trials * cdf * (1 - cdf))
        assert abs(report.completed_trials - trials * cdf) <= 4 * se, m
        assert report.truncated_trials == trials - report.completed_trials


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
