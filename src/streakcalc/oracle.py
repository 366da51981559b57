"""Independent ground truth: exhaustive enumeration and Monte Carlo.

Nothing in this module uses the count recurrence or the closed forms.
Enumeration walks every binary sequence of a given length; the
simulator flips actual (pseudo-random) coins.  Agreement between these
routes and the analytic modules is what the test suite and the
``verify`` command check.  Enumeration is pure Python; numpy is
imported inside ``simulate`` alone, so importing this module, the CLI,
or enumerating does not load it.

Sequence encoding for enumeration: integers ``0 .. 2**n - 1`` with bit
``i`` holding the outcome of trial ``i + 1`` (1 = heads).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .counts import RunSpec
from .errors import CapacityError, DomainError

# Exhaustion cap: at most 2**24 sequences per enumeration call.
ENUMERATION_CAP = 24

# Enumeration takes the sequences in chunks of 2**_ENUM_CHUNK_BITS, one
# bit each, so a chunk's n columns are 8 KiB ints.  The two enumerations
# of an ``oracles`` benchmark round (n = 21, best of 5, mean over its 18
# run lengths; 2-core x86-64, CPython 3.11.7) took 21.4 ms with 2**12-
# sequence chunks, 10.5 with 2**14, 8.1 with 2**16 and 17.7 with 2**18,
# against 41.0 ms for numpy over 2**14-word arrays.
_ENUM_CHUNK_BITS = 16

# Trials are partitioned into fixed-size blocks, and block i draws from
# the child stream seeded by (seed, i): its draws depend only on the seed
# and i, not on how many coins the other blocks flip.  2**14 trials keep
# each working array at 128 KiB: glibc malloc reuses blocks that small,
# while larger temporaries are faulted in afresh, page by page, on every
# allocation.
PARTITION_SIZE = 1 << 14

RNG_ALGORITHM = "numpy-pcg64-planes"

# Most coin flips one call may simulate, counted as check_budget does:
# about 2 minutes at k = 6, where a flip costs under 2 ns, and the most
# at k = 1, where a trial spends a whole 64-flip word on its 2 or 3
# counted flips: 20-30 minutes for the fair coin (17-25 ns per counted
# flip) and close to an hour at a p whose binary expansion runs on, such
# as 9/10 or 999/1000, whose words take about 8 planes (43-47 ns).
SIMULATION_FLIP_CAP = 1 << 36

# Most passes one call may make, each pass giving every live trial of a
# block one 64-flip word: about 14 minutes at roughly 100 us per pass,
# which is what a pass costs at p = 1/3 once few trials are left alive
# (about 60 us for the fair coin, whose words take one plane, not ~8).
SIMULATION_PASS_CAP = 1 << 23


def _iter_heads(outcomes) -> Iterator[bool]:
    if isinstance(outcomes, str):
        for ch in outcomes:
            low = ch.lower()
            if low == "h":
                yield True
            elif low == "t":
                yield False
            else:
                raise DomainError(f"outcome characters must be h or t, got {ch!r}")
    else:
        for item in outcomes:
            yield bool(item)


def _check_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")


def _check_positive(value, what: str) -> None:
    # RunSpec's checks, without its cap: a k beyond any n finds no run.
    _check_int(value, what)
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")


def first_run_index(outcomes, k: int) -> int | None:
    """1-based trial at which the first run of k heads is completed.

    Accepts a string of ``h``/``t`` characters or any iterable of
    truthy-for-heads values.  Returns None when no k-run occurs.
    Single left-to-right scan keeping the current head-run length.
    """
    _check_positive(k, "run length")
    run = 0
    for i, heads in enumerate(_iter_heads(outcomes), start=1):
        run = run + 1 if heads else 0
        if run == k:
            return i
    return None


def _check_enum_args(k: int, n: int) -> None:
    _check_positive(k, "run length")
    _check_positive(n, "sequence length")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration capped at 2**{ENUMERATION_CAP} sequences, "
            f"got n={n}"
        )


def _run_end_bits(x, k: int):
    # Bit b of the result is set iff bits b..b+k-1 of x are all set,
    # i.e. a k-run of heads ends at trial b+k.  Bit b of ``runs`` covers
    # bits b..b+span-1; each pass widens that span by up to its own
    # length, so ceil(log2 k) passes reach k.
    runs, span = x, 1
    while span < k:
        s = min(span, k - span)
        runs = runs & (runs >> s)
        span += s
    return runs


def enumerate_first_run_histogram(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """Histogram of first k-run completion trials over all 2**n sequences.

    Returns ``(ends, no_run)`` where ``ends[m]`` counts sequences whose
    first run ends at trial m (0 for m < k) and ``no_run`` counts
    sequences with no k-run at all.  Together they partition 2**n.
    """
    _check_enum_args(k, n)
    if k > n:
        return (0,) * (n + 1), 1 << n
    # Bit-sliced: bit s of a column is one trial of sequence s, so one
    # big-int operation acts on every sequence of a chunk at once.  In a
    # chunk of 2**c, column t < c is bit t of s: runs of 2**t zeros then
    # 2**t ones, built by doubling one period.  The columns t >= c are
    # bit t - c of the chunk index, so all ones or all zeros.
    c = min(n, _ENUM_CHUNK_BITS)
    size = 1 << c
    full = (1 << size) - 1
    low = []
    for t in range(c):
        half = 1 << t
        col, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            col |= col << width
            width *= 2
        low.append(col)
    ends = [0] * (n + 1)
    no_run = 0
    for chunk in range(1 << (n - c)):
        # runs[t] is the AND of columns t..t + span - 1, as in
        # _run_end_bits: each pass widens span by up to its own length.
        runs = low + [full if chunk >> t & 1 else 0 for t in range(n - c)]
        span = 1
        while span < k:
            s = min(span, k - span)
            runs = [a & b for a, b in zip(runs, runs[s:])]
            span += s
        # runs[i] marks a run ending at trial i + k; a sequence's first
        # such bit is the one still unseen.
        unseen = full
        for i, run in enumerate(runs):
            new = run & unseen
            ends[i + k] += new.bit_count()
            unseen ^= new
        no_run += unseen.bit_count()
    return tuple(ends), no_run


def enumerate_counts(k: int, n: int) -> int:
    """Count, by exhaustion over all 2**n sequences, those whose first
    k-run ends exactly at trial n: the last bin of the histogram.

    This is the direct realization of the definition and is kept free
    of the recurrence on purpose.
    """
    return enumerate_first_run_histogram(k, n)[0][n]


def enumerate_truncated_expectation(k: int, n: int) -> Fraction:
    """Exact sum of i * (exhaustive count at i) / 2**i for i = 1..n, read
    from one histogram: a first run ending at i has 2**(n - i) extensions."""
    ends, _ = enumerate_first_run_histogram(k, n)
    return Fraction(sum(i * c for i, c in enumerate(ends)), 1 << n)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one reproducible simulation run.

    ``success_prob`` other than 1/2 is exploratory only: the exact
    distribution modules cover just the fair coin.  The default step
    cap is 1000 * ceil(p**-k), 1000 * 2**k for the fair coin.  The mean
    waiting time (1 - p**k) / (q p**k) is below p**-k / q, so unless q
    is tiny the cap lies far beyond any plausible completion, and
    truncation is a reportable anomaly rather than a silent bias.
    """

    k: int
    success_prob: Fraction
    trials: int
    seed: int
    max_steps_per_trial: int | None = None

    def __post_init__(self) -> None:
        RunSpec(self.k)  # validates the run length
        try:
            object.__setattr__(self, "success_prob", Fraction(self.success_prob))
        except (ValueError, TypeError, ZeroDivisionError):
            raise DomainError(f"not a rational probability: {self.success_prob!r}")
        if not 0 < self.success_prob < 1:
            # str() of an int stops at 4300 digits; Decimal has no limit
            num, den = map(Decimal, self.success_prob.as_integer_ratio())
            raise DomainError(
                "success probability must lie in (0, 1), got "
                + (f"{num}" if den == 1 else f"{num}/{den}")
            )
        _check_positive(self.trials, "trials")
        _check_int(self.seed, "seed")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")
        if self.max_steps_per_trial is None:
            cap = 1000 * math.ceil(1 / self.success_prob**self.k)
            object.__setattr__(self, "max_steps_per_trial", cap)
        _check_int(self.max_steps_per_trial, "max_steps_per_trial")
        if self.max_steps_per_trial < self.k:
            raise DomainError(
                f"max_steps_per_trial must be >= k, got {self.max_steps_per_trial}"
            )


@dataclass(frozen=True)
class SimReport:
    """Summary of a simulation run; mean/variance cover completed trials only."""

    completed_trials: int
    truncated_trials: int
    sample_mean: float
    sample_variance: float
    seed: int
    rng_algorithm: str


def check_budget(configs) -> None:
    """Refuse, before any coin is drawn, simulations that would flip more
    than ``SIMULATION_FLIP_CAP`` coins or make more than
    ``SIMULATION_PASS_CAP`` passes in all.

    A trial flips min(max steps, X) coins, X the waiting time, whose mean
    is E = (1 - p^k) / (q p^k).  With L = min(max steps, ceil(E)), the
    flips are estimated as trials times L, and the passes, each giving
    every live trial of a block one 64-flip word, as blocks times
    ceil(L / 64).
    """
    flips = 0
    passes = 0
    for config in configs:
        p, k = config.success_prob, config.k
        mean = (1 - p**k) / ((1 - p) * p**k)
        length = min(config.max_steps_per_trial, math.ceil(mean))
        flips += config.trials * length
        passes += -(-config.trials // PARTITION_SIZE) * -(-length // 64)
    for need, cap, what, estimate in (
        (flips, SIMULATION_FLIP_CAP, "coin flips",
         "trials x min(max steps, mean trial length)"),
        (passes, SIMULATION_PASS_CAP, "passes",
         "trial blocks x min(max steps, mean trial length) / 64"),
    ):
        if need > cap:
            raise CapacityError(
                f"simulation needs about 2^{math.log2(need):.0f} {what}, over "
                f"the budget of 2^{math.log2(cap):.0f} "
                f"({estimate})"
            )


def _heads(bitgen, threshold: int, size: int):
    # Bit i of word j is heads for flip i of trial j: heads iff a uniform
    # 64-bit U is below threshold.  Each random word is one bit-plane of
    # the 64 U's, most significant first, and a plane decides every
    # flip whose U still matches the threshold so far.  Once no set bit
    # of the threshold is left below the plane, no undecided U can fall
    # under it, so the fair coin takes one plane and p = a / 2**m at
    # most m.  Otherwise a word takes about 8 planes to decide all its
    # flips, the slowest word of a block about 21, so the words ``live``
    # still drawing planes shrink to the undecided ones whenever those
    # fall to half: taking them out costs about as much per word as a
    # plane, so doing it every plane would gain nothing.  ``live`` is a
    # slice of every word until then, which keeps the first plane free
    # of index arithmetic.
    import numpy as np
    heads = np.zeros(size, dtype=np.uint64)
    undecided = ~heads
    live = np.s_[:]
    for bit in range(63, -1, -1):
        plane = bitgen.random_raw(undecided.size)
        if threshold >> bit & 1:
            heads[live] |= undecided & ~plane
            undecided &= plane
        else:
            undecided &= ~plane
        if not threshold % (1 << bit):
            break
        n = np.count_nonzero(undecided)
        if not n:
            break
        if 2 * n <= undecided.size:
            keep = np.flatnonzero(undecided)
            live, undecided = np.arange(size)[live][keep], undecided[keep]
    return heads


def _partition_totals(
    k: int, threshold: int, n_trials: int, max_steps: int, bitgen
) -> tuple[int, int, int, int]:
    # Give every live trial one 64-flip word per pass and drop trials as
    # they complete.  A trial carries in the heads it has run so far,
    # r < k, as the single bit k - r - 1 of ``carry``: it completes at
    # flip k - r of the word if the word's trailing heads reach that
    # bit, and otherwise at the first run inside the word.  Bit b of
    # ``ends`` marks a run ending at the word's flip b + 1, so its lowest
    # set bit is the trial's first completion.  numpy holds only offsets
    # within a pass; the steps base + offset and their moments are
    # formed as exact Python ints.
    import numpy as np
    carry = np.full(n_trials, 1 << (k - 1), dtype=np.uint64)
    completed = 0
    total = 0
    total_sq = 0
    base = 0
    while carry.size and base < max_steps:
        word = _heads(bitgen, threshold, carry.size)
        ends = _run_end_bits(word, k) << (k - 1)
        ends |= word & ~(word + 1) & carry
        # the trailing-zero count of a word without a run is 64
        offset = np.bitwise_count((ends & -ends) - 1) + 1
        done = offset <= min(64, max_steps - base)
        hits = offset[done].astype(np.int64)
        if hits.size:
            n, s1, s2 = hits.size, int(hits.sum()), int(hits @ hits)
            completed += n
            total += n * base + s1
            total_sq += n * base * base + 2 * base * s1 + s2
            word = word[~done]
        # A live trial's word ends in r < k heads, so its last k flips
        # hold a tail, the highest at bit k - r - 1 of ``tails``: smear
        # it down through the bits below and keep that bit alone.
        tails = ~word >> (64 - k)
        span = 1
        while span < k:
            tails |= tails >> span
            span *= 2
        carry = tails ^ (tails >> 1)
        base += 64
    return completed, total, total_sq, carry.size


def simulate(config: SimConfig) -> SimReport:
    """Run the coin-flipping experiment ``config.trials`` times.

    A trial flips until a k-run completes or ``max_steps_per_trial``
    flips have been made; capped trials are counted as truncated and
    excluded from the mean and variance.  Identical configs produce
    identical reports: trials are split into fixed blocks, block ``i``
    draws from the PCG64 stream seeded by ``(seed, i)``, and the block
    totals merge by plain integer addition, independent of ordering.

    Each pass gives every live trial one word of 64 flips.  A flip is
    heads when a uniform 64-bit integer, read one bit-plane per raw
    PCG64 word, lies below ``floor(p * 2**64)``: exact for any p with a
    power-of-two denominator (the fair coin takes one raw word per 64
    flips), off by less than 2**-64 otherwise.  Runs over the budget of
    :func:`check_budget` are refused before any coin is drawn.
    """
    check_budget([config])
    import numpy as np
    p = config.success_prob
    threshold = (p.numerator << 64) // p.denominator
    blocks = [
        _partition_totals(
            config.k,
            threshold,
            min(PARTITION_SIZE, config.trials - lo),
            config.max_steps_per_trial,
            np.random.PCG64(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
            ),
        )
        for index, lo in enumerate(range(0, config.trials, PARTITION_SIZE))
    ]
    completed, total, total_sq, truncated = map(sum, zip(*blocks))
    if completed == 0:
        mean = 0.0
        variance = 0.0
    else:
        mean = float(Fraction(total, completed))
        if completed == 1:
            variance = 0.0
        else:
            variance = float(
                Fraction(total_sq * completed - total * total,
                         completed * (completed - 1))
            )
    return SimReport(
        completed_trials=completed,
        truncated_trials=truncated,
        sample_mean=mean,
        sample_variance=variance,
        seed=config.seed,
        rng_algorithm=RNG_ALGORITHM,
    )
