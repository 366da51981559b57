"""Independent ground truth: exhaustive enumeration and Monte Carlo.

Nothing in this module uses the count recurrence or the closed forms.
Enumeration walks every binary sequence of a given length; the
simulator flips actual (pseudo-random) coins.  Agreement between these
routes and the analytic modules is what the test suite and the
``verify`` command check.  numpy is imported inside the functions that
run an oracle, so importing this module, or the CLI, does not load it.

Sequence encoding for enumeration: integers ``0 .. 2**n - 1`` with bit
``i`` holding the outcome of trial ``i + 1`` (1 = heads).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .counts import RunSpec
from .errors import CapacityError, DomainError

# Exhaustion cap: at most 2**24 sequences per enumeration call.
ENUMERATION_CAP = 24

# Sequences enumerated per numpy pass: bounds each working array at
# 128 KiB.  glibc malloc reuses blocks that small, while larger
# temporaries are faulted in afresh, page by page, on every allocation.
_ENUM_CHUNK = 1 << 14

# Trials are partitioned into fixed-size blocks, and block i draws from
# the child stream seeded by (seed, i): its draws depend only on the seed
# and i, not on how many coins the other blocks flip.
PARTITION_SIZE = 1 << 16

RNG_ALGORITHM = "numpy-pcg64"

# Most coin flips one call may simulate: about a quarter of an hour at
# the simulator's roughly 13 ns per flip (k = 6; 20 ns at k = 1).
SIMULATION_FLIP_CAP = 1 << 36

# Most passes one call may make, each pass flipping one coin for
# every live trial of a block: about 11 minutes at roughly 10 us per
# pass, which is what a pass costs when few trials are left alive.
SIMULATION_PASS_CAP = 1 << 26


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


def _check_positive(value, what: str) -> None:
    # RunSpec's checks, without its cap: a k beyond any n finds no run.
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
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
    import numpy as np
    bins = np.zeros(65, dtype=np.int64)
    for lo in range(0, 1 << n, _ENUM_CHUNK):
        # unsigned words: np.bitwise_count counts the bits of |x|
        x = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << n), dtype=np.uint64)
        runs = _run_end_bits(x, k)
        # t trailing zeros end the first run at trial k + t; a word
        # without a run wraps to 0 - 1, all 64 bits set
        bins += np.bincount(np.bitwise_count((runs & -runs) - 1), minlength=65)
    hist = [int(c) for c in bins]
    return tuple([0] * k + hist[: n - k + 1]), hist[64]


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
            raise DomainError(
                f"success probability must lie in (0, 1), got {self.success_prob}"
            )
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")
        if self.max_steps_per_trial is None:
            cap = 1000 * math.ceil(1 / self.success_prob**self.k)
            object.__setattr__(self, "max_steps_per_trial", cap)
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
    flips are estimated as trials times L, and the passes, each flipping
    one coin for every live trial of a block, as blocks times L.
    """
    flips = 0
    passes = 0
    for config in configs:
        p, k = config.success_prob, config.k
        mean = (1 - p**k) / ((1 - p) * p**k)
        length = min(config.max_steps_per_trial, math.ceil(mean))
        flips += config.trials * length
        passes += -(-config.trials // PARTITION_SIZE) * length
    for need, cap, what, per in (
        (flips, SIMULATION_FLIP_CAP, "coin flips", "trials"),
        (passes, SIMULATION_PASS_CAP, "passes", "trial blocks"),
    ):
        if need > cap:
            raise CapacityError(
                f"simulation needs about 2^{math.log2(need):.0f} {what}, over "
                f"the budget of 2^{math.log2(cap):.0f} "
                f"({per} x min(max steps, mean trial length))"
            )


def _partition_totals(
    k: int, threshold, n_trials: int, max_steps: int, rng
) -> tuple[int, int, int, int]:
    # Flip one coin per live trial per pass and drop trials as they
    # complete.  All trials start on the first pass, so every live trial
    # has made ``step`` flips.  Totals are exact Python ints, and a run
    # of heads stops at k <= 64, so int8 holds it.
    import numpy as np
    run = np.zeros(n_trials, dtype=np.int8)
    completed = 0
    total = 0
    total_sq = 0
    step = 0
    while run.size and step < max_steps:
        draws = rng.integers(0, 1 << 64, size=run.size, dtype=np.uint64)
        step += 1
        run += 1
        run[draws >= threshold] = 0  # tails
        done = run >= k
        n_done = int(np.count_nonzero(done))
        if n_done:
            completed += n_done
            total += n_done * step
            total_sq += n_done * step * step
            run = run[~done]
    return completed, total, total_sq, run.size


def simulate(config: SimConfig) -> SimReport:
    """Run the coin-flipping experiment ``config.trials`` times.

    A trial flips until a k-run completes or ``max_steps_per_trial``
    flips have been made; capped trials are counted as truncated and
    excluded from the mean and variance.  Identical configs produce
    identical reports: trials are split into fixed blocks, block ``i``
    draws from the PCG64 stream seeded by ``(seed, i)``, and the block
    totals merge by plain integer addition, independent of ordering.

    Heads is drawn by comparing a uniform 64-bit integer against
    ``floor(p * 2**64)``: exact for any p with a power-of-two
    denominator (in particular the fair coin), off by less than 2**-64
    otherwise.  Runs over the budget of :func:`check_budget` are
    refused before any coin is drawn.
    """
    check_budget([config])
    import numpy as np
    p = config.success_prob
    threshold = np.uint64((p.numerator << 64) // p.denominator)
    blocks = [
        _partition_totals(
            config.k,
            threshold,
            min(PARTITION_SIZE, config.trials - lo),
            config.max_steps_per_trial,
            np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
            )),
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
