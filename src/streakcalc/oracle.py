"""Independent ground truth: exhaustive enumeration and Monte Carlo.

Nothing in this module uses the count recurrence or the closed forms.
Enumeration walks every binary sequence of a given length; the
simulator flips actual (pseudo-random) coins.  Agreement between these
routes and the analytic modules is what the test suite and the
``verify`` command check.

Sequence encoding for enumeration: integers ``0 .. 2**n - 1`` with bit
``i`` holding the outcome of trial ``i + 1`` (1 = heads).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counts import RunSpec
from .errors import CapacityError, DomainError

# Exhaustion cap: at most 2**24 sequences per enumeration call.
ENUMERATION_CAP = 24

# Sequences are enumerated in blocks to bound memory.
_ENUM_CHUNK = 1 << 22

# Trials are partitioned into fixed-size blocks; each block draws from
# its own child stream of the seed, so results do not depend on how the
# blocks would be scheduled across workers.
PARTITION_SIZE = 1 << 16

RNG_ALGORITHM = "numpy-pcg64"


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


def first_run_index(outcomes, k: int) -> int | None:
    """1-based trial at which the first run of k heads is completed.

    Accepts a string of ``h``/``t`` characters or any iterable of
    truthy-for-heads values.  Returns None when no k-run occurs.
    Single left-to-right scan keeping the current head-run length.
    """
    if k < 1:
        raise DomainError(f"run length must be >= 1, got {k}")
    run = 0
    for i, heads in enumerate(_iter_heads(outcomes), start=1):
        run = run + 1 if heads else 0
        if run == k:
            return i
    return None


def _check_enum_args(k: int, n: int) -> None:
    if k < 1:
        raise DomainError(f"run length must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"sequence length must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration capped at 2**{ENUMERATION_CAP} sequences, "
            f"got n={n}"
        )


def _run_end_bits(x: np.ndarray, k: int) -> np.ndarray:
    # Bit b of the result is set iff bits b..b+k-1 of x are all set,
    # i.e. a k-run of heads ends at trial b+k.
    runs = x.copy()
    for j in range(1, k):
        runs &= x >> j
    return runs


def enumerate_counts(k: int, n: int) -> int:
    """Count, by exhaustion over all 2**n sequences, those whose first
    k-run ends exactly at trial n.

    This is the direct realization of the definition and is kept free
    of the recurrence on purpose.
    """
    _check_enum_args(k, n)
    if n < k:
        return 0
    target = 1 << (n - k)  # lowest run-end bit must sit exactly here
    total = 0
    for lo in range(0, 1 << n, _ENUM_CHUNK):
        x = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << n), dtype=np.int64)
        runs = _run_end_bits(x, k)
        total += int(np.count_nonzero((runs & -runs) == target))
    return total


def enumerate_first_run_histogram(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """Histogram of first k-run completion trials over all 2**n sequences.

    Returns ``(ends, no_run)`` where ``ends[m]`` counts sequences whose
    first run ends at trial m (0 for m < k) and ``no_run`` counts
    sequences with no k-run at all.  Together they partition 2**n.
    """
    _check_enum_args(k, n)
    ends = np.zeros(n + 1, dtype=np.int64)
    no_run = 0
    for lo in range(0, 1 << n, _ENUM_CHUNK):
        x = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << n), dtype=np.int64)
        runs = _run_end_bits(x, k)
        hit = runs != 0
        no_run += int(runs.size - np.count_nonzero(hit))
        low_bits = runs[hit] & -runs[hit]
        # positions are exact powers of two below 2**24, safe in float64
        positions = np.log2(low_bits.astype(np.float64)).astype(np.int64)
        ends += np.bincount(positions + k, minlength=n + 1)
    return tuple(int(c) for c in ends), no_run


def enumerate_truncated_expectation(k: int, n: int) -> Fraction:
    """Exact sum of i * (exhaustive count at i) / 2**i for i = 1..n."""
    _check_enum_args(k, n)
    acc = 0
    for i in range(1, n + 1):
        acc = 2 * acc + i * enumerate_counts(k, i)
    return Fraction(acc, 1 << n)


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


def _partition_rng(seed: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _partition_totals(
    k: int, threshold: np.uint64, n_trials: int, max_steps: int, rng
) -> tuple[int, int, int, int]:
    # Flip one coin per active trial per pass; drop trials as they
    # complete or hit the cap. Totals are exact Python ints.
    run = np.zeros(n_trials, dtype=np.int64)
    steps = np.zeros(n_trials, dtype=np.int64)
    completed = 0
    total = 0
    total_sq = 0
    truncated = 0
    while run.size:
        draws = rng.integers(0, 1 << 64, size=run.size, dtype=np.uint64)
        heads = draws < threshold
        steps += 1
        run += 1
        run[~heads] = 0
        done = run >= k
        n_done = int(np.count_nonzero(done))
        if n_done:
            lengths = steps[done]
            completed += n_done
            total += int(lengths.sum())
            total_sq += int((lengths * lengths).sum())
        live = ~done
        capped = live & (steps >= max_steps)
        n_capped = int(np.count_nonzero(capped))
        truncated += n_capped
        if n_done or n_capped:
            keep = live & ~capped
            run = run[keep]
            steps = steps[keep]
    return completed, total, total_sq, truncated


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
    otherwise.
    """
    p = config.success_prob
    threshold = np.uint64((p.numerator << 64) // p.denominator)
    # int64 step counters cannot reach 2**62 anyway; clamping keeps the
    # numpy comparison in range for caps like 1000 * 2**64
    step_cap = min(config.max_steps_per_trial, 1 << 62)
    completed = 0
    total = 0
    total_sq = 0
    truncated = 0
    remaining = config.trials
    index = 0
    while remaining:
        block = min(PARTITION_SIZE, remaining)
        c, t, tsq, tr = _partition_totals(
            config.k,
            threshold,
            block,
            step_cap,
            _partition_rng(config.seed, index),
        )
        completed += c
        total += t
        total_sq += tsq
        truncated += tr
        remaining -= block
        index += 1
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
