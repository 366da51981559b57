"""Independent ground truth: exhaustive enumeration and Monte Carlo.

Nothing in this module uses the count recurrence or the closed forms.
Enumeration walks every binary sequence of a given length; the
simulator flips actual (pseudo-random) coins.  Agreement between these
routes and the analytic modules is what the test suite and the
``verify`` command check.  Both routes are pure Python: the simulator
draws from the standard library's Mersenne Twister.

Sequence encoding for enumeration: integers ``0 .. 2**n - 1`` with bit
``i`` holding the outcome of trial ``i + 1`` (1 = heads).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .counts import RunSpec, _exact, _integer, _rational
from .errors import CapacityError, DomainError

# Exhaustion cap: at most 2**24 sequences per enumeration call.
ENUMERATION_CAP = 24

# Enumeration takes the sequences in chunks of 2**_ENUM_CHUNK_BITS, one
# bit each, so a chunk's n columns are 8 KiB ints.  The two enumerations
# of an ``oracles`` benchmark round (n = 21, best of 5, mean over its 18
# run lengths; 2-core x86-64, CPython 3.11.7) took 2.5 ms with 2**12-
# sequence chunks, 2.2 with 2**14, 2.7 with 2**16 and 4.8 with 2**18,
# against 41.0 ms for numpy over 2**14-word arrays.  The simulator's
# draws are at most 2**_ENUM_CHUNK_BITS bits, 8 KiB ints too; that size
# is part of its stream, so the constant stays 16.
_ENUM_CHUNK_BITS = 16

RNG_ALGORITHM = "mt19937-occupancy-planes"

# Most coin flips one call may simulate, counted as check_budget does: a
# minute at 0.4-0.9 ns a flip, or 2^29 plane draws of 2^7 flips: 1.0-2.4 min
# at k = 64, 16-1000 trials and p = 1/2, 1/3, 1/10, 1/1000, 3/4, 4.4-8.6
# with one trial (2-core x86-64, CPython 3.11.7).
SIMULATION_FLIP_CAP = 1 << 36


def _check_enum_args(k: int, n: int) -> None:
    _integer(k, "run length", 1)
    _integer(n, "sequence length", 1)
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration capped at 2**{ENUMERATION_CAP} sequences, "
            f"got n={_exact(n)}"
        )


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
    # Window i, the AND of columns i..i + k - 1, marks a run ending at
    # trial i + k.  Inside the low columns it is the same in every chunk:
    # each doubling pass widens span by up to its own length, so
    # ceil(log2 k) passes reach k.  A window reaching column c is the AND
    # of the low columns from i on (a suffix) in the chunks whose index
    # bits are ones at all of its columns from c on (its mask), else 0.
    runs, span = low, 1
    while span < k:
        s = min(span, k - span)
        runs = [a & b for a, b in zip(runs, runs[s:])]
        span += s
    suffix = [full]
    for col in reversed(low):
        suffix.append(col & suffix[-1])
    suffix.reverse()
    windows = [(i + k, run, 0) for i, run in enumerate(runs)]
    windows += [(i + k, suffix[min(i, c)], (1 << (i + k - c)) - (1 << max(i - c, 0)))
                for i in range(len(runs), n - k + 1)]
    ends = [0] * (n + 1)
    no_run = 0
    for chunk in range(1 << (n - c)):
        # a sequence's first run is its first window bit still unseen
        unseen = full
        for end, run, mask in windows:
            if chunk & mask == mask and (new := run & unseen):
                ends[end] += new.bit_count()
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


def _price(a: int, b: int, k: int) -> tuple[int, int] | None:
    """(ceil(p^-k), ceil(E)) for p = a/b in lowest terms, E = p^-1 + ...
    + p^-k the mean waiting time (S.-Y. R. Li, Ann. Probab. 8(6), 1980),
    or None where bit lengths show p^-k > 2^64: b/a > 2^(len b - len a - 1).

    For a > 1 neither is an integer (E's numerator over a^k is b^k mod
    a), so each ceiling is its floor + 1; for a = 1 both are integers.
    y = b/a is read to 128, 256, ... fractional bits, and y^k and E are
    formed in as many, rounded down from the quotient and up from the
    quotient + 1: the floors at the two bounds bracket the true ones,
    which they are where they agree.  Each takes O(log k) products, so a
    crafted p, whose p^-k lies within 2^-len(b) above an integer, is
    decided near len(b) bits without forming exact k-th powers; from
    4 len(b) bits on, the exact powers decide.
    """
    if k * (b.bit_length() - a.bit_length() - 1) >= 64:
        return None

    def floors(x: int, mask: int) -> tuple[int, int]:
        # of y^k and y + ... + y^k at y = x/2^shift, by doubling the run of
        # powers, each product rounded down (mask 0) or up (mask 2^shift - 1)
        xk = total = x
        for bit in bin(k)[3:]:
            total += (xk * total + mask) >> shift
            xk = (xk * xk + mask) >> shift
            if bit == "1":
                xk = (xk * x + mask) >> shift
                total += xk
        return xk >> shift, total >> shift

    shift = 128
    while shift < 4 * b.bit_length():
        x, rest = divmod(b << shift, a)
        low = floors(x, 0)
        if low == floors(x + (rest > 0), (1 << shift) - 1):
            break
        shift *= 2
    else:
        bk, ak = b**k, a**k
        low = bk // ak, b * (bk - ak) // ((b - a) * ak)
    return low[0] + (a > 1), low[1] + (a > 1)


class SimConfig(
    namedtuple("SimConfig", "k success_prob trials seed max_steps_per_trial")
):
    """Parameters of one reproducible simulation run, validated as built.

    ``success_prob`` other than 1/2 is exploratory only: the exact
    distribution modules cover just the fair coin.  The default step
    cap is 1000 * ceil(p**-k) (:func:`_price`), 1000 * 2**k for the fair
    coin.  The mean waiting time (1 - p**k) / (q p**k) is below p**-k / q,
    so unless q is tiny the cap lies far beyond any plausible completion,
    and truncation is a reportable anomaly rather than a silent bias.
    Where the bit lengths of p show p**-k > 2**64, the cap is 1000 *
    2**64, and :func:`check_budget` refuses the run at any trial count.
    """

    __slots__ = ()

    def __new__(cls, k, success_prob, trials, seed, max_steps_per_trial=None):
        RunSpec(k)  # validates the run length
        p = _rational(success_prob, "success probability")
        if not 0 < p < 1:
            raise DomainError(f"success probability must lie in (0, 1), got {_exact(p)}")
        _integer(trials, "trials", 1)
        _integer(seed, "seed")
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {_exact(seed)}")
        if max_steps_per_trial is None:
            price = _price(*p.as_integer_ratio(), k)
            max_steps_per_trial = 1000 << 64 if price is None else 1000 * price[0]
        _integer(max_steps_per_trial, "max_steps_per_trial")
        if max_steps_per_trial < k:
            cap = _exact(max_steps_per_trial)
            raise DomainError(f"max_steps_per_trial must be >= k, got {cap}")
        return super().__new__(cls, k, p, trials, seed, max_steps_per_trial)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so _replace validates too


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
    """Refuse, before any coin is drawn, simulations that would cost more
    than ``SIMULATION_FLIP_CAP`` coin flips in all.

    A config takes L = min(max steps, ceil(E)) steps, E = p^-1 + ... +
    p^-k the mean waiting time, priced by :func:`_price`.  Where p's bit
    lengths show p^-k > 2^64, L is the max steps: exact, or over budget
    either way.  A step flips a coin per live trial and draws once per
    bit-plane read in each nonempty run class, so it costs its trials, but
    no less than 2^7 flips a plane, and a class no less than one plane.
    """
    flips = 0
    for config in configs:
        k, trials, length = config.k, config.trials, config.max_steps_per_trial
        a, b = config.success_prob.as_integer_ratio()
        if price := _price(a, b, k):
            length = min(length, price[1])
        depth = len(_planes(_threshold(config.success_prob)))
        # nonempty run classes, estimated as the r < k with trials * p^r >= 1
        # (p to 64 bits): within one of the mean measured at p = 1/2, 1/3
        shift = max(0, b.bit_length() - 64)
        a, b = a >> shift, b >> shift
        classes = 1 + sum(trials * a**r >= b**r for r in range(1, min(k, trials)))
        # a class of n undecided flips reads planes until none is left, about
        # n.bit_length() + 1 (within 0.7 of the mean), n the mean class size;
        # a class with no plane to read (p < 2^-64) still costs a draw's step
        planes = classes * max(1, min(depth, (trials // classes).bit_length() + 1))
        flips += length * max(trials, planes << 7)
    if flips > SIMULATION_FLIP_CAP:
        raise CapacityError(
            f"simulation needs about 2^{math.log2(flips):.0f} coin flips, over "
            f"the budget of 2^{math.log2(SIMULATION_FLIP_CAP):.0f} "
            "(min(max steps, mean trial length) x max(trials, 2^7 x planes a step))"
        )


def _threshold(p: Fraction) -> int:
    """floor(p * 2**64): a flip is heads when a uniform 64-bit U is below it."""
    return (p.numerator << 64) // p.denominator


def _planes(threshold: int) -> list[bool]:
    """The threshold's bits, most significant first, down to its lowest set
    bit: the bit-planes a class draw may read."""
    return [bit == "1" for bit in format(threshold, "064b").rstrip("0")]


def _occupancy_totals(
    k: int, threshold: int, trials: int, max_steps: int, getrandbits
) -> tuple[int, int, int, int]:
    # Each step flips one coin for every live trial, class by class in
    # increasing run length.  A flip is heads when a uniform 64-bit U lies
    # below the threshold; U is read one bit-plane at a time, most
    # significant first, and a plane gives each undecided flip one random
    # bit.  The flips whose bit differs from the threshold's are decided,
    # and by symmetry their number is the popcount of the plane's bits:
    # heads where the threshold's bit is 1.  Past its lowest set bit no
    # undecided U can fall under it, so those are tails.
    planes = _planes(threshold)
    chunk = 1 << _ENUM_CHUNK_BITS
    fair = planes == [True]

    def heads(undecided: int) -> int:
        count = 0
        for plane in planes:
            if undecided <= chunk:
                decided = getrandbits(undecided).bit_count()
            else:  # draws of at most chunk bits
                decided = sum(getrandbits(min(chunk, undecided - lo)).bit_count()
                              for lo in range(0, undecided, chunk))
            undecided -= decided
            if plane:
                count += decided
            if not undecided:
                break
        return count

    # live[r] counts live trials whose current run is r heads, up to a
    # nonzero last entry, so r < len(live) <= k; empty classes draw nothing.
    live, alive = [trials], trials
    total = total_sq = step = 0
    while alive and step < max_steps:
        step += 1
        # heads move up a class, the top class completes, tails restart
        if fair and alive <= chunk:  # every class is one plane, one draw
            moved = [getrandbits(n).bit_count() if n else 0 for n in live]
        else:
            moved = [heads(n) if n else 0 for n in live]
        done = moved.pop() if len(moved) == k else 0
        alive -= done
        live = [alive - sum(moved), *moved]
        while alive and not live[-1]:
            live.pop()
        total += done * step
        total_sq += done * step * step
    return trials - alive, total, total_sq, alive


def simulate(config: SimConfig) -> SimReport:
    """Run the coin-flipping experiment ``config.trials`` times.

    A trial flips until a k-run completes or ``max_steps_per_trial``
    flips have been made; capped trials are counted as truncated and
    excluded from the mean and variance.  Identical configs produce
    identical reports: every bit comes from one Mersenne Twister stream,
    ``random.Random(seed)``.

    Trials whose current run has the same length are exchangeable, so
    the simulator keeps only how many live trials hold each run length,
    and each step draws how many of them flip heads.  A flip is heads
    when a uniform 64-bit integer, read one bit-plane at a time, lies
    below ``floor(p * 2**64)``: exact for any p with a power-of-two
    denominator (the fair coin takes one bit per flip), off by less than
    2**-64 otherwise.  Runs over the budget of :func:`check_budget` are
    refused before any coin is drawn.
    """
    check_budget([config])
    completed, total, total_sq, truncated = _occupancy_totals(
        config.k,
        _threshold(config.success_prob),
        config.trials,
        config.max_steps_per_trial,
        random.Random(config.seed).getrandbits,
    )
    mean = total / completed if completed else 0.0
    pairs = completed * (completed - 1)
    variance = (total_sq * completed - total * total) / pairs if pairs else 0.0
    return SimReport(
        completed_trials=completed,
        truncated_trials=truncated,
        sample_mean=mean,
        sample_variance=variance,
        seed=config.seed,
        rng_algorithm=RNG_ALGORITHM,
    )
