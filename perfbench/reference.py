"""Reference values computed apart from streakcalc.

Nothing here imports the program.  The exact values come from the
run-length Markov chain of the coin: the state is the length ``j`` of
the current run of heads (0 <= j < k).  A tail sends every state to 0,
a head moves ``j`` to ``j + 1``, and a head from ``k - 1`` completes the
first k-run.  Weights are integer sequence counts at scale ``2**n``, so
every value is exact.

The program's count recurrence, generating function and oracles are
different routes to the same numbers; the benchmark checks them here.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


def expectation(k: int) -> int:
    """E(X) = 2 (2**k - 1), the paper's result, as an integer."""
    return 2 * ((1 << k) - 1)


class RunChain:
    """Sequence counts of the run-length chain after ``n`` fair trials.

    ``weights[j]`` counts the length-``n`` sequences with no k-run yet
    whose current head run has length ``j``; ``completions`` counts
    those whose first k-run ends exactly at trial ``n`` (the paper's
    ``c(n)``); ``survivors`` is the sum of ``weights``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"run length must be >= 1, got {k}")
        self.k = k
        self.n = 0
        self.weights = deque([1] + [0] * (k - 1))
        self.survivors = 1
        self.completions = 0

    def step(self) -> None:
        done = self.weights.pop()  # state k-1 followed by a head
        self.weights.appendleft(self.survivors)  # any state followed by a tail
        self.survivors = 2 * self.survivors - done
        self.completions = done
        self.n += 1

    def advance_to(self, n: int) -> "RunChain":
        if n < self.n:
            raise ValueError(f"chain is at {self.n}, cannot go back to {n}")
        while self.n < n:
            self.step()
        return self

    def tail(self) -> Fraction:
        """P(X > n)."""
        return Fraction(self.survivors, 1 << self.n)

    def truncated_expectation(self) -> Fraction:
        """E[X; X <= n] = E(X) - E[X; X > n].

        From state ``j`` the expected number of further trials is
        ``2**(k+1) - 2**(j+1)``, so a surviving sequence contributes
        ``n + 2**(k+1) - 2**(j+1)`` to E[X; X > n].
        """
        k, n = self.k, self.n
        beyond = sum(
            w * (n + (1 << (k + 1)) - (1 << (j + 1)))
            for j, w in enumerate(self.weights)
        )
        return expectation(k) - Fraction(beyond, 1 << n)

    def series_tail(self, r: Fraction) -> Fraction:
        """sum_{i > n} c(i) r**i, the gap between the count series
        truncated at ``n`` and its limit, for 0 < r <= 1/2.

        ``g[j]``, the count series of the remaining trials from state
        ``j``, solves g_j = r g_0 + r g_{j+1} with g_k = 1, so
        g_j = g_0 (r + ... + r**(k-j)) + r**(k-j) and
        g_0 = r**k / (1 - (r + ... + r**k)).
        """
        k = self.k
        powers = [r**i for i in range(k + 1)]
        g0 = powers[k] / (1 - sum(powers[1:]))
        total = Fraction(0)
        for j, w in enumerate(self.weights):
            if w:
                g = g0 * sum(powers[1 : k - j + 1]) + powers[k - j]
                total += w * g
        return total * r**self.n


def chain_at(k: int, n: int) -> RunChain:
    return RunChain(k).advance_to(n)


def counts(k: int, n_max: int) -> list[int]:
    """c(0), ..., c(n_max) from the chain."""
    chain = RunChain(k)
    values = [0]
    for _ in range(n_max):
        chain.step()
        values.append(chain.completions)
    return values


def waiting_time_moments(k: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the trials until the first k-run of
    successes with success probability ``p``.

    With T_j the remaining trials from state j (T_k = 0),
    m_j = 1 + p m_{j+1} + q m_0 and
    s_j = E[T_j**2] = 1 + 2 (p m_{j+1} + q m_0) + p s_{j+1} + q s_0.
    Each is affine in its state-0 value, solved back from j = k.
    """
    p = Fraction(p)
    q = 1 - p
    # m_j = a_j + b_j m_0, back from a_k = b_k = 0
    a = [Fraction(0)] * (k + 1)
    b = [Fraction(0)] * (k + 1)
    for j in range(k - 1, -1, -1):
        a[j] = 1 + p * a[j + 1]
        b[j] = q + p * b[j + 1]
    m0 = a[0] / (1 - b[0])
    m = [a[j] + b[j] * m0 for j in range(k + 1)]
    big_a = [Fraction(0)] * (k + 1)
    big_b = [Fraction(0)] * (k + 1)
    for j in range(k - 1, -1, -1):
        big_a[j] = 1 + 2 * (p * m[j + 1] + q * m0) + p * big_a[j + 1]
        big_b[j] = q + p * big_b[j + 1]
    s0 = big_a[0] / (1 - big_b[0])
    return m0, s0 - m0 * m0


def parse_decimal(text: str) -> int:
    """Parse a decimal integer of any length.

    ``int()`` refuses strings over the interpreter's digit limit (4300
    by default); the benchmark leaves that limit alone, so long strings
    are parsed in chunks below it.
    """
    if not text or not (text.isdigit() or (text[0] == "-" and text[1:].isdigit())):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    sign = -1 if text[0] == "-" else 1
    digits = text.lstrip("-")
    if len(digits) > 1 and digits[0] == "0":
        raise ValueError(f"leading zero in {text[:40]!r}")
    chunk = 4000
    value = 0
    for i in range(0, len(digits), chunk):
        part = digits[i : i + chunk]
        value = value * 10 ** len(part) + int(part)
    return sign * value
