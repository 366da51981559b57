"""Monte Carlo cross-validation
================================

A seeded, reproducible simulator flips actual pseudo-random coins and
must land within sampling error of the exact expectation 2(2**k - 1).
Identical configs give byte-identical reports: every coin comes from
one Mersenne Twister stream, ``random.Random(seed)``.
"""

from fractions import Fraction

from streakcalc import SimConfig, simulate

TRIALS = 200_000
SEED = 1905

print(f"{TRIALS} trials per k, seed {SEED}")
print(f"{'k':>2} {'exact':>6} {'sample mean':>12} {'3 sigma band':>13} {'ok':>3}")
for k in range(1, 7):
    report = simulate(
        SimConfig(k=k, success_prob=Fraction(1, 2), trials=TRIALS, seed=SEED)
    )
    exact = 2 * (2**k - 1)
    band = 3 * (report.sample_variance / report.completed_trials) ** 0.5
    ok = abs(report.sample_mean - exact) < band
    print(f"{k:>2} {exact:>6} {report.sample_mean:>12.4f} {band:>13.4f} {str(ok):>3}")

# Reproducibility: rerunning the same config changes nothing.
again = simulate(SimConfig(k=3, success_prob=Fraction(1, 2), trials=TRIALS, seed=SEED))
once = simulate(SimConfig(k=3, success_prob=Fraction(1, 2), trials=TRIALS, seed=SEED))
print("\nsame config, same report:", once == again)

# Biased coins are accepted for exploration (no exact reference value).
biased = simulate(SimConfig(k=2, success_prob=Fraction(7, 10), trials=TRIALS, seed=SEED))
print(f"k=2 with p=7/10: sample mean {biased.sample_mean:.4f}")
