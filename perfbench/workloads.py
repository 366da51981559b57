"""The four workloads: fixed lists of operations, and the checks on their
outputs.

A workload is a list of operations repeated in rounds.  Round ``r``
shifts every horizon and seed by ``r``, so no input repeats across the
rounds of a run; the ``--seed`` of the run fixes the offsets.  Each
operation carries the check of its own output.  A check raises
:class:`OpFailed` when the program failed (an exception, or a nonzero
exit not allowed for that operation) and :class:`WrongOutput` when it
answered wrongly; the values it checks against come from
:mod:`reference`, never from the program.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import reference as ref

HALF = Fraction(1, 2)
# A Monte Carlo mean further than this many of its own standard errors
# from 2(2**k - 1) is wrong; at 5 a correct simulator fails about once in
# two million checks.
MC_SIGMAS = 5


class WrongOutput(Exception):
    """The program answered, but the answer disagrees with the check."""


class OpFailed(Exception):
    """The program failed to answer: an exception or a refused exit code."""


@dataclass
class Op:
    """One operation: a library call (``call``) or a CLI process (``argv``)."""

    label: str
    check: Callable[[object], None]
    call: Callable[[], object] | None = None
    argv: list[str] | None = None
    # False for an operation kept out of every timing and memory metric
    # (it is still attempted, checked and counted).
    measured: bool = True


@dataclass
class ProcResult:
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Workload:
    name: str
    kind: str  # "process" runs CLI processes, "inproc" calls the library
    round_s: float  # nominal seconds per round on the reference machine
    min_rounds: int
    make_round: Callable[[int], list[Op]]
    warmup: Callable[[], list[Op]]

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def payload_bytes(value) -> int:
    """Size of a returned value: integers by their bit length."""
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, Fraction):
        return payload_bytes(value.numerator) + payload_bytes(value.denominator)
    if isinstance(value, (list, tuple)):
        return sum(payload_bytes(v) for v in value)
    if dataclasses.is_dataclass(value):
        return sum(payload_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"no size for {type(value).__name__}")


# ---------------------------------------------------------------- library checks


def check_count(k: int, n: int, got) -> None:
    want = ref.chain_at(k, n).completions
    _expect(got == want, f"c({n}) for k={k} is off by {got - want}")


def check_pmf(k: int, n: int, got) -> None:
    want = Fraction(ref.chain_at(k, n).completions, 1 << n)
    _expect(got == want, f"P(X={n}) for k={k} is off by {got - want}")


def check_tail(k: int, n: int, got, above=None) -> None:
    """Exact P(X > n); with ``above``, the tail at a smaller horizon."""
    want = ref.chain_at(k, n).tail()
    _expect(got == want, f"P(X>{n}) for k={k} is off by {got - want}")
    _expect(0 < got < 1, f"P(X>{n}) for k={k} not in (0, 1)")
    if above is not None:
        _expect(got < above, f"P(X>n) for k={k} does not decrease at n={n}")


def check_truncated(k: int, n: int, got) -> None:
    want = ref.chain_at(k, n).truncated_expectation()
    _expect(got == want, f"E[X; X<={n}] for k={k} is off by {got - want}")
    _expect(got < ref.expectation(k), f"E[X; X<={n}] for k={k} not below 2(2^k-1)")


def check_series_gap(k: int, r: Fraction, n: int, got) -> None:
    want = ref.chain_at(k, n).series_tail(r)
    _expect(got == want, f"series gap for k={k}, r={r}, n={n} is off by {got - want}")


def check_pmf_table(k: int, n_max: int, rows) -> None:
    _expect(len(rows) == n_max, f"pmf_table has {len(rows)} rows, wants {n_max}")
    chain = ref.RunChain(k)
    for row in rows:
        chain.step()
        n, c = chain.n, chain.completions
        _expect(row.n == n, f"pmf_table row {n} is labelled {row.n}")
        _expect(row.count == c, f"pmf_table count at {n} is off by {row.count - c}")
        # mass == c / 2**n and cumulative == 1 - survivors / 2**n, cross-multiplied
        mass, cum = row.mass, row.cumulative
        _expect(mass.numerator << n == c * mass.denominator, f"pmf_table mass at {n}")
        _expect(
            cum.numerator << n == ((1 << n) - chain.survivors) * cum.denominator,
            f"pmf_table cumulative at {n}",
        )


def check_expectations(got) -> None:
    """``got`` holds (k, half-derivative route, closed form) for each k."""
    _expect([k for k, _, _ in got] == list(range(1, 65)), "expectation routes skip a k")
    for k, derived, closed in got:
        want = ref.expectation(k)
        _expect(derived == want, f"derivative route for k={k}: {derived} != {want}")
        _expect(closed == want, f"closed form for k={k}: {closed} != {want}")


def check_mc_mean(k: int, p: Fraction, mean: float, stderr: float, what: str) -> None:
    want, _ = ref.waiting_time_moments(k, p)
    _expect(
        abs(mean - float(want)) <= MC_SIGMAS * stderr,
        f"{what}: mean {mean} is {abs(mean - float(want)) / stderr:.1f} "
        f"standard errors from {want}",
    )


def check_sim_report(k: int, p: Fraction, trials: int, seed: int, report) -> None:
    _expect(report.truncated_trials == 0, f"simulate k={k}: {report.truncated_trials} truncated trials")
    _expect(report.completed_trials == trials, f"simulate k={k}: {report.completed_trials} of {trials} trials")
    _expect(report.seed == seed, f"simulate k={k}: seed {report.seed} != {seed}")
    _expect(report.sample_variance > 0, f"simulate k={k}: variance {report.sample_variance}")
    stderr = math.sqrt(report.sample_variance / report.completed_trials)
    check_mc_mean(k, p, report.sample_mean, stderr, f"simulate k={k} p={p}")


def check_histogram(k: int, n: int, got) -> None:
    ends, no_run = got
    _expect(len(ends) == n + 1, f"histogram has {len(ends)} bins, wants {n + 1}")
    _expect(sum(ends) + no_run == 1 << n, f"histogram does not partition 2^{n}")
    chain = ref.RunChain(k)
    for m in range(1, n + 1):
        chain.step()
        want = chain.completions << (n - m)
        _expect(ends[m] == want, f"histogram bin {m} for k={k}, n={n} is off by {ends[m] - want}")
    _expect(no_run == chain.survivors, f"histogram no-run count for k={k}, n={n}")


# ---------------------------------------------------------------- CLI checks


def require_exit_0(res: ProcResult) -> None:
    if res.returncode != 0:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        raise OpFailed(f"exit {res.returncode}: {last[0][:200]}")


def _refused_on_one_line(res: ProcResult) -> bool:
    """Exit 3 (capacity) with a one-line message: an allowed refusal."""
    return res.returncode == 3 and len(res.stderr.strip().splitlines()) == 1


def _envelope_rows(res: ProcResult, fmt: str, command: str, parameters: dict) -> list[dict]:
    """Rows of a JSON envelope (integers parsed at any length), or CSV
    rows as dicts of strings."""
    if fmt == "csv":
        _expect(res.stdout.endswith("\r\n"), f"{command}: CSV does not end with CRLF")
        return list(csv.DictReader(io.StringIO(res.stdout, newline="")))
    try:
        payload = json.loads(res.stdout, parse_int=ref.parse_decimal)
    except ValueError as exc:
        raise WrongOutput(f"{command}: stdout is not JSON: {exc}") from None
    _expect(payload.get("command") == command, f"{command}: envelope names {payload.get('command')!r}")
    got = {key: payload["parameters"].get(key) for key in parameters}
    _expect(got == parameters, f"{command}: parameters {got} != {parameters}")
    return payload["rows"]


def check_counts_output(k: int, n_max: int, fmt: str, res: ProcResult) -> None:
    require_exit_0(res)
    rows = _envelope_rows(res, fmt, "counts", {"k": k, "n_max": n_max, "format": fmt})
    _expect(len(rows) == n_max + 1, f"counts: {len(rows)} rows, wants {n_max + 1}")
    chain = ref.RunChain(k)
    for n, row in enumerate(rows):
        if n:
            chain.step()
        got_n, got_c = row["n"], row["count"]
        if fmt == "csv":
            got_n, got_c = ref.parse_decimal(got_n), ref.parse_decimal(got_c)
        _expect(got_n == n, f"counts: row {n} is labelled {got_n}")
        _expect(got_c == chain.completions, f"counts: c({n}) for k={k} is off by {got_c - chain.completions}")


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    parts = ref.parse_decimal(num), ref.parse_decimal(den or "1")
    value = Fraction(*parts)
    _expect((value.numerator, value.denominator) == parts, f"{text[:40]!r} is not in lowest terms")
    return value


def check_expect_output(
    k_min: int, k_max: int, n_max: int | None, trials: int | None, fmt: str, res: ProcResult
) -> None:
    """``trials`` is None without ``--simulate``."""
    require_exit_0(res)
    rows = _envelope_rows(res, fmt, "expect", {"k_min": k_min, "k_max": k_max, "n_max": n_max})
    _expect([str(r["k"]) for r in rows] == [str(k) for k in range(k_min, k_max + 1)], "expect: wrong k rows")
    for row in rows:
        k = int(row["k"])
        horizon = n_max or 64 * k
        want = ref.expectation(k)
        _expect(_parse_fraction(row["closed_form"]) == want, f"expect: closed form for k={k}")
        _expect(_parse_fraction(row["half_derivative"]) == want, f"expect: derivative route for k={k}")
        _expect(int(row["series_n_max"]) == horizon, f"expect: horizon for k={k}")
        truncated = _parse_fraction(row["series_truncated"])
        _expect(
            truncated == ref.chain_at(k, horizon).truncated_expectation(),
            f"expect: truncated series for k={k}, n={horizon}",
        )
        _expect(truncated < want, f"expect: truncated series for k={k} not below 2(2^k-1)")
        _expect(str(row["exact_agreement"]).lower() == "true", f"expect: routes disagree for k={k}")
        if trials is not None:
            _, variance = ref.waiting_time_moments(k, HALF)
            stderr = math.sqrt(variance / trials)
            check_mc_mean(k, HALF, float(row["monte_carlo_mean"]), stderr, f"expect --simulate k={k}")


def check_simulate_output(k: int, trials: int, seed: int, fmt: str, res: ProcResult) -> None:
    require_exit_0(res)
    rows = _envelope_rows(res, fmt, "simulate", {"k": k, "trials": trials, "seed": seed})
    _expect(len(rows) == 1, f"simulate: {len(rows)} rows")
    row = rows[0]
    report = SimpleNamespace(
        completed_trials=int(row["completed_trials"]),
        truncated_trials=int(row["truncated_trials"]),
        sample_mean=float(row["sample_mean"]),
        sample_variance=float(row["sample_variance"]),
        seed=int(row["seed"]),
    )
    check_sim_report(k, HALF, trials, seed, report)


def check_verify_output(k_max: int, fmt: str, res: ProcResult) -> None:
    require_exit_0(res)
    rows = _envelope_rows(res, fmt, "verify", {"k_max": k_max})
    _expect(len(rows) == 4 * k_max, f"verify: {len(rows)} checks, wants {4 * k_max}")
    failing = [r["check"] for r in rows if r["result"] != "PASS"]
    _expect(not failing, f"verify: {failing} did not pass")


def check_probe(check_table: Callable[[ProcResult], None], res: ProcResult) -> None:
    """An output over the interpreter's 4300-digit limit: a correct
    result or a one-line refusal with exit 3 passes; a crash fails."""
    if _refused_on_one_line(res):
        return
    check_table(res)


# ---------------------------------------------------------------- workloads


def _cli(label, argv, check, measured=True) -> Op:
    return Op(label=label, argv=argv, check=check, measured=measured)


def _lib_op(label, call, check) -> Op:
    return Op(label=label, call=call, check=check)


def _process_warmup() -> list[Op]:
    return [
        _cli("counts k=1 n=4", ["counts", "--k", "1", "--n-max", "4"],
             lambda res: check_counts_output(1, 4, "json", res)),
        _cli("simulate k=1 csv", ["simulate", "--k", "1", "--trials", "64", "--seed", "7", "--format", "csv"],
             lambda res: check_simulate_output(1, 64, 7, "csv", res)),
    ]


# Inputs that take no horizon or seed (verify's --k-max, the run lengths)
# run through a cycle of this many rounds, which is also the least number
# of rounds: every run then does the same work whatever its seed, and its
# 104 operations give a 90th percentile with ten samples above it.
CLI_CYCLE = 13


def cli_session(seed: int) -> Workload:
    rng = random.Random(f"cli-session:{seed}")
    n0 = rng.randrange(150, 160)
    sim0 = rng.randrange(2**32)
    phase = rng.randrange(CLI_CYCLE)

    def make_round(r: int) -> list[Op]:
        j = (r + phase) % CLI_CYCLE
        n, h, sim_seed = n0 + 3 * r, 40 + n0 // 4 + r, sim0 + r
        k_a, k_b, k_sim = 2 + j % 5, 2 + (j + 2) % 5, 2 + j % 4
        v_json, v_csv = 1 + j, CLI_CYCLE - j
        return [
            _cli(f"counts k={k_a}", ["counts", "--k", str(k_a), "--n-max", str(n)],
                 lambda res: check_counts_output(k_a, n, "json", res)),
            _cli(f"counts k={k_b} csv", ["counts", "--k", str(k_b), "--n-max", str(n + 1), "--format", "csv"],
                 lambda res: check_counts_output(k_b, n + 1, "csv", res)),
            _cli("expect k=1..5", ["expect", "--k-min", "1", "--k-max", "5", "--n-max", str(h)],
                 lambda res: check_expect_output(1, 5, h, None, "json", res)),
            _cli("expect k=1..4 --simulate csv",
                 ["expect", "--k-min", "1", "--k-max", "4", "--n-max", str(h + 1), "--simulate",
                  "--trials", "2000", "--seed", str(sim_seed), "--format", "csv"],
                 lambda res: check_expect_output(1, 4, h + 1, 2000, "csv", res)),
            _cli(f"simulate k={k_sim}", ["simulate", "--k", str(k_sim), "--trials", "4000", "--seed", str(sim_seed)],
                 lambda res: check_simulate_output(k_sim, 4000, sim_seed, "json", res)),
            _cli(f"simulate k={k_sim} csv",
                 ["simulate", "--k", str(k_sim), "--trials", "4000", "--seed", str(sim_seed + 2**40), "--format", "csv"],
                 lambda res: check_simulate_output(k_sim, 4000, sim_seed + 2**40, "csv", res)),
            _cli(f"verify k_max={v_json}", ["verify", "--k-max", str(v_json)],
                 lambda res: check_verify_output(v_json, "json", res)),
            _cli(f"verify k_max={v_csv} csv", ["verify", "--k-max", str(v_csv), "--format", "csv"],
                 lambda res: check_verify_output(v_csv, "csv", res)),
        ]

    return Workload("cli-session", "process", round_s=1.8,
                    min_rounds=CLI_CYCLE, make_round=make_round, warmup=_process_warmup)


# Probes of the serialization fault: both outputs hold numbers over the
# interpreter's 4300-digit limit.  Their inputs are fixed (not seeded),
# and they are kept out of every timing and memory metric, so a mend that
# writes the full table does not read as a slowdown.
PROBES = (
    ("counts k=3 n=20000 (digit limit)", ["counts", "--k", "3", "--n-max", "20000"],
     lambda res: check_counts_output(3, 20000, "json", res)),
    ("expect k=1 n=20000 (digit limit)", ["expect", "--k-min", "1", "--k-max", "1", "--n-max", "20000"],
     lambda res: check_expect_output(1, 1, 20000, None, "json", res)),
)

# (k, format, rows at round 0 before the seeded offset): k sets how fast
# the digits grow (0.209, 0.265, 0.284, 0.297 and 0.301 digits per row);
# each table holds 20-23 million digits, every count below 4300 digits.
TABLES = ((2, "json", 14000), (3, "csv", 13000), (4, "json", 12000), (6, "csv", 12000), (8, "json", 11500))


def table_dump(seed: int) -> Workload:
    offset = random.Random(f"table-dump:{seed}").randrange(40)

    def make_round(r: int) -> list[Op]:
        ops = []
        for k, fmt, rows in TABLES:
            n = rows + offset + 11 * r
            ops.append(_cli(f"counts k={k} {fmt}", ["counts", "--k", str(k), "--n-max", str(n), "--format", fmt],
                            lambda res, k=k, n=n, fmt=fmt: check_counts_output(k, n, fmt, res)))
        for label, argv, check in PROBES:
            ops.append(_cli(label, argv, lambda res, check=check: check_probe(check, res), measured=False))
        return ops

    return Workload("table-dump", "process", round_s=8.0, min_rounds=2,
                    make_round=make_round, warmup=_process_warmup)


def exact_deep(seed: int, lib) -> Workload:
    """``lib`` holds the program's modules: counts, distribution, genfunc."""
    d = random.Random(f"exact-deep:{seed}").randrange(60)
    spec = lib.counts.RunSpec
    dist, gen = lib.distribution, lib.genfunc

    # Horizons are set so that five operations cost about the same and sit
    # in the middle (their samples, not one operation's, make the median),
    # three cost much less, and the two series cost about the same at the
    # top (the 90th percentile falls among them).
    def make_round(r: int) -> list[Op]:
        s = d + 29 * r
        tails = {}

        def tail_op(k, n, above_n):
            def check(got):
                check_tail(k, n, got, tails.get(above_n))
                tails[n] = got
            return _lib_op(f"tail_mass k={k}", lambda: dist.tail_mass(spec(k), n), check)

        n_tail = 18500 + s
        return [
            _lib_op("count_at k=3", lambda: lib.counts.count_at(spec(3), 21000 + s),
                    lambda got: check_count(3, 21000 + s, got)),
            _lib_op("pmf k=5", lambda: dist.pmf(spec(5), 23000 + s),
                    lambda got: check_pmf(5, 23000 + s, got)),
            tail_op(4, n_tail, None),
            tail_op(4, n_tail + 700, n_tail),
            _lib_op("truncated_expectation k=6", lambda: dist.truncated_expectation(spec(6), 18000 + s),
                    lambda got: check_truncated(6, 18000 + s, got)),
            _lib_op("truncated_expectation k=4", lambda: dist.truncated_expectation(spec(4), 10000 + s),
                    lambda got: check_truncated(4, 10000 + s, got)),
            _lib_op("series r=1/2 k=6", lambda: gen.series_matches_closed_form(spec(6), HALF, 7500 + s),
                    lambda got: check_series_gap(6, HALF, 7500 + s, got)),
            _lib_op("series r=2/5 k=3",
                    lambda: gen.series_matches_closed_form(spec(3), Fraction(2, 5), 5000 + s),
                    lambda got: check_series_gap(3, Fraction(2, 5), 5000 + s, got)),
            _lib_op("pmf_table k=3", lambda: dist.pmf_table(spec(3), 3000 + s // 4),
                    lambda got: check_pmf_table(3, 3000 + s // 4, got)),
            _lib_op("expectation routes k=1..64",
                    lambda: [(k, gen.expectation(spec(k)), gen.expectation_closed_form(spec(k)))
                             for k in range(1, 65)],
                    check_expectations),
            _lib_op("pmf k=3", lambda: dist.pmf(spec(3), 12000 + s),
                    lambda got: check_pmf(3, 12000 + s, got)),
        ]

    return Workload("exact-deep", "inproc", round_s=0.75, min_rounds=3,
                    make_round=make_round, warmup=lambda: make_round(-1))


# Enumeration inputs (k, 21 - k) cycle through this many rounds, keeping
# the total of k (the kernel's shift count) the same in every round.
ENUM_CYCLE = 18


def oracles(seed: int, lib) -> Workload:
    """``lib`` holds the program's ``oracle`` module."""
    rng = random.Random(f"oracles:{seed}")
    sim0 = rng.randrange(2**32)
    phase = rng.randrange(ENUM_CYCLE)
    oracle = lib.oracle

    def sim_op(k, p, n_trials, sim_seed, label):
        config = oracle.SimConfig(k=k, success_prob=p, trials=n_trials, seed=sim_seed)
        return _lib_op(label, lambda: oracle.simulate(config),
                       lambda report: check_sim_report(k, p, n_trials, sim_seed, report))

    # Trial counts are set so that three simulations cost about the same
    # in the middle of the round's latencies and the k = 5, k = 6 and
    # enumeration operations about the same at the top, so neither the
    # median nor the 90th percentile rests on one operation's samples.
    def make_round(r: int) -> list[Op]:
        base = sim0 + 100 * (r + 1)
        ops = [sim_op(k, HALF, n, base + k, f"simulate k={k}")
               for k, n in ((1, 100_000), (2, 100_000), (3, 200_000), (4, 130_000), (5, 130_000), (6, 60_000))]
        ops.append(sim_op(3, Fraction(1, 3), 100_000, base + 7, "simulate k=3 p=1/3"))

        twice = oracle.SimConfig(k=4, success_prob=HALF, trials=25_000, seed=base + 8)

        def check_twice(reports):
            for report in reports:
                check_sim_report(4, HALF, 25_000, base + 8, report)
            _expect(reports[0] == reports[1], "simulate k=4: identical configs gave different reports")

        ops.append(_lib_op("simulate k=4 twice", lambda: (oracle.simulate(twice), oracle.simulate(twice)),
                           check_twice))

        if r >= 0:
            n, k_a = 21, 2 + (r + phase) % ENUM_CYCLE
        else:  # warm-up
            n, k_a = 14, 7
        k_b = n - k_a

        def check_enumerations(got):
            check_count(k_a, n, got[0])
            check_histogram(k_b, n, got[1])

        ops.append(_lib_op(f"enumerate n={n}",
                           lambda: (oracle.enumerate_counts(k_a, n), oracle.enumerate_first_run_histogram(k_b, n)),
                           check_enumerations))
        return ops

    return Workload("oracles", "inproc", round_s=1.1, min_rounds=3,
                    make_round=make_round, warmup=lambda: make_round(-1))


NAMES = ("cli-session", "exact-deep", "table-dump", "oracles")

# What a fresh interpreter runs to be ready for a workload's first
# operation: its imports and a first small call.
_CLI_SETUP = "import streakcalc.cli as cli; cli.build_parser()"
SETUP_CODE = {
    "cli-session": _CLI_SETUP,
    "table-dump": _CLI_SETUP,
    "exact-deep": (
        "from streakcalc import distribution; from streakcalc.counts import RunSpec; "
        "distribution.tail_mass(RunSpec(2), 8)"
    ),
    "oracles": (
        "from fractions import Fraction; from streakcalc import oracle; "
        "oracle.simulate(oracle.SimConfig(k=1, success_prob=Fraction(1, 2), trials=8, seed=0)); "
        "oracle.enumerate_counts(1, 4)"
    ),
}


def build(name: str, seed: int, lib) -> Workload:
    """``lib`` is the streakcalc package (or a fake in its place)."""
    if name == "cli-session":
        return cli_session(seed)
    if name == "table-dump":
        return table_dump(seed)
    if name == "exact-deep":
        return exact_deep(seed, lib)
    if name == "oracles":
        return oracles(seed, lib)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
