"""Tests of the benchmark itself: its reference values, and that each
workload's checks reject a wrong answer from a fake program.

Run from the repository root:  python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import OpFailed, ProcResult, WrongOutput  # noqa: E402

import streakcalc  # noqa: E402
import streakcalc.cli  # noqa: E402


def brute_force(k, n):
    """First-run end counts, survivors by final head run, by listing
    every length-n sequence."""
    ends = [0] * (n + 1)
    survivors = [0] * k
    for seq in itertools.product((0, 1), repeat=n):
        run_len = 0
        for i, heads in enumerate(seq, start=1):
            run_len = run_len + 1 if heads else 0
            if run_len == k:
                ends[i] += 1
                break
        else:
            survivors[run_len] += 1
    return ends, survivors


# ---------------------------------------------------------------- reference


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_matches_brute_force(k):
    n = 12
    ends, survivors = brute_force(k, n)
    chain = ref.chain_at(k, n)
    assert list(chain.weights) == survivors
    # ends[i] counts length-n sequences; c(i) counts length-i ones
    assert [c << (n - i) for i, c in enumerate(ref.counts(k, n))] == ends
    want = sum(Fraction(i * ends[i], 1 << n) for i in range(n + 1))
    assert chain.truncated_expectation() == want


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_series_tail_telescopes(k):
    for r in (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)):
        c = ref.counts(k, 40)
        assert ref.chain_at(k, 0).series_tail(r) == sum(c[i] * r**i for i in range(41)) + \
            ref.chain_at(k, 40).series_tail(r)
    assert ref.chain_at(k, 0).series_tail(Fraction(1, 2)) == 1  # total mass


def test_waiting_time_moments():
    for k in range(1, 8):
        mean, var = ref.waiting_time_moments(k, Fraction(1, 2))
        assert mean == ref.expectation(k)
        assert var == (1 << (2 * k + 2)) - (2 * k + 1) * (1 << (k + 1)) - 2
    p = Fraction(1, 3)  # k = 1 is geometric
    assert ref.waiting_time_moments(1, p) == (1 / p, (1 - p) / p**2)


def test_parse_decimal_beyond_digit_limit():
    text = "7" + "0" * 9999
    assert ref.parse_decimal(text) == 7 * 10**9999
    for bad in ("", "12a", "012", "1.5"):
        with pytest.raises(ValueError):
            ref.parse_decimal(bad)


# ---------------------------------------------------------------- fakes


def fake_lib(**overrides):
    """The real program, with some functions replaced: "module.name" -> fn."""
    lib = SimpleNamespace(
        **{
            name: SimpleNamespace(**vars(getattr(streakcalc, name)))
            for name in ("counts", "distribution", "genfunc", "oracle")
        }
    )
    for dotted, fn in overrides.items():
        module, attr = dotted.split(".")
        setattr(getattr(lib, module), attr, fn)
    return lib


def outcomes(ops):
    """label -> "ok", "failed" or "wrong" for each op run in turn."""
    runner = run.Runner(tracer=None, env=run.child_env())
    return {op.label: runner.run(op, 0).status for op in ops}


def test_exact_deep_rejects_count_off_by_one_and_shifted_tail():
    real = streakcalc
    lib = fake_lib(**{
        "counts.count_at": lambda spec, n: real.count_at(spec, n) + 1,
        "distribution.tail_mass": lambda spec, n: real.tail_mass(spec, n) + Fraction(1, 1 << n),
    })
    status = outcomes(wl.exact_deep(3, lib).make_round(0))
    assert status.pop("count_at k=3") == "wrong"
    assert status.pop("tail_mass k=4") == "wrong"  # both tail operations share the label
    assert set(status.values()) == {"ok"}


def test_exact_deep_rejects_each_small_error():
    spec = streakcalc.RunSpec(4)
    n = 60
    table = streakcalc.pmf_table(spec, n)
    with pytest.raises(WrongOutput):
        wl.check_truncated(4, n, streakcalc.truncated_expectation(spec, n) + Fraction(1, 1 << n))
    with pytest.raises(WrongOutput):
        wl.check_pmf(4, n, streakcalc.pmf(spec, n) * 2)
    with pytest.raises(WrongOutput):
        wl.check_series_gap(4, Fraction(2, 5), n, Fraction(0))
    bad = list(table)
    bad[30] = streakcalc.PmfRow(31, bad[30].count, bad[30].mass, bad[30].cumulative + Fraction(1, 1 << 31))
    with pytest.raises(WrongOutput):
        wl.check_pmf_table(4, n, bad)
    wl.check_pmf_table(4, n, table)
    with pytest.raises(WrongOutput):  # a tail that does not decrease
        wl.check_tail(4, n, streakcalc.tail_mass(spec, n), above=streakcalc.tail_mass(spec, n + 1))
    routes = [(k, Fraction(ref.expectation(k)), Fraction(ref.expectation(k))) for k in range(1, 65)]
    wl.check_expectations(routes)
    routes[1] = (2, Fraction(2), Fraction(6))  # the misprinted table value
    with pytest.raises(WrongOutput):
        wl.check_expectations(routes)


def test_library_exception_counts_as_failed():
    def boom(spec, n):
        raise streakcalc.CapacityError("table too big")

    status = outcomes(wl.exact_deep(3, fake_lib(**{"distribution.pmf": boom})).make_round(0)[:2])
    assert status == {"count_at k=3": "ok", "pmf k=5": "failed"}


def _moved(report, sigmas):
    stderr = math.sqrt(report.sample_variance / report.completed_trials)
    return streakcalc.SimReport(
        report.completed_trials, report.truncated_trials,
        report.sample_mean + sigmas * stderr, report.sample_variance,
        report.seed, report.rng_algorithm,
    )


def _truncated(report):
    return streakcalc.SimReport(
        report.completed_trials - 1, 1, report.sample_mean, report.sample_variance,
        report.seed, report.rng_algorithm,
    )


def test_oracles_reject_moved_mean_truncation_and_bad_enumeration():
    real = streakcalc.simulate

    def exact_mean_moved_6_se(config):
        report = real(config)
        mean, _ = ref.waiting_time_moments(config.k, config.success_prob)
        return _moved(streakcalc.SimReport(
            report.completed_trials, 0, float(mean), report.sample_variance,
            report.seed, report.rng_algorithm), 6)

    ops = wl.oracles(5, fake_lib(**{"oracle.simulate": exact_mean_moved_6_se})).make_round(0)
    sims = [op for op in ops if op.label.startswith("simulate")]
    assert set(outcomes(sims).values()) == {"wrong"}

    lib = fake_lib(**{
        "oracle.simulate": lambda config: _truncated(real(config)),
        "oracle.enumerate_counts": lambda k, n: streakcalc.enumerate_counts(k, n) + 1,
        "oracle.enumerate_first_run_histogram":
            lambda k, n: (lambda ends, none: (ends, none + 1))(*streakcalc.enumerate_first_run_histogram(k, n)),
    })
    status = outcomes(wl.oracles(5, lib).make_round(0))
    assert set(status.values()) == {"wrong"}

    assert set(outcomes(wl.oracles(5, streakcalc).make_round(0)).values()) == {"ok"}


def test_oracles_reject_nondeterministic_repeat():
    real = streakcalc.simulate
    calls = []

    def drifting(config):
        """Each call draws a fresh stream but reports the asked-for seed."""
        calls.append(config)
        report = real(streakcalc.SimConfig(config.k, config.success_prob, config.trials,
                                           config.seed + len(calls)))
        return dataclasses.replace(report, seed=config.seed)

    ops = wl.oracles(2, fake_lib(**{"oracle.simulate": drifting})).make_round(0)
    status = outcomes(ops)
    assert status.pop("simulate k=4 twice") == "wrong"
    assert set(status.values()) == {"ok"}  # each report alone passes


# ---------------------------------------------------------------- CLI fakes


def real_cli(argv):
    """The program's own output for argv, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = streakcalc.cli.main(argv)
    return ProcResult(code, out.getvalue(), err.getvalue())


CRASH = ProcResult(
    1, "",
    "Traceback (most recent call last):\n  File \"cli.py\", line 1, in <module>\n"
    "ValueError: Exceeds the limit (4300 digits) for integer string conversion\n",
)


def test_cli_session_checks_pass_real_output_and_reject_a_crash():
    for op in wl.cli_session(4).make_round(0):
        op.check(real_cli(op.argv))
        with pytest.raises(OpFailed):
            op.check(CRASH)


def _bump_count(text, fmt):
    """Add one to the count at n = 12 of a counts output."""
    if fmt == "csv":
        lines = text.split("\r\n")
        n, c = lines[13].split(",")
        lines[13] = f"{n},{int(c) + 1}"
        return "\r\n".join(lines)
    marker = '"n": 12,\n      "count": '
    head, tail = text.split(marker)
    digits = tail.split("\n", 1)
    return head + marker + str(int(digits[0]) + 1) + "\n" + digits[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_counts_check_rejects_count_off_by_one(fmt):
    argv = ["counts", "--k", "3", "--n-max", "40", "--format", fmt]
    res = real_cli(argv)
    wl.check_counts_output(3, 40, fmt, res)
    res.stdout = _bump_count(res.stdout, fmt)
    with pytest.raises(WrongOutput):
        wl.check_counts_output(3, 40, fmt, res)


def test_simulate_check_rejects_truncated_trial_and_moved_mean():
    argv = ["simulate", "--k", "3", "--trials", "3000", "--seed", "5"]
    res = real_cli(argv)
    wl.check_simulate_output(3, 3000, 5, "json", res)
    truncated = ProcResult(0, res.stdout.replace('"truncated_trials": 0', '"truncated_trials": 1'), "")
    with pytest.raises(WrongOutput):
        wl.check_simulate_output(3, 3000, 5, "json", truncated)
    _, var = ref.waiting_time_moments(3, Fraction(1, 2))
    moved_mean = 14 + 6 * math.sqrt(var / 3000)
    start = res.stdout.index('"sample_mean": ') + len('"sample_mean": ')
    end = res.stdout.index(",", start)
    moved = ProcResult(0, res.stdout[:start] + repr(moved_mean) + res.stdout[end:], "")
    with pytest.raises(WrongOutput):
        wl.check_simulate_output(3, 3000, 5, "json", moved)


def test_expect_check_rejects_wrong_truncated_series():
    res = real_cli(["expect", "--k-min", "1", "--k-max", "3", "--n-max", "30"])
    wl.check_expect_output(1, 3, 30, None, "json", res)
    want = str(ref.chain_at(3, 30).truncated_expectation())
    wrong = str(ref.chain_at(3, 31).truncated_expectation())
    res.stdout = res.stdout.replace(want, wrong)
    with pytest.raises(WrongOutput):
        wl.check_expect_output(1, 3, 30, None, "json", res)


def test_table_dump_probes_fail_on_crash_and_pass_refusal_or_full_table():
    probes = [op for op in wl.table_dump(1).make_round(0) if not op.measured]
    assert len(probes) == 2
    refusal = ProcResult(3, "", "streakcalc: capacity error: output too large\n")
    for probe in probes:
        with pytest.raises(OpFailed):
            probe.check(CRASH)
        probe.check(refusal)
    with pytest.raises(OpFailed):  # exit 3 is allowed only as a one-line message
        probes[0].check(ProcResult(3, "", CRASH.stderr))
    # a mended program that prints the full table passes
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        mended = real_cli(probes[1].argv)
    finally:
        sys.set_int_max_str_digits(old)
    probes[1].check(mended)
    mended.stdout = mended.stdout.replace('"exact_agreement": true', '"exact_agreement": false')
    with pytest.raises(WrongOutput):
        probes[1].check(mended)


def test_table_dump_tables_are_checked_row_by_row():
    ops = [op for op in wl.table_dump(1).make_round(0) if op.measured]
    assert [op.argv[op.argv.index("--k") + 1] for op in ops] == ["2", "3", "4", "6", "8"]
    res = real_cli(["counts", "--k", "8", "--n-max", "300", "--format", "csv"])
    wl.check_counts_output(8, 300, "csv", res)
    with pytest.raises(WrongOutput):
        wl.check_counts_output(8, 301, "csv", res)


# ---------------------------------------------------------------- tracing


def test_tracer_rebinds_every_importer_and_restores():
    import streakcalc.distribution as distribution
    import streakcalc.genfunc as genfunc

    original = streakcalc.counts.build_count_table
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert distribution.build_count_table is not original
        assert genfunc.build_count_table is distribution.build_count_table
        spec = streakcalc.RunSpec(3)
        distribution.tail_mass(spec, 50)
        genfunc.series_matches_closed_form(spec, Fraction(1, 2), 40)
    finally:
        tracer.uninstall()
    assert distribution.build_count_table is original
    names = [s["name"] for s in tracer.spans]
    assert names == [
        "distribution.tail_mass", "counts.build_count_table", "counts.table_cap",
        "genfunc.series_matches_closed_form", "counts.build_count_table", "counts.table_cap",
        "genfunc.eval_y", "genfunc.denominator_core",
    ]
    assert tracer.spans[1]["parent"] == 0
    totals = spans.layer_totals(tracer.spans)
    assert totals["counts.builds"] == 2
    assert totals["counts.entries"] == 51 + 41
    assert totals["genfunc.series_terms"] == 38
    assert totals["distribution.self_ms"] > 0


def test_rates_come_from_round_medians():
    recs = [run.Record("a", r, True, seconds=s, out_bytes=10**6)
            for r, s in [(0, 1.0), (0, 1.0), (1, 0.5), (1, 0.5), (2, 4.0), (2, 4.0)]]
    m = run.rate_metrics(recs)
    assert m["ops_per_s"] == 1.0  # rounds give 1, 2 and 0.25 ops/s
    assert m["out_mb_per_s"] == 1.0
    assert m["latency_p50_ms"] == 1000.0
    assert m["latency_p90_ms"] == 4000.0


def test_benchmark_json_names_the_printed_metrics():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
