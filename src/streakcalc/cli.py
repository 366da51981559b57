"""Command-line interface.

Subcommands: ``counts``, ``expect``, ``simulate``, ``verify``.  Output
goes to stdout as a single JSON envelope (default) or an RFC-4180-style
CSV with a header row; diagnostics go to stderr.  Exact values are
serialized as fraction strings ("num/den") or integers, never floats;
floating point appears only in clearly labeled Monte Carlo columns.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 capacity error, 4 output error (stdout missing or refusing a write).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat

from . import counts as counts_mod
from . import distribution, genfunc, oracle
from .counts import RunSpec, _exact, _integer
from .errors import CapacityError, DomainError

FORMAT_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_OUTPUT = 4


def _fraction_arg(text: str) -> Fraction:
    try:
        return counts_mod.parse_digits(Fraction, text)
    except (ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streakcalc",
        description=(
            "Exact distribution and expectation of the number of fair coin "
            "tosses until the first run of k consecutive heads."
        ),
        epilog=(
            f"The environment variable {counts_mod.TABLE_CAP_ENV} overrides "
            f"the count-table capacity (default {counts_mod.DEFAULT_TABLE_CAP} entries)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser(
        "counts", help="table of first-completion counts c(n) for n = 0..n_max"
    )
    p_counts.add_argument("--k", type=int, required=True, help="run length")
    p_counts.add_argument("--n-max", type=int, required=True, help="last table index")
    p_counts.add_argument("--format", choices=("json", "csv"), default="json")

    p_expect = sub.add_parser(
        "expect", help="expectation table comparing all computation routes"
    )
    p_expect.add_argument("--k-min", type=int, required=True)
    p_expect.add_argument("--k-max", type=int, required=True)
    p_expect.add_argument(
        "--n-max", type=int, default=None,
        help="series truncation horizon (default 64*k per row)",
    )
    p_expect.add_argument(
        "--simulate", action="store_true",
        help="append a Monte Carlo mean column",
    )
    p_expect.add_argument("--trials", type=int, default=100_000)
    p_expect.add_argument("--seed", type=int, default=0)
    p_expect.add_argument("--format", choices=("json", "csv"), default="json")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run with full report")
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument(
        "--p", type=_fraction_arg, default=Fraction(1, 2),
        help="success probability as a fraction or decimal (default 1/2)",
    )
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-steps", type=int, default=None)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser(
        "verify", help="cross-validation battery over k = 1..k_max"
    )
    p_verify.add_argument("--k-max", type=int, required=True)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


class OutputEnvelope(
    namedtuple("OutputEnvelope", "command parameters rows notes", defaults=((),))
):
    """Machine-readable result wrapper.  An immutable named tuple.

    ``parameters`` echoes every input affecting the result, including
    seeds and truncation bounds, so identical invocations are
    identifiable and reproduce byte-identical output.  ``rows`` may be
    any iterable of dicts; an iterator is written once, row by row.
    """

    __slots__ = ()

    def write_json(self, put) -> None:
        """Hand ``put`` the pieces of ``json.dumps(payload, indent=2)``
        and a final line break, in order."""
        payload = {
            "command": self.command,
            "format_version": FORMAT_VERSION,
            "parameters": self.parameters,
            "rows": self.rows,
        }
        if self.notes:
            payload["notes"] = self.notes
        _json_pieces(payload, "\n", put)
        put("\n")

    def write_csv(self, put) -> None:
        """Hand ``put`` the lines that ``csv.DictWriter(...,
        lineterminator="\\r\\n")`` writes for the rows, header first;
        nothing without rows."""
        rows = iter(self.rows)
        first = next(rows, None)
        if first is None:
            return
        fields = list(first)
        put(_csv_line(fields))
        for row in chain((first,), rows):
            put(_csv_line([row.get(f) for f in fields]))

    def to_json(self) -> str:
        """The envelope as ``json.dumps(payload, indent=2)`` writes it."""
        out: list[str] = []
        self.write_json(out.append)
        return "".join(out)

    def to_csv(self) -> str:
        """The rows as ``csv.DictWriter`` writes them; see :meth:`write_csv`."""
        out: list[str] = []
        self.write_csv(out.append)
        return "".join(out)


@functools.lru_cache(maxsize=256)
def _json_key(key: str) -> str:
    # rows repeat the same few keys, so each is encoded once
    return json.dumps(key) + ": "


def _json_pieces(value, newline: str, put) -> None:
    """Hand ``put`` the pieces of ``value`` in ``json.dumps(indent=2)``
    layout; ``newline`` is a line break followed by the current
    indentation.  Iterators are written as arrays, as they arrive."""
    if type(value) in (int, Decimal):
        # Decimal cells hold integers and are written as bare digits, like int.
        put(str(value))
        return
    if isinstance(value, dict):
        brackets = "{}"
        items = [(_json_key(key), item) for key, item in value.items()]
    elif isinstance(value, (list, tuple, Iterator)):
        brackets = "[]"
        items = zip(repeat(""), value)
    else:
        put(json.dumps(value))
        return
    inner = newline + "  "
    sep = brackets[0] + inner
    for prefix, item in items:
        put(sep + prefix)
        _json_pieces(item, inner, put)
        sep = "," + inner
    # an empty container never wrote its opening bracket
    put(newline + brackets[1] if sep[0] == "," else brackets)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        # Only text can hold a delimiter, quote or line break; numbers
        # are written unscanned.
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return str(value)


def _csv_line(values: list) -> str:
    """One CSV record with minimal quoting, as the csv module writes it."""
    cells = [_csv_cell(v) for v in values]
    if cells == [""]:
        return '""\r\n'  # a lone empty field, quoted so the line is not blank
    return ",".join(cells) + "\r\n"


def _emit(command, parameters, rows, fmt, notes=None) -> None:
    """Write the envelope's pieces to stdout as its rows arrive; stdout's
    own buffer gathers them, so streamed rows are never held whole.  A
    stdout that passes each write on at once (``python -u``,
    PYTHONUNBUFFERED, a terminal) is block-buffered meanwhile, so that a
    piece of a row is not a system call of its own.

    A reader that stops early (``streakcalc counts ... | head``) ends the
    output, not the command: stdout is pointed at the null device, so the
    interpreter's final flush cannot fail again, and the exit code stays
    the command's own.  Any other failed write (a full disk) does the
    same and is raised again, as is a missing stdout, for ``main`` to
    end the command with ``EXIT_OUTPUT``.
    """
    envelope = OutputEnvelope(command, parameters, rows, notes or ())
    out = sys.stdout
    if out is None:  # started with its stdout closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    eager = {m: True for m in ("line_buffering", "write_through") if getattr(out, m, 0)}
    if eager:
        out.reconfigure(line_buffering=False, write_through=False)
    try:
        (envelope.write_csv if fmt == "csv" else envelope.write_json)(out.write)
        out.flush()
    except OSError as exc:
        # As the signal module's documentation advises for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise
    finally:
        if eager:
            out.reconfigure(**eager)


def _cmd_counts(args) -> int:
    spec = RunSpec(args.k)
    _integer(args.n_max, "--n-max", 0)
    # decimal_counts refuses here, before any output; the rows then
    # stream from it to stdout.
    counts = counts_mod.decimal_counts(spec, args.n_max)
    rows = ({"n": n, "count": c} for n, c in enumerate(counts))
    _emit(
        "counts",
        {"k": args.k, "n_max": args.n_max, "format": args.format},
        rows,
        args.format,
    )
    return EXIT_OK


def _cmd_expect(args) -> int:
    _integer(args.k_min, "--k-min", 1)
    if args.k_max < args.k_min:
        raise DomainError(
            f"empty range: --k-min {args.k_min} exceeds --k-max {args.k_max}"
        )
    if args.n_max is not None:
        _integer(args.n_max, "--n-max", 1)
    ks = range(args.k_min, args.k_max + 1)
    sims = {}
    if args.simulate:
        sims = {
            k: oracle.SimConfig(
                k=k, success_prob=Fraction(1, 2), trials=args.trials, seed=args.seed
            )
            for k in ks
        }
        oracle.check_budget(sims.values())
    specs = [RunSpec(k) for k in ks]
    rows = []
    notes = []
    all_agree = True
    for k, spec in zip(ks, specs):
        horizon = args.n_max or distribution.DEFAULT_HORIZON_FACTOR * k
        closed = genfunc.expectation_closed_form(spec)
        derived = genfunc.expectation(spec)
        truncated = distribution.truncated_expectation(spec, horizon)
        agree = closed == derived
        all_agree = all_agree and agree
        row = {
            "k": k,
            "closed_form": _exact(closed),
            "half_derivative": _exact(derived),
            "series_n_max": horizon,
            "series_truncated": _exact(truncated),
            "exact_agreement": agree,
        }
        if args.simulate:
            row["monte_carlo_mean"] = oracle.simulate(sims[k]).sample_mean
        rows.append(row)
        if k == 2:
            notes.append(
                "k=2: both exact routes give 6; a published table of these "
                "expectations prints 2 for this row, which contradicts the "
                "closed form 2*(2^k - 1) it accompanies; 6 is correct."
            )
    _emit(
        "expect",
        {
            "k_min": args.k_min,
            "k_max": args.k_max,
            "n_max": args.n_max,
            "simulate": args.simulate,
            "trials": args.trials if args.simulate else None,
            "seed": args.seed if args.simulate else None,
            "format": args.format,
        },
        rows,
        args.format,
        notes=notes,
    )
    return EXIT_OK if all_agree else EXIT_VERIFY_FAILED


def _cmd_simulate(args) -> int:
    config = oracle.SimConfig(
        k=args.k,
        success_prob=args.p,
        trials=args.trials,
        seed=args.seed,
        max_steps_per_trial=args.max_steps,
    )
    # The report's fields, in order, are the row's columns.
    rows = [vars(oracle.simulate(config))]
    _emit(
        "simulate",
        {
            "k": args.k,
            "p": _exact(config.success_prob),
            "trials": args.trials,
            "seed": args.seed,
            "max_steps_per_trial": config.max_steps_per_trial,
            "format": args.format,
        },
        rows,
        args.format,
    )
    return EXIT_OK


def _verify_checks(k_max: int):
    half = Fraction(1, 2)
    for k in range(1, k_max + 1):
        spec = RunSpec(k)

        # A length-m sequence whose first run ends at m has 2^(n0 - m)
        # extensions, so one histogram at n0 holds every count up to n0.
        n0 = min(2 * k + 8, 18)
        ends, no_run = oracle.enumerate_first_run_histogram(k, n0)

        mismatches = []
        for m in range(1, n0 + 1):
            got = counts_mod.count_at(spec, m)
            if got << (n0 - m) != ends[m]:
                want = Fraction(ends[m], 1 << (n0 - m))
                mismatches.append(f"n={m}: recurrence {got} != enumeration {want}")
        # Each far route at a small horizon, against values checked here
        # or by the identity at 64k; from 4k + 4 on, a residue of half the
        # horizon folds and then squares a folded residue.  The series
        # shares that squaring: from 3k + 3 on its order-(k + 1) residue
        # folds, which checks its seeds and characteristic polynomial.
        m, s = 4 * k + 4, 3 * k + 3
        c = list(counts_mod._stream(k, m))
        for what, n, got, want in (
            ("partial sum", n0, counts_mod._jump_partial_sum(k, n0),
             sum(i * e for i, e in enumerate(ends))),
            ("count", m, counts_mod._jump_count(k, m), c[m]),
            ("series sum", s, counts_mod._series_sum(k, 1, 2, s),
             sum(x << (s - i) for i, x in enumerate(c[:s + 1]))),
        ):
            if got != want:
                mismatches.append(f"jumped {what} at n={n}: {got} != {want}")
        yield f"recurrence-vs-enumeration[k={k}]", mismatches

        problems = []
        if sum(ends) + no_run != 1 << n0:
            problems.append(
                f"partition broken: {sum(ends)} + {no_run} != 2^{n0}"
            )
        cdf_enum = Fraction(sum(ends), 1 << n0)
        cdf_exact = 1 - distribution.tail_mass(spec, n0)
        if cdf_enum != cdf_exact:
            problems.append(f"cdf mismatch: {cdf_enum} != {cdf_exact}")
        yield f"pmf-partition-vs-enumeration[k={k}]", problems

        y_half = genfunc.eval_y(spec, half)
        yield (
            f"y(1/2)=1[k={k}]",
            [] if y_half == 1 else [f"y(1/2) = {y_half}"],
        )

        problems = []
        derived = genfunc.expectation(spec)
        closed = genfunc.expectation_closed_form(spec)
        if derived != closed:
            problems.append(f"derivative route {derived} != closed form {closed}")
        n = distribution.DEFAULT_HORIZON_FACTOR * k
        shortfall = closed - distribution.truncated_expectation(spec, n)
        # With P(X > i) = c(i + k + 1) / 2^i, the shortfall is exactly
        # ((n + 1) c(n + k + 1) + c(n + 2k + 2)) / 2^n: from one n to the next,
        # both sides move alike only where c(m + 1) = 2 c(m) - c(m - k) holds.
        near, far = islice(counts_mod._stream(k, n + 2 * k + 2), n + k + 1, None, k + 1)
        tail = Fraction((n + 1) * near + far, 1 << n)
        if shortfall != tail:
            problems.append(f"shortfall {shortfall} != tail {tail}")
        yield f"expectation-agreement[k={k}]", problems


def _cmd_verify(args) -> int:
    _integer(args.k_max, "--k-max", 1)
    RunSpec(args.k_max)  # refuses k_max > K_MAX before any check runs
    rows = []
    any_failed = False
    for name, problems in _verify_checks(args.k_max):
        ok = not problems
        any_failed = any_failed or not ok
        rows.append(
            {
                "check": name,
                "result": "PASS" if ok else "FAIL",
                "discrepancy": "0" if ok else "; ".join(problems),
            }
        )
    _emit(
        "verify",
        {"k_max": args.k_max, "format": args.format},
        rows,
        args.format,
    )
    return EXIT_OK if not any_failed else EXIT_VERIFY_FAILED


_DISPATCH = {
    "counts": _cmd_counts,
    "expect": _cmd_expect,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except CapacityError as exc:
        print(f"streakcalc: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"streakcalc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # raised by _emit alone
        print(f"streakcalc: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
