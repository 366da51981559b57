"""Golden outputs of the command line and of the demos.

Each deterministic command's stdout is pinned by its sha256, with its
exit code and stderr, as the command wrote them before the table writer
and the count tables were reimplemented; any refactor must keep these
bytes.  Usage messages depend on the terminal width, which is fixed at
80 columns here.

The demos that print only exact values (and demo 05's seeded Monte Carlo
means) are pinned the same way, from before the point queries were
reimplemented.  The seeded simulation outputs, here and in demo 05, are
pinned from the ``mt19937-occupancy-planes`` stream: one
``random.Random(seed)``, whose bits decide at each step how many live
trials of each current run length flip heads.

This module needs only the standard library, so any interpreter can
check the tables: ``python tests/golden.py`` runs every argv in-process
and every demo in a child process, from the ``src`` beside it, prints
each mismatch, and exits 1 if there is one.  ``tests/test_golden.py``
checks the same tables under pytest.
"""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv, sha256 of stdout; exit code 0 and an empty stderr.
GOLDEN_OUTPUT = [
    ("counts --k 3 --n-max 12",
     "154fefe6e58c6a0ca46bac95b45d3be30ddb728ce08a9d9c1743cd0828f87a8c"),
    ("counts --k 3 --n-max 12 --format csv",
     "66c39241773df3c120c85dc0a48de5cdec4e1a5217d6e24687b8ad555a310db3"),
    ("counts --k 1 --n-max 0",
     "78ee43210a0b9d477a3a27a9c199a9178ca7b86678a655d173c819d12efa4314"),
    ("counts --k 1 --n-max 0 --format csv",
     "b2c37b04e0690f8b9f1064801e7a12d758866dde173259b48ea61bdb3dfebcc3"),
    ("counts --k 64 --n-max 300 --format csv",
     "58f039713eb84f31b5f6826276b70e2a1fd3bef26973ab642bf5f4e32a247b59"),
    ("expect --k-min 1 --k-max 5",
     "616b9c712cabe73d955405eb8a0a80f70a11270076066367048409235dbab022"),
    ("expect --k-min 1 --k-max 5 --format csv",
     "83d5b88149fabaa7883fffc57e7c5e397af83ad79ff5eaa0edf31bfa30d609cc"),
    ("expect --k-min 3 --k-max 4 --n-max 300",
     "3c5411ecb3c1f808345c292635c71f62ca94c953418ff6fbb4f5a7b3c1680dec"),
    ("expect --k-min 1 --k-max 3 --simulate --trials 2000 --seed 7",
     "4ea2cbd6a501f332002d5692cf49a71a4f6e6c6d0744e08e56005e2f23e33605"),
    ("expect --k-min 1 --k-max 3 --simulate --trials 2000 --seed 7 --format csv",
     "535b6c3eafbd5c36a5b1864d713db4b450b59801633be652d073d1289b5774f7"),
    ("simulate --k 3 --trials 5000 --seed 11",
     "4b8d8531266c1d6db946f493d922925a52852a62debddf10fc313fbf426e2d3c"),
    ("simulate --k 3 --trials 5000 --seed 11 --format csv",
     "32c0b80ae3915606361ea3b4f1c9dbae8a83b20cf11980754a0486978fa11619"),
    # the default step cap follows p: max_steps_per_trial 1000 * 3^2
    ("simulate --k 2 --p 1/3 --trials 3000 --seed 5",
     "b72d2121f12f8de5fb0284a8581ed8605bd601896307c2ae0345dc94aca4037c"),
    ("simulate --k 3 --p 0.25 --trials 500 --seed 2 --max-steps 4 --format csv",
     "93a59556e3cb9574f3aa8af35ca346dfb19e88fe680a2a4f29e025101df3952f"),
    # over 2^16 trials, a long tail; p = 1/3 in chunked draws of many
    # planes; truncation mid-run (204 of 3000 trials truncated)
    ("simulate --k 6 --trials 70000 --seed 3",
     "5807df3c9c77bb837a6a1b2636ef2c5d7fb07dfa1a57b6a192b702fb58641309"),
    ("simulate --k 3 --p 1/3 --trials 70000 --seed 4",
     "907be7c913751b864da8f9a95c36298632dada862ebe544a9f0648aa7fb9e736"),
    ("simulate --k 5 --p 7/10 --trials 3000 --seed 9 --max-steps 40 --format csv",
     "6d78c86408a89daaf0b83998dc65340e81f007027dd9e54b582f249ad8559153"),
    ("verify --k-max 4",
     "b7fbb7c42861f83b0e92731ac247182d299952f600c704f5b31a6ef14198246e"),
    ("verify --k-max 4 --format csv",
     "210676af994cc412d8c6397af292665ffcaf2fa9c12f23fd933b560877d81011"),
    # enumeration horizon min(2k + 8, 18): capped from k = 5 on
    ("verify --k-max 9",
     "d9f19a3cf2cb85488c73db60dc0978bdcec405467cdcf7ea8a441fac8a4e649a"),
    ("verify --k-max 13 --format csv",
     "5402bfbb6e572b2a03f92abfa7fa9c0ee5a7e78135d70a56af6196d9ae9cdf1e"),
    # "_" joins digits on every interpreter, as in CPython 3.11's Fraction
    ("simulate --k 2 --p 1_0/30 --trials 4 --seed 1",
     "97502e4b04ef1afd6dd64d200dfa9a2ff84271336ab32a1144ef7416fd0edb64"),
    # table-sized dumps: 21 MB of JSON and 22 MB of CSV
    ("counts --k 2 --n-max 14000",
     "a7ff740ce32d6dc80e88809d04d66b67478ca4d13b9356d286348525487b4c46"),
    ("counts --k 3 --n-max 13000 --format csv",
     "e87bcdf7f450eadd2d4f441cb1042459d0909c8254b0091353854e8eb70fcf90"),
]

# argv, exit code, stderr; stdout is empty.
GOLDEN_ERRORS = [
    ("counts --k 0 --n-max 3", 2, "streakcalc: run length must be >= 1, got 0\n"),
    ("counts --k 2 --n-max -1", 2, "streakcalc: --n-max must be >= 0, got -1\n"),
    ("counts --n-max 3", 2,
     "usage: streakcalc counts [-h] --k K --n-max N_MAX [--format {json,csv}]\n"
     "streakcalc counts: error: the following arguments are required: --k\n"),
    ("counts --k 2 --n-max 3 --format xml", 2,
     "usage: streakcalc counts [-h] --k K --n-max N_MAX [--format {json,csv}]\n"
     "streakcalc counts: error: argument --format: invalid choice: 'xml' "
     "(choose from 'json', 'csv')\n"),
    ("frobnicate", 2,
     "usage: streakcalc [-h] {counts,expect,simulate,verify} ...\n"
     "streakcalc: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'counts', 'expect', 'simulate', 'verify')\n"),
    ("expect --k-min 2 --k-max 1", 2,
     "streakcalc: empty range: --k-min 2 exceeds --k-max 1\n"),
    ("expect --k-min 1 --k-max 2 --n-max 0", 2,
     "streakcalc: --n-max must be >= 1, got 0\n"),
    ("expect --k-min 1 --k-max 2 --simulate --trials 0", 2,
     "streakcalc: trials must be >= 1, got 0\n"),
    ("simulate --k 1 --p 1.5 --trials 10", 2,
     "streakcalc: success probability must lie in (0, 1), got 3/2\n"),
    ("simulate --k 1 --p zebra --trials 10", 2,
     "usage: streakcalc simulate [-h] --k K [--p P] [--trials TRIALS] [--seed SEED]\n"
     "                           [--max-steps MAX_STEPS] [--format {json,csv}]\n"
     "streakcalc simulate: error: argument --p: not a rational number: 'zebra'\n"),
    # no space may touch "/" on any interpreter, as in CPython 3.11's Fraction
    *((f"simulate --k 2 --p '{p}' --trials 4 --seed 1", 2,
       "usage: streakcalc simulate [-h] --k K [--p P] [--trials TRIALS] [--seed SEED]\n"
       "                           [--max-steps MAX_STEPS] [--format {json,csv}]\n"
       f"streakcalc simulate: error: argument --p: not a rational number: '{p}'\n")
      for p in ("1/ 2", "1 /2", "1 / 2")),
    ("simulate --k 3 --trials 10 --max-steps 2", 2,
     "streakcalc: max_steps_per_trial must be >= k, got 2\n"),
    ("verify --k-max 0", 2, "streakcalc: --k-max must be >= 1, got 0\n"),
    ("counts --k 2 --n-max 200000", 3,
     "streakcalc: capacity error: table of 200001 entries exceeds cap of 100000 "
     "(override with STREAKCALC_TABLE_CAP)\n"),
]

# demo file, sha256 of stdout; exit code 0 and an empty stderr.
GOLDEN_DEMOS = [
    ("01_count_tables.py",
     "2946019ae0deb925fbd73aa7e9ac5f61485182a35822a92c5c9a2ca5725f1490"),
    ("02_exact_distribution.py",
     "4d3bd99907191a454bc18461bac3f88e250d05ba682903d326f4b6f5ba794fb6"),
    ("03_generating_function.py",
     "789f17b698cb8a63eb6d5685fdeb494bab546b52b533051956461193336bd1d8"),
    ("05_expectation_table.py",
     "22495597a8810bfdabf765f57a6768f1a455a0826248dab0caf76d4ce6103f51"),
]


def run_cli(argv: str):
    """Exit code, stdout and stderr of ``streakcalc argv``, in-process,
    with ``argv`` split as a POSIX shell splits it; the caller sets
    ``COLUMNS`` to 80 and clears the table cap."""
    from streakcalc.cli import main  # run as a script, src is on the path by now

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(argv))
    return code, out.getvalue(), err.getvalue()


def run_demo(demo: str) -> subprocess.CompletedProcess:
    """The demo run as a script, on the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("STREAKCALC_TABLE_CAP", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=env, timeout=60,
    )


def check() -> list[str]:
    """The argv and demos whose output differs from its golden record."""
    failed = []
    for argv, sha256 in GOLDEN_OUTPUT:
        code, out, err = run_cli(argv)
        if (code, err, hashlib.sha256(out.encode()).hexdigest()) != (0, "", sha256):
            failed.append(argv)
    failed += [argv for argv, code, stderr in GOLDEN_ERRORS
               if run_cli(argv) != (code, "", stderr)]
    for demo, sha256 in GOLDEN_DEMOS:
        result = run_demo(demo)
        got = (result.returncode, result.stderr, hashlib.sha256(result.stdout).hexdigest())
        if got != (0, b"", sha256):
            failed.append(demo)
    return failed


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["COLUMNS"] = "80"
    os.environ.pop("STREAKCALC_TABLE_CAP", None)
    failed = check()
    for what in failed:
        print(f"FAIL {what}")
    total = len(GOLDEN_OUTPUT) + len(GOLDEN_ERRORS) + len(GOLDEN_DEMOS)
    print(f"{total - len(failed)} of {total} golden records match "
          f"on Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
