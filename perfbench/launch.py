"""Run one command; write its wall time, exit code and peak RSS as JSON.

Usage: python -S -I perfbench/launch.py REPORT_JSON COMMAND...

The benchmark starts every program process through this small
interpreter.  On Linux a process reports, as its peak resident set, at
least the high-water mark of the process it was spawned from, so a
program started straight from the benchmark would carry the
benchmark's own peak (tens of MB of parsed tables).  Started from here
it carries at most this interpreter's few MB.
"""

import json
import os
import sys
import time


def main() -> None:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    with open(report, "w") as f:
        json.dump([elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss], f)


if __name__ == "__main__":
    main()
