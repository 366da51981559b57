"""Run ``streakcalc.cli.main`` with the benchmark's spans installed.

Usage: python perfbench/traced_cli.py SPANS_JSON CLI_ARG...

The traced counterpart of ``python -m streakcalc.cli CLI_ARG...``: the
same exit code, stdout and stderr (a traceback included), plus the
spans written to SPANS_JSON when main returns or raises.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import streakcalc.cli as cli

    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
