"""Benchmark of streakcalc, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported, and its CLI
run, from ``src/`` of the same checkout.  NAME is one of cli-session,
exact-deep, table-dump or oracles, or ``all`` to run the four one after
another.  Every run does a whole number of rounds of one fixed list of
operations, after an untimed warm-up; S sets the number of rounds (see
``Workload.rounds``).  Every output is checked.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The same object, with per-operation detail, goes to
``perfbench/results/``; a traced run also writes its spans to
``perfbench/traces/``.  See perfbench/README.md for what each metric
means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work" / str(os.getpid())  # this run's child outputs
RESULTS = HERE / "results"
TRACES = HERE / "traces"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OpFailed, ProcResult, WrongOutput  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# A CLI operation still running after this long is killed and counted failed.
OP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "out_mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.serialize_ms": "ms",
    "cli.serialize_mb_per_s": "MB/s",
    "cli.bytes_out": "bytes",
    "counts.build_ms": "ms",
    "counts.builds": "count",
    "counts.entries": "count",
    "counts.table_mib": "MiB",
    "distribution.self_ms": "ms",
    "distribution.pmf_table_ms": "ms",
    "distribution.rows": "count",
    "genfunc.self_ms": "ms",
    "genfunc.series_ms": "ms",
    "genfunc.series_terms": "count",
    "oracle.sim_ms": "ms",
    "oracle.sim_coins": "count",
    "oracle.sim_ns_per_coin": "ns",
    "oracle.enum_ms": "ms",
    "oracle.enum_sequences": "count",
    "oracle.enum_ns_per_seq": "ns",
    "traced.ops_per_s": "ops/s",
    "traced.latency_p50_ms": "ms",
}


@dataclass
class Record:
    """What one operation did: its time, outcome and output size."""

    label: str
    round: int
    measured: bool
    seconds: float = 0.0
    status: str = "ok"  # ok, failed or wrong
    detail: str = ""
    out_bytes: int = 0
    rss_kib: int = 0
    spans: list = field(default_factory=list)


def child_env() -> dict:
    """The environment of every child: the checkout's src first, and the
    program's own defaults for its table cap and digit limit."""
    env = dict(os.environ)
    env.pop("STREAKCALC_TABLE_CAP", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, int, int]:
    """Run one process to its end through launch.py, stdout and stderr
    into WORK.

    Returns (wall seconds, exit code, peak resident set in KiB).
    """
    report = WORK / "launch.json"
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", "-I", str(HERE / "launch.py"), str(report)]
    with open(WORK / "stdout", "wb") as out, open(WORK / "stderr", "wb") as err:
        proc = subprocess.Popen(
            launcher + argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        try:
            proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return OP_TIMEOUT_S, -signal.SIGKILL, 0
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited {proc.returncode}: {_read('stderr')[-500:]}")
    elapsed, code, rss_kib = json.loads(report.read_text())
    return elapsed, code, rss_kib


def _read(name: str) -> str:
    with open(WORK / name, encoding="utf-8", errors="replace", newline="") as f:
        return f.read()  # newline="" keeps the CSV's CRLF


def median_wall(argv: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        elapsed, code, _ = run_child(argv, env)
        if code != 0:
            raise RuntimeError(f"{argv[1:]} exited {code}: {_read('stderr')[-500:]}")
        times.append(elapsed)
    return statistics.median(times)


def numpy_import_ms(env: dict) -> float:
    """numpy's cumulative import time under ``python -X importtime``."""
    samples = []
    for _ in range(3):
        run_child([sys.executable, "-X", "importtime", "-c", "import streakcalc.cli"], env)
        for line in _read("stderr").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                samples.append(int(parts[1]) / 1e3)
    return statistics.median(samples) if samples else 0.0


def own_peak_rss_kib() -> int:
    """This process's peak resident set.  VmHWM counts only this
    program's memory; ru_maxrss would also hold the high-water mark of
    the process that started this one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_program():
    sys.path.insert(0, str(SRC))
    import streakcalc.cli  # noqa: F401  (loads every module)

    program = sys.modules["streakcalc"]
    if not Path(program.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"streakcalc imported from {program.__file__}, not from {SRC}")
    return program


class Runner:
    """Runs operations one at a time and checks each output."""

    def __init__(self, tracer: spans.Tracer | None, env: dict):
        self.tracer = tracer
        self.env = env
        # Library calls run in this one process.  Left alone it stays on
        # one CPU for a whole run, and on a shared machine each CPU's speed
        # wanders by itself; moving to the next CPU for each call makes
        # every run sample all of them, as the CLI processes do anyway.
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.calls = 0

    def run(self, op: workloads.Op, round_index: int) -> Record:
        rec = Record(op.label, round_index, op.measured)
        try:
            result = self._call(op, rec)
            op.check(result)
        except OpFailed as exc:
            rec.status, rec.detail = "failed", str(exc)
        except WrongOutput as exc:
            rec.status, rec.detail = "wrong", str(exc)
        except Exception as exc:  # a malformed output breaks the check itself
            rec.status, rec.detail = "wrong", f"{type(exc).__name__}: {exc}"
        return rec

    def _call(self, op: workloads.Op, rec: Record):
        if op.argv is None:
            return self._call_library(op, rec)
        spans_path = WORK / "spans.json"
        if self.tracer:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "streakcalc.cli", *op.argv]
        rec.seconds, code, rec.rss_kib = run_child(argv, self.env)
        rec.out_bytes = (WORK / "stdout").stat().st_size
        if self.tracer and spans_path.exists():
            rec.spans = json.loads(spans_path.read_text())
        return ProcResult(code, _read("stdout"), _read("stderr"))

    def _call_library(self, op: workloads.Op, rec: Record):
        first = len(self.tracer.spans) if self.tracer else 0
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.calls % len(self.cpus)]})
            self.calls += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            raise OpFailed(f"{type(exc).__name__}: {exc}") from None
        finally:
            rec.seconds = time.perf_counter() - start
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
            if self.tracer:
                rec.spans = [
                    dict(s, parent=None if s["parent"] is None else s["parent"] - first)
                    for s in self.tracer.spans[first:]
                ]
                del self.tracer.spans[first:]
        rec.out_bytes = workloads.payload_bytes(result)
        return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def by_round(records: list[Record]) -> list[list[Record]]:
    rounds: dict[int, list[Record]] = {}
    for rec in records:
        rounds.setdefault(rec.round, []).append(rec)
    return list(rounds.values())


def rate_metrics(records: list[Record]) -> dict[str, float]:
    """Rates from per-round medians; latencies over every operation.

    The bytes an operation writes differ from round to round (verify's
    rows grow with --k-max), so the output rate is the run's mean bytes
    per operation at the median round's operation rate.
    """
    ops_per_s = statistics.median(
        len(rs) / sum(r.seconds for r in rs) for rs in by_round(records)
    )
    latencies = [rec.seconds for rec in records]
    return {
        "ops_per_s": ops_per_s,
        "out_mb_per_s": statistics.mean(r.out_bytes for r in records) / 1e6 * ops_per_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
    }


def layer_metrics(records: list[Record]) -> dict[str, float]:
    """Per-layer metrics: each is the median over rounds of its round total."""
    per_round = []
    for rs in by_round(records):
        totals = {}
        for rec in rs:
            for key, value in spans.layer_totals(rec.spans).items():
                totals[key] = totals.get(key, 0.0) + value
        per_round.append(spans.layer_metrics(totals))
    return {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    metrics: dict[str, float] = {}
    if not trace:
        setup = [sys.executable, "-c", workloads.SETUP_CODE[name]]
        metrics["setup_s"] = median_wall(setup, env, SETUP_REPEATS)
    program = import_program()
    workload = workloads.build(name, seed, program)
    tracer = spans.Tracer() if trace else None
    if tracer and workload.kind == "inproc":
        tracer.install()  # process workloads trace inside traced_cli.py
    runner = Runner(tracer, env)

    wrong = []
    for op in workload.warmup():
        rec = runner.run(op, -1)
        if rec.status == "wrong":
            wrong.append(rec)
    records = []
    for r in range(workload.rounds(seconds)):
        for op in workload.make_round(r):
            rec = runner.run(op, r)
            records.append(rec)
            if rec.status == "wrong":
                wrong.append(rec)
    failed = [rec for rec in records if rec.status == "failed"]
    for rec in wrong + failed:
        print(f"{name}: {rec.status}: round {rec.round}, {rec.label}: {rec.detail}", file=sys.stderr)

    measured = [rec for rec in records if rec.measured]
    if trace:
        traced = rate_metrics(measured)
        metrics.update(layer_metrics(measured))
        metrics["traced.ops_per_s"] = traced["ops_per_s"]
        metrics["traced.latency_p50_ms"] = traced["latency_p50_ms"]
        pass_s = median_wall([sys.executable, "-c", "pass"], env, IMPORT_REPEATS)
        import_s = median_wall([sys.executable, "-c", "import streakcalc.cli"], env, IMPORT_REPEATS)
        metrics["cli.import_ms"] = (import_s - pass_s) * 1e3
        metrics["cli.import_numpy_ms"] = numpy_import_ms(env)
        units = PER_LAYER_UNITS
    else:
        metrics.update(rate_metrics(measured))
        if workload.kind == "process":
            peak_kib = max(rec.rss_kib for rec in measured)
        else:
            peak_kib = own_peak_rss_kib()
        metrics["peak_rss_mib"] = peak_kib / 1024
        units = END_TO_END_UNITS

    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    _write_outputs(name, seed, trace, result, records)
    return result


def _write_outputs(name, seed, trace, result, records) -> None:
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "result": result,
        "operations": [
            {"label": r.label, "round": r.round, "measured": r.measured, "seconds": r.seconds,
             "status": r.status, "out_bytes": r.out_bytes, "rss_kib": r.rss_kib}
            for r in records
        ],
    }
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        TRACES.mkdir(exist_ok=True)
        spans_out = [{"label": r.label, "round": r.round, "spans": r.spans} for r in records]
        (TRACES / f"{name}-seed{seed}.json").write_text(json.dumps(spans_out) + "\n")
    for leftover in ("stdout", "stderr", "spans.json", "launch.json"):
        (WORK / leftover).unlink(missing_ok=True)
    WORK.rmdir()


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<28} {metric['value']:>14.4f} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streakcalc" / "__init__.py").is_file():
        print(f"perfbench: no streakcalc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STREAKCALC_TABLE_CAP", None)  # in-process calls read it too
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
