"""Spans around the calls into each streakcalc module, and the per-layer
metrics made from them.

The tracer wraps every public function of the program's modules from
outside: each wrapper is bound in place of the function in every
streakcalc module that holds it by name (``distribution`` and
``genfunc`` each import ``build_count_table``), so calls between
modules are traced too.  A span records its name, start, end, parent
and a few work counters; spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("counts", "distribution", "genfunc", "oracle", "cli")

SERIALIZE = ("cli.to_json", "cli.to_csv")
ENUMERATE = (
    "oracle.enumerate_counts",
    "oracle.enumerate_first_run_histogram",
    "oracle.enumerate_truncated_expectation",
)


def _table_counters(args, result):
    return {
        "entries": len(result.values),
        "bits": sum(v.bit_length() for v in result.values),
    }


def _sim_counters(args, result):
    config = args["config"]
    coins = round(result.sample_mean * result.completed_trials)
    coins += result.truncated_trials * config.max_steps_per_trial
    return {"coins": coins}


def _enum_counters(args, result):
    k, n = args["k"], args["n"]
    return {"sequences": 1 << n if n >= k else 0}


# Work counters taken at the span boundary: (bound arguments, result) -> dict.
COUNTERS = {
    "counts.build_count_table": _table_counters,
    "distribution.pmf_table": lambda args, result: {"rows": len(result)},
    "genfunc.series_matches_closed_form": lambda args, result: {
        "terms": args["n_max"] - args["spec"].k + 1
    },
    "oracle.simulate": _sim_counters,
    "oracle.enumerate_counts": _enum_counters,
    "oracle.enumerate_first_run_histogram": _enum_counters,
    "cli.to_json": lambda args, result: {"bytes": len(result.encode())},
    "cli.to_csv": lambda args, result: {"bytes": len(result.encode())},
}


class Tracer:
    """Records spans of calls into the program; see :meth:`install`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "start_ns": time.perf_counter_ns(),
            }
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                span["counters"] = counter(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each public function of the streakcalc modules, and the
        serializers of ``cli.OutputEnvelope``."""
        import streakcalc.cli  # noqa: F401  (loads every layer)

        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "streakcalc" or key.startswith("streakcalc.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"streakcalc.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, held, wrapper)
        envelope = sys.modules["streakcalc.cli"].OutputEnvelope
        for method in ("to_json", "to_csv"):
            fn = getattr(envelope, method)
            self._rebind(envelope, method, self._wrap(f"cli.{method}", fn))

    def _rebind(self, holder, attr, wrapper) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Sum the per-layer quantities over one list of spans whose
    ``parent`` fields index into the same list."""
    duration = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans]
    child_ms = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_ms[s["parent"]] += duration[i]
    totals = dict.fromkeys(
        (
            "cli.main_self_ms", "cli.serialize_ms", "cli.bytes_out",
            "counts.build_ms", "counts.builds", "counts.entries", "counts.bits",
            "distribution.self_ms", "distribution.pmf_table_ms", "distribution.rows",
            "genfunc.self_ms", "genfunc.series_ms", "genfunc.series_terms",
            "oracle.sim_ms", "oracle.sim_coins", "oracle.enum_ms",
            "oracle.enum_sequences",
        ),
        0.0,
    )
    for i, s in enumerate(spans):
        name = s["name"]
        layer = name.split(".", 1)[0]
        counters = s.get("counters", {})
        self_ms = duration[i] - child_ms[i]
        if name in SERIALIZE:
            totals["cli.serialize_ms"] += duration[i]
            totals["cli.bytes_out"] += counters.get("bytes", 0)
        elif layer == "cli":
            totals["cli.main_self_ms"] += self_ms
        elif layer in ("distribution", "genfunc"):
            totals[f"{layer}.self_ms"] += self_ms
        if name == "counts.build_count_table":
            totals["counts.build_ms"] += duration[i]
            totals["counts.builds"] += 1
            totals["counts.entries"] += counters.get("entries", 0)
            totals["counts.bits"] += counters.get("bits", 0)
        elif name == "distribution.pmf_table":
            totals["distribution.pmf_table_ms"] += duration[i]
            totals["distribution.rows"] += counters.get("rows", 0)
        elif name == "genfunc.series_matches_closed_form":
            totals["genfunc.series_ms"] += duration[i]
            totals["genfunc.series_terms"] += counters.get("terms", 0)
        elif name == "oracle.simulate":
            totals["oracle.sim_ms"] += duration[i]
            totals["oracle.sim_coins"] += counters.get("coins", 0)
        elif name in ENUMERATE:
            parent = s["parent"]
            if parent is None or spans[parent]["name"] not in ENUMERATE:
                totals["oracle.enum_ms"] += duration[i]
            totals["oracle.enum_sequences"] += counters.get("sequences", 0)
    return totals


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one round from its summed totals."""
    out = {k: v for k, v in totals.items() if k != "counts.bits"}
    out["counts.table_mib"] = totals["counts.bits"] / 8 / 2**20
    serialize_s = totals["cli.serialize_ms"] / 1e3
    out["cli.serialize_mb_per_s"] = (
        totals["cli.bytes_out"] / 1e6 / serialize_s if serialize_s else 0.0
    )
    coins = totals["oracle.sim_coins"]
    out["oracle.sim_ns_per_coin"] = totals["oracle.sim_ms"] * 1e6 / coins if coins else 0.0
    seqs = totals["oracle.enum_sequences"]
    out["oracle.enum_ns_per_seq"] = totals["oracle.enum_ms"] * 1e6 / seqs if seqs else 0.0
    return out
