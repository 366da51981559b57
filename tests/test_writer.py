"""The envelope writer against the standard library's json and csv.

``OutputEnvelope.to_json`` and ``to_csv`` are written by hand for speed;
their contract is the bytes that ``json.dumps(payload, indent=2)`` and
``csv.DictWriter(..., lineterminator="\\r\\n")`` produce for the same
envelope, which these tests check on generated envelopes.
"""

import csv
import dataclasses
import io
import json
from decimal import Decimal

from hypothesis import example, given
from hypothesis import strategies as st

from streakcalc.cli import FORMAT_VERSION, OutputEnvelope

TEXT = st.text(st.sampled_from('ab ,"\r\n\t\\é\x00 '), max_size=6) | st.text(max_size=6)
CELLS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT


@st.composite
def envelopes(draw):
    """Rows share one set of field names, each row in its own key order."""
    fields = draw(st.lists(TEXT, unique=True, max_size=4))
    rows = [
        {field: draw(CELLS) for field in draw(st.permutations(fields))}
        for _ in range(draw(st.integers(0, 4)))
    ]
    return OutputEnvelope(
        command=draw(TEXT),
        parameters=draw(st.dictionaries(TEXT, CELLS, max_size=4)),
        rows=rows,
        notes=draw(st.lists(TEXT, max_size=3)),
    )


def reference_json(env: OutputEnvelope) -> str:
    payload = {
        "command": env.command,
        "format_version": FORMAT_VERSION,
        "parameters": env.parameters,
        "rows": env.rows,
    }
    if env.notes:
        payload["notes"] = env.notes
    return json.dumps(payload, indent=2) + "\n"


def reference_csv(env: OutputEnvelope) -> str:
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    buf = io.StringIO()
    if env.rows:
        writer = csv.DictWriter(buf, fieldnames=list(env.rows[0]), lineterminator="\r\n")
        writer.writeheader()
        for row in env.rows:
            writer.writerow({key: cell(value) for key, value in row.items()})
    return buf.getvalue()


def with_decimal_cells(env: OutputEnvelope) -> OutputEnvelope:
    rows = [
        {key: Decimal(value) if type(value) is int else value for key, value in row.items()}
        for row in env.rows
    ]
    return dataclasses.replace(env, rows=rows)


# csv quotes a record made of one empty field, so that it is not a blank line
LONE_EMPTY = OutputEnvelope("c", {}, [{"": None}, {"": ""}, {"": "x"}])
# DictWriter orders each row's cells by the header, not by the row's keys
REORDERED = OutputEnvelope("c", {}, [{"a": 1, "b": "x,y"}, {"b": 2, "a": None}])


@given(envelopes())
@example(LONE_EMPTY)
@example(REORDERED)
@example(OutputEnvelope("c", {}, [{}, {}]))
def test_writer_matches_json_and_csv_modules(env):
    assert env.to_json() == reference_json(env)
    assert env.to_csv() == reference_csv(env)
    # Decimal cells are written as the bare digits of the same int
    assert with_decimal_cells(env).to_json() == env.to_json()
    assert with_decimal_cells(env).to_csv() == env.to_csv()
    # rows that arrive from an iterator are written the same
    assert dataclasses.replace(env, rows=iter(env.rows)).to_json() == env.to_json()
    assert dataclasses.replace(env, rows=iter(env.rows)).to_csv() == env.to_csv()


def test_csv_edge_cases_spelled_out():
    assert LONE_EMPTY.to_csv() == '""\r\n""\r\n""\r\nx\r\n'
    assert REORDERED.to_csv() == 'a,b\r\n1,"x,y"\r\n,2\r\n'
