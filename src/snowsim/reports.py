"""Report records and their serialized forms.

One experiment run (a single trial or one aggregated Monte Carlo cell)
becomes one :class:`RunRecord`. Records travel in two formats:

* JSON lines, the lossless form: one strict JSON object per line (no
  ``NaN`` or ``Infinity``), every field present with its native type.
* CSV, the tabular convenience: a versioned comment line, a header row,
  then one row per record. Floats are written with ``repr`` so parsing
  returns the identical value; ``None`` is an empty cell.

``parse_csv`` and ``parse_jsonl`` invert the writers exactly; tests hold
the round-trip property for arbitrary records.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence, get_type_hints

SCHEMA_VERSION = 2

_COMMENT = f"# snowsim report schema v{SCHEMA_VERSION}"

class ReportError(ValueError):
    """Raised when serialized report data does not match the schema."""


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One row of experiment output.

    ``per_node_iters`` is ``rounds / c`` in every row. ``rounds`` and
    ``per_node_iters`` are means when the record aggregates several trials;
    ``violations`` counts trials in which two correct nodes decided
    differently; ``messages`` sums protocol messages. ``accepted`` counts
    the workload vertices that every correct node accepted (DAG runs only,
    else ``None``), summed in an aggregate row.
    """

    config_hash: str
    n: int
    c: int
    b: int
    k: int
    a: int
    beta: int
    adversary: str
    rounds: float
    per_node_iters: float
    violations: int
    messages: int
    accepted: int | None = None

    def __post_init__(self) -> None:
        if self.c + self.b != self.n:
            raise ReportError(f"c + b must equal n, got {self.c}+{self.b} != {self.n}")
        if min(self.violations, self.messages, self.accepted or 0) < 0:
            raise ReportError("counts must be nonnegative")


def _finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


# CSV columns in field order, each parsed back with its field's type; a float
# cell must be finite and an empty ``accepted`` cell is None.
_COLUMNS = tuple(field.name for field in fields(RunRecord))
_HINTS = get_type_hints(RunRecord)
_CONVERT: dict[str, Callable[[str], object]] = {
    **{name: _finite_float if hint is float else hint for name, hint in _HINTS.items()},
    "accepted": lambda cell: int(cell) if cell else None,
}
# The JSON types of each column: a float column also takes an int; none takes a bool.
_JSON_TYPES = {name: (int, float) if hint is float else hint for name, hint in _HINTS.items()}


def config_digest(values: Mapping[str, object]) -> str:
    """Short stable hash of a configuration mapping.

    Keys are sorted and the mapping is rendered as canonical JSON before
    hashing, so insertion order never changes the digest.
    """
    blob = json.dumps(
        {k: values[k] for k in sorted(values)}, separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# CSV


def format_csv(records: Sequence[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for rec in records:
        row = []
        for name in _COLUMNS:
            value = getattr(rec, name)
            row.append(repr(value) if isinstance(value, float) else value)
        writer.writerow(row)
    return buf.getvalue()


def parse_csv(text: str) -> list[RunRecord]:
    """Parse report CSV back into records.

    Comment lines (leading ``#``) may appear anywhere before the header;
    the first of them must carry a schema version we understand.
    """
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    if not comments or comments[0] != _COMMENT:
        raise ReportError(
            f"missing or unsupported schema comment, expected {_COMMENT!r}"
        )
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = list(csv.reader(body))
    if not rows or tuple(rows[0]) != _COLUMNS:
        raise ReportError(f"bad header row, expected {','.join(_COLUMNS)}")
    out = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(_COLUMNS):
            raise ReportError(f"row {idx}: expected {len(_COLUMNS)} fields, got {len(row)}")
        values: dict[str, object] = {}
        for name, cell in zip(_COLUMNS, row):
            try:
                values[name] = _CONVERT[name](cell)
            except ValueError as exc:
                raise ReportError(f"row {idx}, column {name}: {exc}") from exc
        out.append(RunRecord(**values))  # type: ignore[arg-type]
    return out


# ---------------------------------------------------------------------------
# JSON lines


def format_jsonl(records: Iterable[RunRecord]) -> str:
    return "".join(
        json.dumps({name: getattr(rec, name) for name in _COLUMNS}, separators=(",", ":"),
                   sort_keys=True, allow_nan=False) + "\n"
        for rec in records
    )


def parse_jsonl(text: str) -> list[RunRecord]:
    out = []
    for idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"line {idx}: {exc}") from exc
        unknown = set(obj) - set(_COLUMNS)
        if unknown:
            raise ReportError(f"line {idx}: unknown fields {sorted(unknown)}")
        missing = set(_COLUMNS) - set(obj)
        if missing:
            raise ReportError(f"line {idx}: missing fields {sorted(missing)}")
        for name in _COLUMNS:
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[name]):
                raise ReportError(f"line {idx}, column {name}: wrong type {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ReportError(f"line {idx}, column {name}: non-finite value {value!r}")
        try:
            out.append(RunRecord(**obj))
        except TypeError as exc:
            raise ReportError(f"line {idx}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Summaries


def summarize(records: Sequence[RunRecord]) -> dict[str, float]:
    """Aggregate statistics recomputable from the per-trial records (totals as exact ints)."""
    if not records:
        raise ReportError("no records to summarize")
    iters = [rec.per_node_iters for rec in records]
    mean = sum(iters) / len(iters)
    if len(iters) > 1:
        var = sum((x - mean) ** 2 for x in iters) / (len(iters) - 1)
        stddev = math.sqrt(var)
    else:
        stddev = 0.0
    return {
        "records": float(len(records)),
        "mean_rounds": sum(rec.rounds for rec in records) / len(records),
        "mean_per_node_iters": mean,
        "stddev_per_node_iters": stddev,
        "violations": sum(rec.violations for rec in records),
        "messages": sum(rec.messages for rec in records),
    }
