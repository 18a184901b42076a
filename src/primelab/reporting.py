"""Uniform report container and its JSON / CSV / table serializations.

Integers serialize exactly (lossless round-trip); floats are rendered
with 12 significant digits in every format so JSON and CSV carry
identical numeric values. JSON rows are encoded a chunk at a time:
with ``indent`` set, ``json.dumps`` bypasses the C encoder and holds every
fragment of the whole report in one list, many times the size of the text.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["Report", "format_report", "FORMATS"]

FORMATS = ("json", "csv", "table")
_JSON_CHUNK_ROWS = 4096


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    runtime_ms: int = 0

    def warn(self, message: str) -> None:
        self.warnings.append(message)


def _round_floats(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_round_floats(value), separators=(",", ":"))
    return "" if value is None else str(value)


def _to_json(report: Report) -> str:
    rows = report.rows
    head = json.dumps({"command": report.command, "params": _round_floats(report.params)}, indent=2)
    tail = json.dumps({"warnings": list(report.warnings), "runtime_ms": report.runtime_ms}, indent=2)
    parts = [head[:-2], ',\n  "rows": [']
    # json.dumps(chunk, indent=2) is "[\n" + ",\n".join(rows at depth 1) + "\n]": strip
    # the brackets and indent once more, and the chunks join to the whole report's "rows"
    for i in range(0, len(rows), _JSON_CHUNK_ROWS):
        chunk = json.dumps(_round_floats(rows[i:i + _JSON_CHUNK_ROWS]), indent=2)
        parts += ("," if i else "", chunk[1:-2].replace("\n", "\n  "))
    parts += ("\n  ]" if rows else "]", ",\n", tail[2:])
    return "".join(parts)


def _fieldnames(rows: list) -> list[str]:
    names: list[str] = []
    for row in rows:
        for key in row:
            if key not in names:
                names.append(key)
    return names


def _to_csv(report: Report) -> str:
    buffer = io.StringIO()
    names = _fieldnames(report.rows)
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in report.rows:
        writer.writerow([_cell(row.get(k)) for k in names])
    return buffer.getvalue().rstrip("\n")


def _to_table(report: Report) -> str:
    lines = [f"# {report.command}"]
    if report.params:
        lines.append("  " + "  ".join(f"{k}={_cell(v)}" for k, v in report.params.items()))
    names = _fieldnames(report.rows)
    if names:
        cells = [[_cell(row.get(k)) for k in names] for row in report.rows]
        widths = [
            max(len(name), *(len(c[i]) for c in cells)) if cells else len(name)
            for i, name in enumerate(names)
        ]
        lines.append("  ".join(n.ljust(w) for n, w in zip(names, widths)))
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    for w in report.warnings:
        lines.append(f"! {w}")
    lines.append(f"({report.runtime_ms} ms)")
    return "\n".join(lines)


def format_report(report: Report, fmt: str = "table") -> str:
    if fmt == "json":
        return _to_json(report)
    if fmt == "csv":
        return _to_csv(report)
    if fmt == "table":
        return _to_table(report)
    raise ValueError(f"unknown format {fmt!r}")
