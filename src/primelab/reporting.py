"""Uniform report container and its JSON / CSV / table serializations.

Integers serialize exactly (lossless round-trip); floats are rendered
with 12 significant digits in every format so JSON and CSV carry
identical numeric values. A row is a dict, or a ``Block`` of rows held as
numpy integer columns. Every format renders a chunk of rows at a time
(``report_parts``), a block's through ``tolist()`` and one row template.
JSON dict rows are chunked too: with ``indent`` set, ``json.dumps`` bypasses
the C encoder and holds every fragment of its input in one list, many times its size.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

__all__ = ["Block", "Report", "format_report", "report_parts", "FORMATS"]

FORMATS = ("json", "csv", "table")
_CHUNK_ROWS = 4096


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    runtime_ms: int = 0

    def warn(self, message: str) -> None:
        self.warnings.append(message)


class Block(dict):
    """Report rows {name: value, ...} as equal-length numpy integer columns, keyed by name."""


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


def _row_texts(rows: list, sep: str, dict_text, block_template, names=None, lead=""):
    """The rows' text, lead before it and sep between rows, in parts of _CHUNK_ROWS rows: dict
    rows through dict_text, a block's through block_template(its keys in names order) % values."""
    for is_block, run in itertools.groupby(rows, lambda row: isinstance(row, Block)):
        if not is_block:
            run = list(run)
            for i in range(0, len(run), _CHUNK_ROWS):
                yield lead + dict_text(run[i:i + _CHUNK_ROWS])
                lead = sep
            continue
        for block in run:
            keys = [k for k in names or block if k in block]
            template, columns = block_template(keys), [block[k] for k in keys]
            for i in range(0, max(map(len, block.values())), _CHUNK_ROWS):
                values = zip(*(c[i:i + _CHUNK_ROWS].tolist() for c in columns), strict=True)
                yield lead + sep.join(map(template.__mod__, values))
                lead = sep


def _to_json(report: Report):
    head = json.dumps({"command": report.command, "params": _round_floats(report.params)}, indent=2)
    tail = json.dumps({"warnings": list(report.warnings), "runtime_ms": report.runtime_ms}, indent=2)
    yield head[:-2] + ',\n  "rows": ['
    # json.dumps(chunk, indent=2) is "[\n" + ",\n".join(rows at depth 1) + "\n]": strip
    # the brackets and indent once more, and the chunks join to the whole report's "rows"
    close = "]"
    for text in _row_texts(
        report.rows, ",",
        lambda chunk: json.dumps(_round_floats(chunk), indent=2)[1:-2].replace("\n", "\n  "),
        lambda keys: "\n    {" + ",".join(f"\n      {json.dumps(k)}: %d" for k in keys) + "\n    }",
    ):
        close = "\n  ]"
        yield text
    yield close + ",\n" + tail[2:]


def _fieldnames(rows: list) -> list[str]:  # a block of no rows adds no column
    return list(dict.fromkeys(k for row in rows for k in row
                              if not isinstance(row, Block) or len(row[k])))


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()[:-1]


def _to_csv(report: Report):
    names = _fieldnames(report.rows)
    yield _csv_text([names])
    yield from _row_texts(
        report.rows, "\n",
        lambda chunk: _csv_text([_cell(row.get(k)) for k in names] for row in chunk),
        lambda keys: ",".join("%d" if k in keys else "" for k in names), names, "\n",
    )


def _to_table(report: Report):
    lines = [f"# {report.command}"]
    if report.params:
        lines.append("  " + "  ".join(f"{k}={_cell(v)}" for k, v in report.params.items()))
    names = _fieldnames(report.rows)
    widths = {k: len(k) for k in names}
    for row in report.rows:  # a block column's widest cell is its min or its max
        cells = ([(k, end) for k, c in row.items() if len(c) for end in (c.min(), c.max())]
                 if isinstance(row, Block) else row.items())
        for k, v in cells:
            widths[k] = max(widths[k], len(_cell(v)))
    if names:
        lines.append("  ".join(k.ljust(widths[k]) for k in names))
    yield "\n".join(lines)
    yield from _row_texts(
        report.rows, "\n",
        lambda chunk: "\n".join("  ".join(_cell(row.get(k)).ljust(widths[k]) for k in names)
                                for row in chunk),
        lambda keys: "  ".join(f"%-{widths[k]}d" if k in keys else " " * widths[k] for k in names),
        names, "\n",
    )
    yield "".join(f"\n! {w}" for w in report.warnings) + f"\n({report.runtime_ms} ms)"


def report_parts(report: Report, fmt: str = "table"):
    """``format_report``'s text as parts of at most ``_CHUNK_ROWS`` rows each."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return {"json": _to_json, "csv": _to_csv, "table": _to_table}[fmt](report)


def format_report(report: Report, fmt: str = "table") -> str:
    return "".join(report_parts(report, fmt))
