"""Medians, quartiles and spreads over run records.

Usage: python3 perfbench/summarize.py [--json] [RECORD.json ...]

Reads the given run records (default: every record under perfbench/runs/),
groups them by workload and trace flag, and gives for each metric the
median, the quartiles Q1 and Q3 from ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median.  ``--json`` prints the summary as one
JSON document (the form kept in perfbench/baseline.json).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RUNS = Path(__file__).resolve().parent / "runs"


def summary(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[f"{rec['workload']} trace={rec['trace']}"].append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = defaultdict(list)
        for rec in recs:
            for name, value in (rec["per_layer"] if rec["trace"] else rec["end_to_end"]).items():
                metrics[name].append(value)
        stats = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
        first = recs[0]
        out[key] = {
            "runs": len(recs), "seeds": sorted(r["seed"] for r in recs),
            "seconds": first["seconds"], "git_sha": first["git_sha"],
            "src_sha256": first["src_sha256"], "python": first["python"],
            "numpy": first["numpy"], "nproc": first["nproc"],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "metrics": stats,
        }
    return out


def main(argv: list[str]) -> int:
    as_json = "--json" in argv
    paths = [Path(a) for a in argv if a != "--json"] or sorted(RUNS.glob("*.json"))
    result = summary([json.loads(p.read_text()) for p in paths])
    if as_json:
        print(json.dumps(result, indent=1))
        return 0
    for key, group in result.items():
        print(f"{key}: {group['runs']} runs, {group['failed']}/{group['attempted']} failed")
        for name, s in group["metrics"].items():
            print(f"  {name:40s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
