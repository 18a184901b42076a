"""Wall time and peak RSS of rendering a prime listing, per output format.

Runs ``python -m primelab.cli --format F primes --limit L --list`` in a fresh
child process for F in json, csv, table and L in 1e5, 1e6, five runs each,
taken round-robin so that a slow phase of the machine hits every case alike.
Wall time is measured around the child; peak RSS is the child's ``ru_maxrss``
from ``os.wait4``. The medians and maxima go to ``BENCH_render.json`` at the
root of the checkout this script sits in, which is also where ``src/`` is
imported from:

    python3 tools/bench_render.py
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
FORMATS = ("json", "csv", "table")
LIMITS = (10**5, 10**6)
RUNS = 5


def run_once(args: list[str], root: pathlib.Path = ROOT) -> tuple[float, float]:
    """(wall ms, peak RSS MB) of ``primelab.cli args`` in a fresh interpreter importing root/src."""
    argv = [sys.executable, "-m", "primelab.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {child.returncode}")
    return wall_ms, usage.ru_maxrss / 1024  # Linux reports ru_maxrss in KiB


def summary(runs: list[tuple[float, float]]) -> dict:
    """Run count, medians and maxima of (wall ms, peak RSS MB) samples."""
    wall, rss = [w for w, _ in runs], [r for _, r in runs]
    return {
        "runs": len(runs),
        "wall_ms_median": round(statistics.median(wall), 1), "wall_ms_max": round(max(wall), 1),
        "peak_rss_mb_median": round(statistics.median(rss), 1), "peak_rss_mb_max": round(max(rss), 1),
    }


def main() -> None:
    samples = {(f, n): [] for f in FORMATS for n in LIMITS}
    for _ in range(RUNS):
        for (fmt, limit), runs in samples.items():
            runs.append(run_once(["--format", fmt, "primes", "--limit", str(limit), "--list"]))
    results = []
    for (fmt, limit), runs in samples.items():
        results.append({"format": fmt, "limit": limit, **summary(runs)})
        print(f"{fmt:5} {limit:>8}  wall {results[-1]['wall_ms_median']:7.1f} ms"
              f"  rss {results[-1]['peak_rss_mb_median']:5.1f} MB")
    doc = {
        "command": "python -m primelab.cli --format F primes --limit L --list",
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / "BENCH_render.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
