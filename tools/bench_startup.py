"""Cold-start cost of primelab, this checkout against another one.

Each case is one fresh child process: ``import primelab``, ``import
primelab.cli``, and one small operation per subcommand family (``count``,
``primes``, ``goldbach``, ``crt``, ``schinzel``, ``estimate`` and the
probes' ``bertrand``). The cases run round-robin, ten runs each, both
checkouts back to back with the other checkout first on every other run,
so that a slow phase of the machine hits every case and side alike. Wall
time is measured around the child; CPU time (user + system) and peak RSS
come from ``os.wait4``. The children inherit this process's environment,
and the report records whether it sets ``PYTHONDONTWRITEBYTECODE`` (no
``__pycache__``: every child compiles what it imports) and
``OPENBLAS_NUM_THREADS``. Medians and quartiles go to
``BENCH_startup.json`` at the root of this checkout:

    python3 tools/bench_startup.py BASE_CHECKOUT   # e.g. a clone of the parent commit
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

from bench_goldbach import commit
from bench_render import ROOT

CASES = {
    "import primelab": ["-c", "import primelab"],
    "import primelab.cli": ["-c", "import primelab.cli"],
    "count": ["-m", "primelab.cli", "count", "twin", "--x", "1000"],
    "primes": ["-m", "primelab.cli", "primes", "--limit", "1000"],
    "goldbach": ["-m", "primelab.cli", "goldbach", "--even", "1000"],
    "crt": ["-m", "primelab.cli", "crt", "--allow", "5=1,2", "--allow", "7=3", "--hi", "100"],
    "schinzel": ["-m", "primelab.cli", "schinzel", "--num", "11", "--den", "13"],
    "estimate": ["-m", "primelab.cli", "estimate", "psi", "--x", "1000"],
    "bertrand": ["-m", "primelab.cli", "bertrand", "--min", "2", "--max", "1000"],
}
RUNS = 10
ENV_FLAGS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")


def run_once(args: list[str], root: pathlib.Path) -> tuple[float, float, float]:
    """(wall ms, CPU ms, peak RSS MB) of ``python args`` in a fresh interpreter importing root/src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(args)} failed in {root}")
    return wall_ms, (usage.ru_utime + usage.ru_stime) * 1e3, usage.ru_maxrss / 1024


def quartiles(values: list[float]) -> list[float]:
    """[lower quartile, median, upper quartile], rounded to 0.1."""
    return [round(q, 1) for q in statistics.quantiles(values, n=4)]


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sides = {"base": pathlib.Path(sys.argv[1]).resolve(), "change": ROOT}
    samples = {(side, case): [] for side in sides for case in CASES}
    for run in range(RUNS):
        for case, args in CASES.items():
            for side in (list(sides) if run % 2 else list(sides)[::-1]):
                samples[side, case].append(run_once(args, sides[side]))
    results = []
    for case in CASES:
        row = {"case": case}
        for side in sides:
            wall, cpu, rss = zip(*samples[side, case])
            row[side] = {"wall_ms": quartiles(wall), "cpu_ms": quartiles(cpu),
                         "peak_rss_mb": quartiles(rss)}
        results.append(row)
        print(f"{case:20}" + "".join(
            f"  {side} wall {row[side]['wall_ms'][1]:6.1f} cpu {row[side]['cpu_ms'][1]:6.1f} ms"
            f" rss {row[side]['peak_rss_mb'][1]:5.1f} MB" for side in sides))
    doc = {
        "what": "one fresh child per run; each figure is [q1, median, q3] over one side's runs",
        "runs": RUNS, "sides": {side: commit(root) for side, root in sides.items()},
        "env": {name: os.environ.get(name) for name in ENV_FLAGS},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / "BENCH_startup.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
