"""Wall time and peak RSS of ``primelab goldbach``, this checkout against another one.

Runs ``python -m primelab.cli goldbach --even E --mode M`` in a fresh child
process for E in 1e6, 1e8 and M in exact, guided, five runs each per
checkout. Each case runs on both checkouts back to back, the other checkout
first on every other run, so that a slow phase of the machine hits both
sides alike. Timing, peak RSS and their summary come from ``bench_render``. The
medians and maxima go to ``BENCH_goldbach.json`` at the root of this
checkout:

    python3 tools/bench_goldbach.py BASE_CHECKOUT   # e.g. a clone of the parent commit
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys

from bench_render import ROOT, run_once, summary

EVENS = (10**6, 10**8)
MODES = ("exact", "guided")
RUNS = 5


def commit(root: pathlib.Path) -> str:
    return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sides = {"base": pathlib.Path(sys.argv[1]).resolve(), "change": ROOT}
    cases = [(even, mode) for even in EVENS for mode in MODES]
    samples = {(side, case): [] for side in sides for case in cases}
    for i in range(RUNS):
        for even, mode in cases:
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                samples[side, (even, mode)].append(
                    run_once(["goldbach", "--even", str(even), "--mode", mode], sides[side]))
    results = []
    for (side, (even, mode)), runs in samples.items():
        results.append({"side": side, "even": even, "mode": mode, **summary(runs)})
        print(f"{side:6} {even:>10} {mode:6}  wall {results[-1]['wall_ms_median']:8.1f} ms"
              f"  rss {results[-1]['peak_rss_mb_median']:5.1f} MB")
    doc = {
        "command": "python -m primelab.cli goldbach --even E --mode M",
        "commits": {side: commit(root) for side, root in sides.items()},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / "BENCH_goldbach.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
