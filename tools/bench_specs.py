"""Build time of the struck-residue specs, this checkout against another one.

Times six builders in a fresh child process per checkout: twins, Sophie
Germain, the tuples (2,6) and (2,6,8), Goldbach's eta spec via
``build_split_plan(2n).eta_spec()`` and ``lambda_filter(11, 13, primes)``,
each over the first 11, 65 and 1 229 primes (the eta spec at 2n = 1e3, 1e5,
1e8, whose sieving primes are those). Only public names are used, so any
checkout can be timed. A child takes the median per-call time of five
interleaved samples per case; the checkouts run back to back, the other one
first on every other pair, so that a slow phase of the machine hits both
sides alike. The medians over the pairs, and change/base, go to
``BENCH_specs.json`` at the root of this checkout:

    python3 tools/bench_specs.py BASE_CHECKOUT   # e.g. a clone of the parent commit
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

from bench_goldbach import commit
from bench_render import ROOT

PAIRS = 8

CHILD = """
import json, statistics, time
from primelab import ResidueSpec, build_split_plan, lambda_filter, sieve_primes

SIZES = {11: 10**3, 65: 10**5, 1229: 10**8}  # prime count -> 2n with that many sieving primes
first = sieve_primes(10**4).primes.tolist()
cases = {}
for k, two_n in SIZES.items():
    ps, plan = first[:k], build_split_plan(two_n)
    assert len(plan.primes) == k
    cases.update({
        ("twins", k): lambda ps=ps: ResidueSpec.twins(ps),
        ("sophie_germain", k): lambda ps=ps: ResidueSpec.sophie_germain(ps),
        ("tuple_2_6", k): lambda ps=ps: ResidueSpec.for_tuple((2, 6), ps),
        ("tuple_2_6_8", k): lambda ps=ps: ResidueSpec.for_tuple((2, 6, 8), ps),
        ("eta", k): plan.eta_spec,
        ("lambda_11_13", k): lambda ps=ps: lambda_filter(11, 13, ps),
    })
loops = {}
for case, build in cases.items():  # calls per sample: about 2 ms
    start = time.perf_counter()
    build()
    loops[case] = max(1, int(2e-3 / (time.perf_counter() - start)))
samples = {case: [] for case in cases}
for _ in range(5):
    for case, build in cases.items():
        start = time.perf_counter()
        for _ in range(loops[case]):
            build()
        samples[case].append((time.perf_counter() - start) / loops[case] * 1e6)
print(json.dumps([[name, k, statistics.median(us)] for (name, k), us in samples.items()]))
"""


def run_child(root: pathlib.Path) -> dict[tuple[str, int], float]:
    """Median microseconds per build, per (builder, prime count), in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                         check=True).stdout
    return {(name, k): us for name, k, us in json.loads(out)}


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sides = {"base": pathlib.Path(sys.argv[1]).resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run_child(sides[side]))
    results = []
    for case in runs["base"][0]:
        base, change = (statistics.median(run[case] for run in runs[side]) for side in sides)
        results.append({"builder": case[0], "primes": case[1], "base_us": round(base, 1),
                        "change_us": round(change, 1), "change_over_base": round(change / base, 3)})
        print(f"{case[0]:15} {case[1]:5}  base {base:9.1f} us  change {change:9.1f} us"
              f"  x{change / base:.2f}")
    doc = {
        "what": "median microseconds per spec build; per child, the median of 5 interleaved samples",
        "pairs": PAIRS,
        "commits": {side: commit(root) for side, root in sides.items()},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / "BENCH_specs.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
