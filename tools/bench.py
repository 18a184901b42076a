"""Before/after timings of primelab: this checkout against another, one suite of cases at a time.

    python3 tools/bench.py SUITE BASE_CHECKOUT   # e.g. a clone of the parent commit

SUITE is one of the tables in ``SUITES``:

- ``render``: ``primelab --format F primes --limit L --list`` for F in json, csv,
  table and L in 1e5, 1e6, 1e7;
- ``goldbach``: ``primelab goldbach --even E --mode M`` for E in 1e6, 1e8 and M in
  exact, guided;
- ``specs``: the six struck-residue spec builders (twins, Sophie Germain, the tuples
  (2,6) and (2,6,8), Goldbach's eta spec and ``lambda_filter(11, 13, .)``) over the
  first 11, 65, 1 229 and 9 592 primes, timed inside the child (see ``SPECS_CHILD``);
- ``startup``: ``import primelab``, ``import primelab.cli`` and one small operation
  per subcommand family.

Each case runs in a fresh interpreter with ``PYTHONPATH=<checkout>/src`` and stdout
to /dev/null. Wall time is taken around the child, CPU time (user + system) and peak
RSS from ``os.wait4``; a self-timing child prints its own ``{case: {metric: value}}``
JSON instead. There are ``RUNS`` rounds over every case, both checkouts back to back
with the base checkout first on every other round, so that a slow phase of the
machine hits every case and side alike. Children inherit this process's environment,
and the record names the variables that change what they time: with
``PYTHONDONTWRITEBYTECODE`` set, every child compiles what it imports. Each side's
[q1, median, q3] per case and metric, and change/base of the medians, go to
``BENCH_<suite>.json`` at the root of this checkout.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = 10
ENV_FLAGS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")
SELF_TIMING = {"specs"}  # suites whose children print their own JSON


def cli(*args) -> list[str]:
    return ["-m", "primelab.cli", *map(str, args)]


# Only public names are used, so any checkout can be timed. Per case, the median
# per-call time of five interleaved samples of about 2 ms each.
SPECS_CHILD = """
import json, statistics, time
from primelab import ResidueSpec, build_split_plan, lambda_filter, sieve_primes

SIZES = {11: 10**3, 65: 10**5, 1229: 10**8, 9592: 10**10}  # prime count -> 2n with that many sieving primes
first = sieve_primes(10**5).primes.tolist()
cases = {}
for k, two_n in SIZES.items():
    ps, plan = first[:k], build_split_plan(two_n)
    assert len(plan.primes) == k
    cases.update({
        f"twins {k}": lambda ps=ps: ResidueSpec.twins(ps),
        f"sophie_germain {k}": lambda ps=ps: ResidueSpec.sophie_germain(ps),
        f"tuple_2_6 {k}": lambda ps=ps: ResidueSpec.for_tuple((2, 6), ps),
        f"tuple_2_6_8 {k}": lambda ps=ps: ResidueSpec.for_tuple((2, 6, 8), ps),
        f"eta {k}": plan.eta_spec,
        f"lambda_11_13 {k}": lambda ps=ps: lambda_filter(11, 13, ps),
    })
loops = {}
for case, build in cases.items():
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
print(json.dumps({case: {"us": statistics.median(us)} for case, us in samples.items()}))
"""

SUITES = {
    "render": {f"{fmt} {limit}": cli("--format", fmt, "primes", "--limit", limit, "--list")
               for fmt in ("json", "csv", "table") for limit in (10**5, 10**6, 10**7)},
    "goldbach": {f"{even} {mode}": cli("goldbach", "--even", even, "--mode", mode)
                 for even in (10**6, 10**8) for mode in ("exact", "guided")},
    "specs": {"builders": ["-c", SPECS_CHILD]},
    "startup": {
        "import primelab": ["-c", "import primelab"],
        "import primelab.cli": ["-c", "import primelab.cli"],
        "count": cli("count", "twin", "--x", 1000),
        "primes": cli("primes", "--limit", 1000),
        "goldbach": cli("goldbach", "--even", 1000),
        "crt": cli("crt", "--allow", "5=1,2", "--allow", "7=3", "--hi", 100),
        "schinzel": cli("schinzel", "--num", 11, "--den", 13),
        "estimate": cli("estimate", "psi", "--x", 1000),
        "bertrand": cli("bertrand", "--min", 2, "--max", 1000),
    },
}


def run(case: str, args: list[str], root: pathlib.Path, self_timing: bool) -> dict:
    """{case: {metric: value}} of ``python args`` in a fresh interpreter importing root/src."""
    argv = [sys.executable, *args]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE if self_timing
                          else subprocess.DEVNULL) as child:
        out = child.stdout.read() if self_timing else b""
        _, status, usage = os.wait4(child.pid, 0)
        wall_ms = (time.perf_counter() - start) * 1e3
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{' '.join(args)} exited with {child.returncode} in {root}")
    if self_timing:
        return json.loads(out)
    return {case: {"wall_ms": wall_ms, "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
                   "peak_rss_mb": usage.ru_maxrss / 1024}}  # Linux reports ru_maxrss in KiB


def describe(root: pathlib.Path) -> str:
    return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main() -> None:
    if len(sys.argv) != 3 or sys.argv[1] not in SUITES:
        raise SystemExit(__doc__)
    suite = sys.argv[1]
    sides = {"base": pathlib.Path(sys.argv[2]).resolve(), "change": ROOT}
    commits = {side: describe(root) for side, root in sides.items()}
    samples = collections.defaultdict(list)  # (case, metric, side) -> values
    for i in range(RUNS):
        for case, args in SUITES[suite].items():
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                for name, metrics in run(case, args, sides[side], suite in SELF_TIMING).items():
                    for metric, value in metrics.items():
                        samples[name, metric, side].append(value)
    results = []
    for name, metric in dict.fromkeys(key[:2] for key in samples):
        q = {side: [round(v, 1) for v in statistics.quantiles(samples[name, metric, side], n=4)]
             for side in sides}
        ratio = round(statistics.median(samples[name, metric, "change"])
                      / statistics.median(samples[name, metric, "base"]), 3)
        results.append({"case": name, "metric": metric, **q, "change_over_base": ratio})
        print(f"{name:20} {metric:11}  base {q['base']}  change {q['change']}  x{ratio:.2f}")
    doc = {
        "suite": suite, "runs": RUNS,
        "what": "[q1, median, q3] over each side's runs; change_over_base: ratio of the medians",
        "sides": commits, "env": {name: os.environ.get(name) for name in ENV_FLAGS},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / f"BENCH_{suite}.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
